"""Force kernels vs. a plain-Python reference, plus physical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physics.forces as F
from repro.physics import ForceLaw, ParticleSet, pairwise_forces, potential_energy


def brute_force(law, tpos, spos, tids=None, sids=None):
    """Textbook double loop, no vectorization."""
    nt, d = tpos.shape
    out = np.zeros((nt, d))
    eps2 = law.softening**2
    for i in range(nt):
        for j in range(spos.shape[0]):
            if tids is not None and sids is not None and tids[i] == sids[j]:
                continue
            dr = tpos[i] - spos[j]
            r2 = float(dr @ dr)
            if law.rcut is not None and r2 > law.rcut**2:
                continue
            out[i] += law.k * dr / (r2 + eps2) ** 1.5
    return out


class TestForceLaw:
    def test_with_rcut(self):
        law = ForceLaw(k=2.0, softening=0.1)
        law2 = law.with_rcut(0.5)
        assert law2.rcut == 0.5 and law2.k == 2.0 and law.rcut is None


class TestPairwiseForces:
    def test_matches_brute_force(self, law):
        rng = np.random.default_rng(0)
        t, s = rng.random((12, 2)), rng.random((9, 2))
        got, npairs = pairwise_forces(law, t, s)
        assert npairs == 12 * 9
        assert np.allclose(got, brute_force(law, t, s), atol=1e-15)

    def test_matches_brute_force_with_cutoff(self, law):
        rng = np.random.default_rng(1)
        t, s = rng.random((15, 2)), rng.random((15, 2))
        lc = law.with_rcut(0.4)
        got, _ = pairwise_forces(lc, t, s)
        assert np.allclose(got, brute_force(lc, t, s), atol=1e-15)

    def test_id_exclusion(self, law):
        rng = np.random.default_rng(2)
        pos = rng.random((10, 2))
        ids = np.arange(10)
        got, _ = pairwise_forces(law, pos, pos, target_ids=ids, source_ids=ids)
        want = brute_force(law, pos, pos, ids, ids)
        assert np.allclose(got, want, atol=1e-15)
        assert np.isfinite(got).all()

    def test_two_particles_repel(self, law):
        pos = np.array([[0.4, 0.5], [0.6, 0.5]])
        ids = np.array([0, 1])
        f, _ = pairwise_forces(law, pos, pos, target_ids=ids, source_ids=ids)
        assert f[0, 0] < 0 and f[1, 0] > 0  # pushed apart along x
        assert abs(f[0, 1]) < 1e-15 and abs(f[1, 1]) < 1e-15

    def test_newton_third_law(self, law):
        """Total internal force vanishes (symmetric kernel)."""
        rng = np.random.default_rng(3)
        pos = rng.random((30, 2))
        ids = np.arange(30)
        f, _ = pairwise_forces(law, pos, pos, target_ids=ids, source_ids=ids)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12 * np.abs(f).max())

    def test_accumulates_into_out(self, law):
        rng = np.random.default_rng(4)
        t, s = rng.random((5, 2)), rng.random((5, 2))
        base = np.ones((5, 2))
        got, _ = pairwise_forces(law, t, s, out=base)
        assert got is base
        fresh, _ = pairwise_forces(law, t, s)
        assert np.allclose(base, fresh + 1.0)

    def test_empty_inputs(self, law):
        t = np.empty((0, 2))
        s = np.random.default_rng(0).random((3, 2))
        out, npairs = pairwise_forces(law, t, s)
        assert out.shape == (0, 2) and npairs == 0
        out2, npairs2 = pairwise_forces(law, s, t)
        assert np.allclose(out2, 0.0) and npairs2 == 0

    def test_chunking_invariance(self, law, monkeypatch):
        """Tiny chunk limit must not change results."""
        import repro.physics.forces as F

        rng = np.random.default_rng(5)
        t, s = rng.random((40, 2)), rng.random((37, 2))
        ref, _ = pairwise_forces(law, t, s)
        monkeypatch.setattr(F, "_CHUNK_PAIRS", 64)
        chunked, _ = F.pairwise_forces(law, t, s)
        assert np.allclose(ref, chunked, atol=1e-15)

    def test_pair_counter_counts_contributions(self, law):
        rng = np.random.default_rng(6)
        pos = rng.random((8, 2))
        ids = np.arange(8)
        pc = np.zeros((8, 8), dtype=np.int64)
        pairwise_forces(law, pos, pos, target_ids=ids, source_ids=ids,
                        pair_counter=pc)
        assert (np.diag(pc) == 0).all()
        off_diag = pc[~np.eye(8, dtype=bool)]
        assert (off_diag == 1).all()

    def test_pair_counter_respects_cutoff(self, law):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.0]])
        ids = np.arange(3)
        pc = np.zeros((3, 3), dtype=np.int64)
        pairwise_forces(law.with_rcut(0.2), pos, pos, target_ids=ids,
                        source_ids=ids, pair_counter=pc)
        assert pc[0, 1] == 1 and pc[1, 0] == 1
        assert pc[0, 2] == 0 and pc[2, 0] == 0

    def test_1d_and_3d_shapes(self, law):
        for d in (1, 3):
            rng = np.random.default_rng(d)
            t, s = rng.random((6, d)), rng.random((4, d))
            out, _ = pairwise_forces(law, t, s)
            assert out.shape == (6, d)
            assert np.isfinite(out).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), nt=st.integers(1, 20), ns=st.integers(1, 20))
    def test_superposition_over_source_splits(self, seed, nt, ns):
        """Forces from sources A+B equal forces from A plus forces from B."""
        law = ForceLaw(k=1e-3, softening=1e-2)
        rng = np.random.default_rng(seed)
        t = rng.random((nt, 2))
        s = rng.random((ns, 2))
        cut = ns // 2
        full, _ = pairwise_forces(law, t, s)
        a, _ = pairwise_forces(law, t, s[:cut])
        b, _ = pairwise_forces(law, t, s[cut:])
        assert np.allclose(full, a + b, atol=1e-12)


def _dense(law, t, s, tids=None, sids=None, *, reaction=False, counter=None):
    """The dense core on its allocating path: every pair evaluated."""
    out = np.zeros_like(t)
    rout = np.zeros_like(s) if reaction else None
    F._dense_forces(law, t, s, tids, sids, out, pair_counter=counter,
                    reaction_out=rout, half=False, pair_mask=None,
                    scratch=False)
    return out, rout


def _close(got, want):
    scale = float(np.abs(want).max()) or 1.0
    return float(np.abs(got - want).max()) <= 1e-12 * scale


class TestCandidatePruning:
    """The cutoff entry point prunes candidates before any arithmetic; it
    must agree with the dense core and keep charging every pair."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 3),
           nt=st.integers(128, 300), ns=st.integers(128, 300),
           rcut=st.sampled_from([1e-6, 0.01, 0.05, 0.1, 0.3, 0.7, 2.0]),
           shift=st.integers(0, 300), self_block=st.booleans(),
           reaction=st.booleans())
    def test_matches_dense_core(self, seed, dim, nt, ns, rcut, shift,
                                self_block, reaction):
        law = ForceLaw(k=1e-3, softening=1e-3, rcut=rcut)
        rng = np.random.default_rng(seed)
        t = rng.random((nt, dim))
        tids = np.arange(nt)
        if self_block:
            s, sids = t, tids
        else:  # ids overlap the targets' when shift < nt
            s, sids = rng.random((ns, dim)), np.arange(ns) + shift
        assert len(t) * len(s) >= F._PRUNE_MIN_PAIRS  # the pruned branch
        n_ids = int(max(tids.max(), sids.max())) + 1
        pc = np.zeros((n_ids, n_ids), dtype=np.int64)
        pc_dense = pc.copy()
        rout = np.zeros_like(s) if reaction else None
        got, npairs = pairwise_forces(law, t, s, target_ids=tids,
                                      source_ids=sids, pair_counter=pc,
                                      reaction_out=rout)
        want, want_r = _dense(law, t, s, tids, sids, reaction=reaction,
                              counter=pc_dense)
        assert npairs == len(t) * len(s)
        assert _close(got, want)
        if reaction:
            assert _close(rout, want_r)
        assert np.array_equal(pc, pc_dense)

    def test_branch_taken_only_for_open_cutoff_blocks(self, law, monkeypatch):
        calls = []
        pruned = F._pruned_forces
        monkeypatch.setattr(F, "_pruned_forces",
                            lambda *a: calls.append(1) or pruned(*a))
        rng = np.random.default_rng(9)
        big = rng.random((128, 2))
        ids = np.arange(128)
        cut = law.with_rcut(0.1)
        pairwise_forces(law, big, big)  # no cutoff
        pairwise_forces(cut.with_box(1.0), big, big)  # periodic
        pairwise_forces(cut, big[:100], big)  # below the threshold
        pairwise_forces(cut, big, big, target_ids=ids, source_ids=ids,
                        reaction_out=np.zeros_like(big), half=True)
        pairwise_forces(cut, big, big,
                        pair_mask=np.ones((128, 128), dtype=bool))
        assert calls == []
        pairwise_forces(cut, big, big)
        assert calls == [1]

    def test_far_blocks_add_nothing_and_charge_everything(self, law):
        law = law.with_rcut(0.05)
        rng = np.random.default_rng(10)
        t = rng.random((200, 2)) * 0.1
        s = rng.random((200, 2)) * 0.1 + 0.5
        out = np.full((200, 2), 3.0)
        got, npairs = pairwise_forces(law, t, s, out=out)
        assert npairs == 200 * 200
        assert (got == 3.0).all()

    def test_accumulates_into_out(self, law):
        law = law.with_rcut(0.2)
        rng = np.random.default_rng(11)
        t, s = rng.random((150, 3)), rng.random((150, 3))
        base = rng.random((150, 3))
        got, _ = pairwise_forces(law, t, s, out=base.copy())
        want, _ = _dense(law, t, s)
        assert _close(got, base + want)


class TestScratchPool:
    """The pooled scratch buffers are a byte-capped LRU map."""

    def test_ragged_shapes_stay_under_cap_and_bitwise(self, law):
        F.clear_scratch()
        periodic = law.with_rcut(0.2).with_box(1.0)  # always the dense core
        rng = np.random.default_rng(12)
        for nt in range(200, 330, 7):
            t, s = rng.random((nt, 2)), rng.random((nt + 3, 2))
            pooled, _ = pairwise_forces(periodic, t, s)
            alloc, _ = pairwise_forces(periodic, t, s, scratch=False)
            assert np.array_equal(pooled, alloc)  # bitwise
            assert F.scratch_bytes() <= F._SCRATCH_CAP_BYTES
        assert F.scratch_bytes() == sum(F._Scratch.nbytes(*k)
                                        for k in F._SCRATCH_POOL)
        F.clear_scratch()
        assert F.scratch_bytes() == 0

    def test_recently_used_shape_survives_eviction(self, law):
        F.clear_scratch()
        rng = np.random.default_rng(13)
        hot = rng.random((512, 2))
        pairwise_forces(law, hot, hot)
        for ns in range(300, 900, 20):
            pairwise_forces(law, hot, rng.random((ns, 2)))
            pairwise_forces(law, hot, hot)
        assert (512, 512, 2) in F._SCRATCH_POOL
        F.clear_scratch()

    def test_even_512_blocks_stay_resident(self):
        """Equal 512-particle 2-D blocks (the p=16, n=4096 all-pairs and
        symmetric runs) need one pooled shape; two would still fit."""
        assert 2 * F._Scratch.nbytes(512, 512, 2) <= F._SCRATCH_CAP_BYTES

    def test_oversized_shape_is_not_pooled(self, law, monkeypatch):
        F.clear_scratch()
        monkeypatch.setattr(F, "_SCRATCH_CAP_BYTES", 1 << 10)
        rng = np.random.default_rng(14)
        t, s = rng.random((64, 2)), rng.random((64, 2))
        pooled, _ = pairwise_forces(law, t, s)
        alloc, _ = pairwise_forces(law, t, s, scratch=False)
        assert np.array_equal(pooled, alloc)
        assert F.scratch_bytes() == 0 and not F._SCRATCH_POOL


class TestPotentialEnergy:
    def test_two_particle_value(self):
        law = ForceLaw(k=2.0, softening=0.0)
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert potential_energy(law, pos) == pytest.approx(2.0 / 0.5)

    def test_pairs_counted_once(self, law):
        rng = np.random.default_rng(7)
        pos = rng.random((10, 2))
        u = potential_energy(law, pos)
        # Doubling the set of particles quadruples-ish, but duplicating the
        # computation must not: recomputation is deterministic.
        assert u == potential_energy(law, pos)
        assert u > 0

    def test_cutoff_truncates(self, law):
        rng = np.random.default_rng(8)
        pos = rng.random((20, 2))
        assert potential_energy(law.with_rcut(0.1), pos) <= potential_energy(law, pos)

    def test_degenerate_sizes(self, law):
        assert potential_energy(law, np.empty((0, 2))) == 0.0
        assert potential_energy(law, np.array([[0.5, 0.5]])) == 0.0

    def test_force_is_gradient_of_potential(self):
        """Numerical check: F = -dU/dx for a two-particle system."""
        law = ForceLaw(k=1.0, softening=0.05)
        base = np.array([[0.3, 0.5], [0.7, 0.5]])
        ids = np.arange(2)
        f, _ = pairwise_forces(law, base, base, target_ids=ids, source_ids=ids)
        h = 1e-7
        for axis in (0, 1):
            plus = base.copy()
            plus[0, axis] += h
            minus = base.copy()
            minus[0, axis] -= h
            dU = (potential_energy(law, plus) - potential_energy(law, minus)) / (2 * h)
            assert f[0, axis] == pytest.approx(-dU, rel=1e-5, abs=1e-8)
