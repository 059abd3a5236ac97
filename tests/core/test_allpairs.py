"""The CA all-pairs algorithm (Algorithm 1): correctness, coverage, costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunSpec, allpairs_config, run
from repro.machines import GenericMachine, GenericTorus, InstantMachine
from repro.physics import ForceLaw, ParticleSet, PhantomSet, reference_forces, reference_pair_matrix
from repro.theory import ca_allpairs_cost

from tests.conftest import assert_forces_close


def all_pc_configs():
    return [
        (4, 1), (4, 2), (4, 4),
        (8, 1), (8, 2), (8, 4), (8, 8),
        (12, 1), (12, 2), (12, 3), (12, 4), (12, 6),
        (16, 4), (16, 16), (9, 3), (6, 6),
    ]


class TestCorrectness:
    @pytest.mark.parametrize("p,c", all_pc_configs())
    def test_forces_match_reference(self, p, c, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=particles_2d, c=c,
                          law=law))
        assert np.array_equal(out.ids, np.sort(particles_2d.ids))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", [(8, 2), (12, 3)])
    def test_1d_particles(self, p, c, law, particles_1d):
        ref = reference_forces(law, particles_1d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=particles_1d, c=c,
                          law=law))
        assert_forces_close(out.forces, ref)

    def test_single_rank(self, law, particles_2d):
        out = run(RunSpec(machine=GenericMachine(nranks=1),
                          algorithm="allpairs", particles=particles_2d, c=1,
                          law=law))
        assert_forces_close(out.forces, reference_forces(law, particles_2d))

    def test_n_smaller_than_teams(self, law):
        ps = ParticleSet.uniform_random(5, 2, 1.0, seed=0)
        out = run(RunSpec(machine=GenericMachine(nranks=8),
                          algorithm="allpairs", particles=ps, c=1, law=law))
        assert_forces_close(out.forces, reference_forces(law, ps))

    def test_results_independent_of_c(self, law, particles_2d):
        """Different replication factors agree to reduction-order noise."""
        outs = [
            run(RunSpec(machine=GenericMachine(nranks=8), algorithm="allpairs",
                        particles=particles_2d, c=c, law=law)).forces
            for c in (1, 2, 4, 8)
        ]
        for f in outs[1:]:
            assert_forces_close(f, outs[0])


class TestExactlyOnceCoverage:
    @pytest.mark.parametrize("p,c", all_pc_configs())
    def test_every_ordered_pair_once(self, p, c, law):
        n = 48
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=77)
        pc_matrix = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="allpairs",
                    particles=ps, c=c, law=law, pair_counter=pc_matrix))
        assert (pc_matrix == reference_pair_matrix(law, ps)).all()

    @settings(max_examples=15, deadline=None)
    @given(
        pc=st.sampled_from(all_pc_configs()),
        n=st.integers(8, 64),
        seed=st.integers(0, 999),
    )
    def test_coverage_property(self, pc, n, seed):
        p, c = pc
        law = ForceLaw()
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=seed)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="allpairs",
                    particles=ps, c=c, law=law, pair_counter=counter))
        assert (counter == reference_pair_matrix(law, ps)).all()


class TestCommunicationCosts:
    """Measured traffic must match the paper's Equation 5 up to constants."""

    def test_messages_scale_as_p_over_c_squared(self):
        p, n = 64, 4096
        msgs = {}
        for c in (1, 2, 4, 8):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="allpairs", particles=PhantomSet(n), c=c))
            msgs[c] = res.report.max_messages("shift")
        # Shift messages ~ p/c^2 (one per step, plus the skew).
        for c in (1, 2, 4, 8):
            expect = ca_allpairs_cost(n, p, c).messages
            assert msgs[c] <= expect + 2
            assert msgs[c] >= expect - 1

    def test_words_scale_as_n_over_c(self):
        p, n = 64, 4096
        for c in (1, 2, 4, 8):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="allpairs", particles=PhantomSet(n), c=c))
            got = res.report.max_bytes("shift")
            expect_words = ca_allpairs_cost(n, p, c).words  # particles
            # 52 bytes per particle; the skew adds one extra block.
            assert got <= 52 * (expect_words + n * c / p) * 1.05
            assert got >= 52 * expect_words * 0.5

    def test_total_interactions_conserved(self):
        """Sum of per-rank scanned pairs is exactly n^2 regardless of c."""
        p, n = 16, 1024
        for c in (1, 2, 4):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="allpairs", particles=PhantomSet(n), c=c))
            total = sum(r.npairs for r in res.run.results)
            assert total == n * n

    def test_compute_time_balanced(self):
        p, n = 16, 1024
        res = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=PhantomSet(n), c=4))
        per_rank = [r.npairs for r in res.run.results]
        assert max(per_rank) <= 2 * min(per_rank)

    def test_communication_decreases_with_c(self, torus64):
        comm = []
        for c in (1, 2, 4, 8):
            rep = run(RunSpec(machine=torus64, algorithm="allpairs",
                              particles=PhantomSet(4096), c=c)).report
            comm.append(rep.max_time("shift"))
        assert comm[0] > comm[1] > comm[2] > comm[3]

    def test_shift_drops_superlinearly(self, torus64):
        r1 = run(RunSpec(machine=torus64, algorithm="allpairs",
                         particles=PhantomSet(8192),
                         c=1)).report.max_time("shift")
        r4 = run(RunSpec(machine=torus64, algorithm="allpairs",
                         particles=PhantomSet(8192),
                         c=4)).report.max_time("shift")
        # Equation 5 predicts ~c^2 = 16x; allow generous slack for latency.
        assert r1 / r4 > 4


class TestConfig:
    def test_config_validation(self):
        cfg = allpairs_config(12, 3)
        assert cfg.grid.nteams == 4
        assert cfg.rcut is None
        assert cfg.reachable(0, 3)

    def test_c_must_divide_p(self):
        with pytest.raises(ValueError):
            allpairs_config(10, 4)

    def test_engine_size_must_match(self, law, particles_2d):
        from repro.core.ca_step import ca_interaction_step
        from repro.physics.kernels import RealKernel
        from repro.simmpi import Engine

        cfg = allpairs_config(8, 2)
        kernel = RealKernel(law=law)

        def program(comm):
            res = yield from ca_interaction_step(comm, cfg, kernel, None)
            return res

        with pytest.raises(Exception):
            Engine(GenericMachine(nranks=4)).run(program)


class TestPhases:
    def test_expected_phases_present(self, torus64):
        rep = run(RunSpec(machine=torus64, algorithm="allpairs",
                          particles=PhantomSet(2048), c=4)).report
        labels = rep.phase_labels()
        for lab in ("bcast", "shift", "compute", "reduce"):
            assert lab in labels

    def test_c1_has_no_collectives(self, torus64):
        rep = run(RunSpec(machine=torus64, algorithm="allpairs",
                          particles=PhantomSet(2048), c=1)).report
        assert rep.max_time("bcast") == 0.0
        assert rep.max_time("reduce") == 0.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           algorithm=st.sampled_from(["allpairs", "symmetric"]),
           tier=st.sampled_from(["event", "heuristic"]))
    def test_functional_and_virtual_same_structure(self, data, algorithm,
                                                   tier):
        """A phantom workload is a data mode: over any legal (p, c, n) the
        phantom run and the real run send and receive the same messages
        and bytes, per rank and per phase, on both engine tiers."""
        p = data.draw(st.integers(1, 16), label="p")
        c = data.draw(st.sampled_from([d for d in range(1, p + 1)
                                       if p % d == 0]), label="c")
        n = data.draw(st.integers(1, 96), label="n")
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=5)
        m = GenericTorus(nranks=p, cores_per_node=1)

        def traffic(particles):
            report = run(RunSpec(machine=m, algorithm=algorithm,
                                 particles=particles, c=c,
                                 engine_tier=tier)).report
            return {(tr.rank, label): (pt.messages_sent, pt.bytes_sent,
                                       pt.messages_received,
                                       pt.bytes_received)
                    for tr in report.traces
                    for label, pt in tr.phases.items()}

        assert traffic(PhantomSet(n)) == traffic(ps)
