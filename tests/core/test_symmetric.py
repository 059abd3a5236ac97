"""The symmetric (Newton's-third-law) all-pairs extension.

The paper explicitly does not exploit force symmetry; this variant does.
It must (a) produce identical physics, (b) cover each ordered pair exactly
once while *evaluating* each unordered pair once, and (c) halve the total
computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunSpec, half_ring_schedule, run, symmetric_config
from repro.machines import GenericMachine, GenericTorus, InstantMachine
from repro.physics import ForceLaw, ParticleSet, PhantomSet, reference_forces

from tests.conftest import assert_forces_close

CONFIGS = [(1, 1), (2, 1), (4, 1), (4, 2), (8, 2), (8, 4), (12, 3),
           (16, 4), (9, 3), (6, 2)]


class TestHalfRingSchedule:
    @pytest.mark.parametrize("T,c", [(8, 1), (8, 2), (7, 1), (5, 1), (12, 4)])
    def test_validates(self, T, c):
        half_ring_schedule(T, c).validate()

    def test_window_is_half_ring(self):
        s = half_ring_schedule(8, 1)
        assert [o[0] for o, sk in zip(s.offsets, s.skip) if not sk] == [0, 1, 2, 3, 4]

    def test_half_the_steps_of_full_ring(self):
        from repro.core import all_pairs_schedule

        full = all_pairs_schedule(16, 2)
        half = half_ring_schedule(16, 2)
        assert half.steps < full.steps
        assert half.steps <= full.steps // 2 + 1

    def test_unordered_pair_coverage(self):
        """Every unordered team pair appears exactly once across columns
        (modulo the antipodal rule the algorithm applies at runtime)."""
        for T in (4, 5, 6, 7, 8):
            s = half_ring_schedule(T, 1)
            seen = {}
            for col in range(T):
                for u in range(s.window):
                    if s.skip[u]:
                        continue
                    o = s.offsets[u][0]
                    if o == 0:
                        continue
                    visitor = s.visitor_of(col, u)
                    if T % 2 == 0 and o == T // 2 and col >= visitor:
                        continue  # runtime antipodal rule
                    key = frozenset((col, visitor))
                    seen[key] = seen.get(key, 0) + 1
            expected = {frozenset((a, b)) for a in range(T) for b in range(T)
                        if a < b}
            assert set(seen) == expected
            assert all(v == 1 for v in seen.values())


class TestCorrectness:
    @pytest.mark.parametrize("p,c", CONFIGS)
    def test_forces_match_reference(self, p, c, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="symmetric", particles=particles_2d, c=c,
                          law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", CONFIGS)
    def test_every_ordered_pair_exactly_once(self, p, c, law):
        n = 48
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=55)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="symmetric",
                    particles=ps, c=c, law=law, pair_counter=counter))
        expect = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(expect, 0)
        assert (counter == expect).all()

    def test_matches_standard_algorithm(self, law, particles_2d):
        std = run(RunSpec(machine=GenericMachine(nranks=8),
                          algorithm="allpairs", particles=particles_2d, c=2,
                          law=law))
        sym = run(RunSpec(machine=GenericMachine(nranks=8),
                          algorithm="symmetric", particles=particles_2d, c=2,
                          law=law))
        assert_forces_close(sym.forces, std.forces)

    @settings(max_examples=10, deadline=None)
    @given(pc=st.sampled_from(CONFIGS), n=st.integers(10, 60),
           seed=st.integers(0, 500))
    def test_coverage_property(self, pc, n, seed):
        p, c = pc
        law = ForceLaw()
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=seed)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="symmetric",
                    particles=ps, c=c, law=law, pair_counter=counter))
        expect = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(expect, 0)
        assert (counter == expect).all()


class TestCosts:
    def test_total_scans_exactly_halved(self):
        p, n = 16, 1024
        m = GenericMachine(nranks=p)
        std, sym = (
            sum(r.npairs for r in run(RunSpec(
                machine=m, algorithm=name, particles=PhantomSet(n),
                c=2)).run.results)
            for name in ("allpairs", "symmetric"))
        # n^2 vs n(n-1)/2 + ... the pair total is (n^2 - n_self_diag)/2.
        assert std == n * n
        assert sym < std * 0.51
        assert sym > std * 0.45

    def test_fewer_shift_steps(self):
        m = GenericTorus(nranks=32, cores_per_node=4)
        std = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(2048),
                          c=2)).report.max_messages("shift")
        sym = run(RunSpec(machine=m, algorithm="symmetric",
                          particles=PhantomSet(2048),
                          c=2)).report.max_messages("shift")
        assert sym < std

    def test_return_phase_present_and_small(self):
        m = GenericTorus(nranks=16, cores_per_node=4)
        rep = run(RunSpec(machine=m, algorithm="symmetric",
                          particles=PhantomSet(2048),
                          c=2)).report
        assert rep.max_messages("return") == 1
        assert rep.max_time("return") > 0

    def test_faster_in_compute_bound_regime(self):
        m = GenericTorus(nranks=16, cores_per_node=4, pair_time=1e-6,
                         alpha=1e-7, beta=1e-11)
        std = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(2048),
                          c=2)).elapsed
        sym = run(RunSpec(machine=m, algorithm="symmetric",
                          particles=PhantomSet(2048),
                          c=2)).elapsed
        assert sym < 0.75 * std

    def test_shift_bytes_carry_reactions(self):
        """Per-step messages are larger (positions + reactions) but the
        loop is about half as long."""
        m = GenericMachine(nranks=16)
        std = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(2048),
                          c=1)).report
        sym = run(RunSpec(machine=m, algorithm="symmetric",
                          particles=PhantomSet(2048),
                          c=1)).report
        per_msg_std = std.max_bytes("shift") / std.max_messages("shift")
        per_msg_sym = sym.max_bytes("shift") / sym.max_messages("shift")
        assert per_msg_sym > per_msg_std
        assert sym.max_bytes("shift") < std.max_bytes("shift")
