"""The CA cutoff algorithm (Algorithm 2 and its d-dimensional form)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunSpec, cutoff_config, run
from repro.machines import GenericMachine, InstantMachine
from repro.physics import ForceLaw, ParticleSet, PhantomSet, reference_forces, reference_pair_matrix
from repro.theory import ca_cutoff_cost

from tests.conftest import assert_forces_close


CONFIGS_1D = [(4, 1), (8, 1), (8, 2), (8, 4), (12, 2), (12, 3), (16, 4), (9, 3)]
CONFIGS_2D = [(4, 1), (8, 2), (12, 3), (16, 1), (16, 2), (16, 4)]
RCUTS = [0.1, 0.25, 0.4]


class TestCorrectness1D:
    @pytest.mark.parametrize("p,c", CONFIGS_1D)
    @pytest.mark.parametrize("rcut", RCUTS)
    def test_forces_match_reference(self, p, c, rcut, law, particles_1d):
        ref = reference_forces(law.with_rcut(rcut), particles_1d)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="cutoff",
                          particles=particles_1d, c=c, rcut=rcut,
                          box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)

    def test_2d_particles_1d_team_slabs(self, law, particles_2d):
        """1-D team decomposition of a 2-D simulation (slab regions)."""
        rcut = 0.3
        ref = reference_forces(law.with_rcut(rcut), particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                          particles=particles_2d, c=2, rcut=rcut,
                          box_length=1.0, law=law, team_dims=(4,), dim=1))
        assert_forces_close(out.forces, ref)


class TestCorrectness2D:
    @pytest.mark.parametrize("p,c", CONFIGS_2D)
    @pytest.mark.parametrize("rcut", [0.25, 0.45])
    def test_forces_match_reference(self, p, c, rcut, law, particles_2d):
        ref = reference_forces(law.with_rcut(rcut), particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="cutoff",
                          particles=particles_2d, c=c, rcut=rcut,
                          box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)

    def test_cutoff_larger_than_box_covers_everything(self, law, particles_2d):
        ref = reference_forces(law.with_rcut(1.0), particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                          particles=particles_2d, c=2, rcut=1.0,
                          box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)


class TestExactlyOnceCoverage:
    @pytest.mark.parametrize("p,c", CONFIGS_1D)
    def test_1d_within_cutoff_once_beyond_never(self, p, c, law):
        n = 60
        ps = ParticleSet.uniform_random(n, 1, 1.0, seed=42)
        rcut = 0.25
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                    particles=ps, c=c, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()

    @pytest.mark.parametrize("p,c", CONFIGS_2D)
    def test_2d_coverage(self, p, c, law):
        n = 60
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=43)
        rcut = 0.3
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                    particles=ps, c=c, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()

    @settings(max_examples=12, deadline=None)
    @given(
        pc=st.sampled_from(CONFIGS_1D + CONFIGS_2D),
        dim=st.sampled_from([1, 2]),
        rcut=st.sampled_from([0.15, 0.3, 0.6]),
        seed=st.integers(0, 500),
    )
    def test_coverage_property(self, pc, dim, rcut, seed):
        p, c = pc
        n = 40
        law = ForceLaw()
        ps = ParticleSet.uniform_random(n, dim, 1.0, seed=seed)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                    particles=ps, c=c, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()


class TestConfig:
    def test_window_span_follows_equation6(self):
        cfg = cutoff_config(16, 1, rcut=0.25, box_length=1.0, dim=1)
        # 16 teams, cell width 1/16, rcut spans ceil(0.25*16) = 4 cells.
        assert cfg.geometry.spanned_cells(0.25) == (4,)
        assert cfg.schedule.window >= 9  # 2m+1

    def test_team_dims_default_balanced(self):
        cfg = cutoff_config(16, 1, rcut=0.25, box_length=1.0, dim=2)
        assert sorted(cfg.geometry.team_dims) == [4, 4]

    def test_team_dims_override(self):
        cfg = cutoff_config(16, 2, rcut=0.25, box_length=1.0, dim=2,
                            team_dims=(8, 1))
        assert cfg.geometry.team_dims == (8, 1)

    def test_team_dims_must_multiply_to_teams(self):
        with pytest.raises(ValueError):
            cutoff_config(16, 2, rcut=0.25, box_length=1.0, dim=2,
                          team_dims=(4, 4))

    def test_rcut_validation(self):
        with pytest.raises(ValueError):
            cutoff_config(8, 1, rcut=0.0, box_length=1.0, dim=1)
        with pytest.raises(ValueError):
            cutoff_config(8, 1, rcut=2.0, box_length=1.0, dim=1)

    def test_reachability_pruning(self):
        cfg = cutoff_config(16, 1, rcut=0.1, box_length=1.0, dim=1)
        assert cfg.reachable(0, 1)
        assert not cfg.reachable(0, 8)

    def test_dim_exceeding_particles_rejected(self, law, particles_1d):
        with pytest.raises(ValueError):
            run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                        particles=particles_1d, c=1, rcut=0.25, box_length=1.0,
                        dim=2, law=law))


class TestCommunicationCosts:
    def test_messages_scale_as_m_over_c(self):
        """Shift messages follow S_1D = O(m/c) (Section IV-B)."""
        p, n = 64, 4096
        for c in (1, 2, 4):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="cutoff", particles=PhantomSet(n, 1), c=c, rcut=0.25,
                              box_length=1.0))
            got = res.report.max_messages("shift")
            T = p // c
            m = -(-T // 4)  # rcut spans T/4 cells
            expect = ca_cutoff_cost(n, p, c, m).messages
            assert got <= 3 * expect + 3
            assert got >= expect

    def test_fewer_messages_than_allpairs(self):
        p, n = 64, 4096
        ap = run(RunSpec(machine=GenericMachine(nranks=p),
                         algorithm="allpairs", particles=PhantomSet(n), c=1))
        co = run(RunSpec(machine=GenericMachine(nranks=p),
                         algorithm="cutoff", particles=PhantomSet(n, 1), c=1, rcut=0.1,
                         box_length=1.0))
        assert (co.report.max_messages("shift")
                < ap.report.max_messages("shift"))

    def test_boundary_teams_compute_less(self):
        p, n = 32, 2048
        res = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="cutoff", particles=PhantomSet(n, 1), c=1, rcut=0.25,
                          box_length=1.0))
        pairs = {r.col: r.npairs for r in res.run.results}
        interior = pairs[p // 2]
        corner = pairs[0]
        assert corner < interior

    def test_scanned_pairs_bounded_by_window(self):
        p, n = 16, 1024
        res = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="cutoff", particles=PhantomSet(n, 1), c=1, rcut=0.25,
                          box_length=1.0))
        total = sum(r.npairs for r in res.run.results)
        # Far fewer scans than all-pairs, at least the within-cutoff count.
        assert total < n * n
        assert total >= n * n * 0.3  # window fraction ~ 9/16
