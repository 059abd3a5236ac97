"""Weighted (equal-count) team decomposition — the load-balance extension.

The paper keeps its particle distribution "nearly uniform over time" so
equal cells stay balanced; this extension places cell boundaries at
particle quantiles instead, re-balancing clustered workloads while the CA
algorithm stays exactly correct.
"""

import numpy as np
import pytest

from repro.core import RunSpec, cutoff_config, run
from repro.machines import GenericMachine, InstantMachine
from repro.physics import (
    ForceLaw,
    ParticleSet,
    TeamGeometry,
    density_gradient,
    reference_forces,
    reference_pair_matrix,
    team_of_positions,
    two_phase,
    weighted_geometry,
)

from tests.conftest import assert_forces_close


@pytest.fixture
def clustered():
    return two_phase(400, 1, 1.0, dense_fraction=0.85, dense_extent=0.2,
                     seed=0)


class TestWeightedGeometry:
    def test_equal_counts_1d(self, clustered):
        g = weighted_geometry(clustered, (16,), 1.0)
        counts = np.bincount(team_of_positions(clustered.pos, g),
                             minlength=16)
        assert counts.max() - counts.min() <= 1

    def test_equal_cells_are_unbalanced(self, clustered):
        g = TeamGeometry(1.0, (16,))
        counts = np.bincount(team_of_positions(clustered.pos, g),
                             minlength=16)
        assert counts.max() > 4 * counts.mean()

    def test_edges_span_box(self, clustered):
        g = weighted_geometry(clustered, (8,), 1.0)
        e = g.axis_edges(0)
        assert e[0] == 0.0 and e[-1] == pytest.approx(1.0)
        assert (np.diff(e) > 0).all()

    def test_2d_marginal_balance(self):
        ps = density_gradient(1000, 2, 1.0, exponent=3.0, seed=1)
        g = weighted_geometry(ps, (4, 4), 1.0)
        counts = np.bincount(team_of_positions(ps.pos, g), minlength=16)
        eq = TeamGeometry(1.0, (4, 4))
        counts_eq = np.bincount(team_of_positions(ps.pos, eq), minlength=16)
        assert counts.max() < counts_eq.max()

    def test_region_bounds_from_edges(self, clustered):
        g = weighted_geometry(clustered, (4,), 1.0)
        for t in range(4):
            lo, hi = g.region_bounds(t)
            assert lo[0] == g.axis_edges(0)[t]
            assert hi[0] == g.axis_edges(0)[t + 1]

    def test_spanned_cells_worst_case(self):
        # Narrow cells near 0: a modest rcut spans many of them.
        edges = ((0.0, 0.01, 0.02, 0.03, 1.0),)
        g = TeamGeometry(1.0, (4,), edges=edges)
        assert g.spanned_cells(0.05)[0] >= 3
        eq = TeamGeometry(1.0, (4,))
        assert eq.spanned_cells(0.05) == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            TeamGeometry(1.0, (2,), edges=((0.0, 0.5),))  # wrong length
        with pytest.raises(ValueError):
            TeamGeometry(1.0, (2,), edges=((0.0, 0.6, 0.5),))  # not increasing
        with pytest.raises(ValueError):
            TeamGeometry(1.0, (2,), periodic=True,
                         edges=((0.0, 0.5, 1.0),))  # periodic + weighted

    def test_cell_widths_guarded(self):
        g = TeamGeometry(1.0, (2,), edges=((0.0, 0.3, 1.0),))
        with pytest.raises(ValueError):
            g.cell_widths

    def test_degenerate_quantiles_separated(self):
        # Many particles at the same coordinate must not collapse edges.
        pos = np.full((50, 1), 0.5)
        ps = ParticleSet(pos, np.zeros((50, 1)), np.arange(50))
        g = weighted_geometry(ps, (4,), 1.0)
        e = g.axis_edges(0)
        assert (np.diff(e) > 0).all()


class TestWeightedCutoffRuns:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_exact_physics(self, clustered, c, law):
        rcut = 0.1
        ref = reference_forces(law.with_rcut(rcut), clustered)
        g = weighted_geometry(clustered, (16 // c,), 1.0)
        counter = np.zeros((400, 400), dtype=np.int64)
        out = run(RunSpec(machine=InstantMachine(nranks=16),
                          algorithm="cutoff", particles=clustered, c=c,
                          rcut=rcut, box_length=1.0, law=law, geometry=g,
                          pair_counter=counter))
        expect = reference_pair_matrix(law.with_rcut(rcut), clustered)
        assert (counter == expect).all()
        assert_forces_close(out.forces, ref)

    def test_scan_imbalance_drops(self, clustered, law):
        rcut = 0.1
        eq = run(RunSpec(machine=InstantMachine(nranks=16), algorithm="cutoff",
                         particles=clustered, c=1, rcut=rcut, box_length=1.0,
                         law=law))
        g = weighted_geometry(clustered, (16,), 1.0)
        wt = run(RunSpec(machine=InstantMachine(nranks=16), algorithm="cutoff",
                         particles=clustered, c=1, rcut=rcut, box_length=1.0,
                         law=law, geometry=g))

        def imbalance(run):
            scans = [r.npairs for r in run.run.results]
            return max(scans) / (sum(scans) / len(scans))

        assert imbalance(wt) < imbalance(eq) / 2

    def test_faster_on_clustered_workload(self, clustered, law):
        """Balanced blocks shorten the simulated critical path."""
        m = GenericMachine(nranks=16)
        rcut = 0.1
        eq = run(RunSpec(machine=m, algorithm="cutoff", particles=clustered,
                         c=1, rcut=rcut, box_length=1.0, law=law))
        g = weighted_geometry(clustered, (16,), 1.0)
        wt = run(RunSpec(machine=m, algorithm="cutoff", particles=clustered,
                         c=1, rcut=rcut, box_length=1.0, law=law, geometry=g))
        assert wt.run.elapsed < eq.run.elapsed

    def test_geometry_team_count_validated(self, clustered, law):
        g = weighted_geometry(clustered, (16,), 1.0)
        with pytest.raises(ValueError, match="teams"):
            cutoff_config(16, 2, rcut=0.1, box_length=1.0, geometry=g)
