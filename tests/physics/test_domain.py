"""Spatial team decomposition geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics import TeamGeometry, team_of_positions


class TestTeamGeometry:
    def test_basic_properties(self):
        g = TeamGeometry(2.0, (4, 2))
        assert g.dim == 2 and g.nteams == 8
        assert g.cell_widths == (0.5, 1.0)

    def test_multi_index_roundtrip(self):
        g = TeamGeometry(1.0, (3, 4, 2))
        for t in range(g.nteams):
            assert g.linear_index(g.multi_index(t)) == t

    def test_region_bounds(self):
        g = TeamGeometry(1.0, (2, 2))
        lo, hi = g.region_bounds(3)  # multi-index (1, 1)
        assert np.allclose(lo, [0.5, 0.5]) and np.allclose(hi, [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TeamGeometry(0.0, (2,))
        with pytest.raises(ValueError):
            TeamGeometry(1.0, ())
        with pytest.raises(ValueError):
            TeamGeometry(1.0, (2, 0))


class TestSpannedCells:
    def test_quarter_box(self):
        g = TeamGeometry(1.0, (8,))
        assert g.spanned_cells(0.25) == (2,)

    def test_non_integral_rounds_up(self):
        g = TeamGeometry(1.0, (8,))
        assert g.spanned_cells(0.26) == (3,)

    def test_per_dimension(self):
        g = TeamGeometry(1.0, (8, 4))
        assert g.spanned_cells(0.25) == (2, 1)

    def test_tiny_cutoff(self):
        g = TeamGeometry(1.0, (4,))
        assert g.spanned_cells(0.01) == (1,)


class TestTeamDistance:
    def test_adjacent_always_ok(self):
        g = TeamGeometry(1.0, (8,))
        assert g.team_distance_ok(2, 3, 0.01)

    def test_same_team_ok(self):
        g = TeamGeometry(1.0, (8,))
        assert g.team_distance_ok(5, 5, 0.01)

    def test_far_apart_not_ok(self):
        g = TeamGeometry(1.0, (8,))
        assert not g.team_distance_ok(0, 4, 0.25)

    def test_gap_exactly_cutoff(self):
        g = TeamGeometry(1.0, (4,))
        # Teams 0 and 2: gap is one cell = 0.25.
        assert g.team_distance_ok(0, 2, 0.25)
        assert not g.team_distance_ok(0, 2, 0.2)

    def test_diagonal_2d(self):
        g = TeamGeometry(1.0, (4, 4))
        a = g.linear_index((0, 0))
        b = g.linear_index((2, 2))
        # Gap is (0.25, 0.25) -> distance ~0.354.
        assert g.team_distance_ok(a, b, 0.36)
        assert not g.team_distance_ok(a, b, 0.35)

    def test_symmetric(self):
        g = TeamGeometry(1.0, (5, 3))
        for a in range(g.nteams):
            for b in range(g.nteams):
                assert g.team_distance_ok(a, b, 0.3) == g.team_distance_ok(b, a, 0.3)


def _scalar_reach(g, rcut):
    """The (T, T) matrix of the scalar test, pair by pair."""
    return np.array([[g.team_distance_ok(a, b, rcut) for b in range(g.nteams)]
                     for a in range(g.nteams)])


def _matrix(reach, nteams):
    """The (T, T) matrix of a Reachability, in one broadcast call."""
    teams = np.arange(nteams)
    return reach(teams[:, None], teams[None, :])


class TestReachability:
    """``reachability`` is the scalar ``team_distance_ok`` rule, precomputed."""

    #: The cutoff configurations of the comm-volume lock
    #: (tools/metrics_gate.py): PINNED and the dim-1/2/3 extra cases.
    LOCK_CONFIGS = [(16, 2, 1), (16, 2, 2), (27, 1, 3)]

    @pytest.mark.parametrize("p,c,dim", LOCK_CONFIGS)
    @pytest.mark.parametrize("periodic", [False, True])
    def test_cutoff_config_matches_scalar_rule(self, p, c, dim, periodic):
        from repro.core.cutoff import cutoff_config

        cfg = cutoff_config(p, c, rcut=0.3, box_length=1.0, dim=dim,
                            periodic=periodic)
        assert np.array_equal(_matrix(cfg.reach, cfg.grid.nteams),
                              _scalar_reach(cfg.geometry, 0.3))
        assert all(cfg.reachable(a, b) == cfg.geometry.team_distance_ok(a, b, 0.3)
                   for a in range(cfg.grid.nteams)
                   for b in range(cfg.grid.nteams))

    @pytest.mark.parametrize("rcut", [0.15, 0.3])  # midpoint, spatial
    def test_neighbors_match_scalar_rule(self, rcut):
        g = TeamGeometry(1.0, (4, 4))  # spatial/midpoint at the lock's p=16
        want = [[b for b in range(16) if b != a and g.team_distance_ok(a, b, rcut)]
                for a in range(16)]
        assert g.neighbors(rcut) == want

    def test_no_cutoff_config_has_no_matrix(self):
        from repro.core.allpairs import allpairs_config

        cfg = allpairs_config(16, 2)
        assert cfg.reach is None and cfg.reachable(0, 7)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           dims=st.sampled_from([(5,), (3, 4), (2, 3, 2), (7, 2)]),
           rcut=st.floats(0.0, 1.5))
    def test_weighted_edges_match_scalar_rule(self, data, dims, rcut):
        edges = []
        for d in dims:
            inner = data.draw(st.lists(st.floats(0.01, 0.99), min_size=d - 1,
                                       max_size=d - 1, unique=True))
            edges.append(tuple([0.0] + sorted(inner) + [1.0]))
        g = TeamGeometry(1.0, dims, edges=tuple(edges))
        assert np.array_equal(_matrix(g.reachability(rcut), g.nteams),
                              _scalar_reach(g, rcut))

    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(6,), (4, 3), (3, 3, 3), (8, 2)]),
           rcut=st.floats(0.0, 0.5))
    def test_periodic_matches_scalar_rule(self, dims, rcut):
        g = TeamGeometry(1.0, dims, periodic=True)
        assert np.array_equal(_matrix(g.reachability(rcut), g.nteams),
                              _scalar_reach(g, rcut))

    def test_paper_scale_stays_small(self):
        """O(T) storage: 24576 teams (Figure 6's p at c=1) cost no T^2."""
        g = TeamGeometry(1.0, (24576,))
        reach = g.reachability(5e-5)  # between one and two cell widths
        assert sum(a.nbytes for a in reach.index + reach.edges) < 1 << 20
        assert reach(0, 1) and reach(0, 2) and not reach(0, 3)
        assert reach(24575, 24573) and not reach(0, 24575)


class TestTeamOfPositions:
    def test_basic_binning(self):
        g = TeamGeometry(1.0, (2, 2))
        pos = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.9]])
        assert list(team_of_positions(pos, g)) == [0, 1, 2, 3]

    def test_upper_wall_belongs_to_last_cell(self):
        g = TeamGeometry(1.0, (4,))
        assert team_of_positions(np.array([[1.0]]), g)[0] == 3

    def test_1d(self):
        g = TeamGeometry(2.0, (4,))
        t = team_of_positions(np.array([[0.1], [0.6], [1.1], [1.9]]), g)
        assert list(t) == [0, 1, 2, 3]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000),
           dims=st.sampled_from([(4,), (2, 3), (3, 3)]))
    def test_positions_inside_their_region(self, seed, dims):
        g = TeamGeometry(1.0, dims)
        rng = np.random.default_rng(seed)
        pos = rng.random((50, len(dims)))
        teams = team_of_positions(pos, g)
        for i in range(50):
            lo, hi = g.region_bounds(int(teams[i]))
            assert (pos[i] >= lo - 1e-12).all() and (pos[i] <= hi + 1e-12).all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_binning_is_partition(self, seed):
        g = TeamGeometry(1.0, (3, 2))
        rng = np.random.default_rng(seed)
        pos = rng.random((40, 2))
        teams = team_of_positions(pos, g)
        assert ((teams >= 0) & (teams < g.nteams)).all()
