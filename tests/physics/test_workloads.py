"""Synthetic non-uniform workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics import (
    ForceLaw,
    TeamGeometry,
    density_gradient,
    gaussian_clusters,
    plummer_sphere,
    reference_forces,
    team_of_positions,
    two_phase,
)


GENERATORS = [
    lambda n, d, L, seed: gaussian_clusters(n, d, L, seed=seed),
    lambda n, d, L, seed: density_gradient(n, d, L, seed=seed),
    lambda n, d, L, seed: plummer_sphere(n, d, L, seed=seed),
    lambda n, d, L, seed: two_phase(n, d, L, seed=seed),
]


class TestCommonProperties:
    @pytest.mark.parametrize("gen", GENERATORS)
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 300), dim=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 1000))
    def test_inside_box_with_valid_ids(self, gen, n, dim, seed):
        ps = gen(n, dim, 2.0, seed)
        assert ps.n == n and ps.dim == dim
        assert (ps.pos >= 0).all() and (ps.pos <= 2.0).all()
        assert np.array_equal(np.sort(ps.ids), np.arange(n))

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_reproducible(self, gen):
        a = gen(100, 2, 1.0, 7)
        b = gen(100, 2, 1.0, 7)
        assert np.array_equal(a.pos, b.pos)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_different_seeds_differ(self, gen):
        a = gen(100, 2, 1.0, 1)
        b = gen(100, 2, 1.0, 2)
        assert not np.array_equal(a.pos, b.pos)


class TestShapes:
    def test_clusters_are_clustered(self):
        ps = gaussian_clusters(500, 2, 1.0, nclusters=2, spread=0.02, seed=0)
        uniform_std = np.sqrt(1.0 / 12.0)
        # Clustered positions concentrate: pairwise spread far below uniform.
        assert ps.pos.std() < uniform_std

    def test_gradient_skews_high(self):
        ps = density_gradient(2000, 1, 1.0, exponent=3.0, seed=0)
        assert ps.pos[:, 0].mean() > 0.7

    def test_plummer_concentrates_at_scale_radius(self):
        # Plummer's cumulative mass inside r = a is 2^(-3/2) ~ 0.354 of
        # the total, independent of a; a uniform box would put ~pi a^2
        # ~ 3% of the particles there.
        ps = plummer_sphere(4000, 2, 1.0, scale_radius=0.1, seed=0)
        r = np.linalg.norm(ps.pos - 0.5, axis=1)
        frac = (r < 0.1).mean()
        assert 0.25 < frac < 0.45

    def test_plummer_is_isotropic(self):
        ps = plummer_sphere(4000, 3, 1.0, scale_radius=0.05, seed=1)
        centered = ps.pos - 0.5
        # Mean displacement cancels in every axis for an isotropic cloud.
        assert np.abs(centered.mean(axis=0)).max() < 0.02

    def test_plummer_validation(self):
        with pytest.raises(ValueError):
            plummer_sphere(10, 2, 1.0, scale_radius=0.0)
        with pytest.raises(ValueError):
            plummer_sphere(10, 0, 1.0)

    def test_two_phase_corner_density(self):
        ps = two_phase(1000, 2, 1.0, dense_fraction=0.8, dense_extent=0.25,
                       seed=0)
        in_corner = ((ps.pos < 0.25).all(axis=1)).mean()
        assert in_corner > 0.7

    def test_two_phase_validation(self):
        with pytest.raises(ValueError):
            two_phase(10, 2, 1.0, dense_fraction=1.5)
        with pytest.raises(ValueError):
            two_phase(10, 2, 1.0, dense_extent=0.0)

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            gaussian_clusters(10, 2, 1.0, nclusters=0)

    def test_velocities(self):
        ps = gaussian_clusters(50, 2, 1.0, max_speed=0.5, seed=0)
        assert (np.abs(ps.vel) <= 0.5).all()
        assert np.abs(ps.vel).max() > 0


class TestLoadImbalanceEffect:
    def test_nonuniform_distributions_unbalance_teams(self):
        """The property the paper's uniformity assumption protects against:
        clustered particles give wildly uneven team block sizes."""
        g = TeamGeometry(1.0, (4, 4))
        uniform = team_of_positions(
            gaussian_clusters(4000, 2, 1.0, nclusters=64, spread=2.0,
                              seed=0).pos, g)
        clustered = team_of_positions(
            two_phase(4000, 2, 1.0, dense_fraction=0.9, dense_extent=0.2,
                      seed=0).pos, g)
        uni_counts = np.bincount(uniform, minlength=16)
        clu_counts = np.bincount(clustered, minlength=16)
        assert clu_counts.max() / max(clu_counts.mean(), 1) > \
               uni_counts.max() / max(uni_counts.mean(), 1)

    def test_physics_still_correct_on_clusters(self, law):
        """Correctness is distribution-independent."""
        from repro.core import RunSpec, run
        from repro.machines import GenericMachine

        ps = gaussian_clusters(80, 2, 1.0, nclusters=3, spread=0.08, seed=5)
        ref = reference_forces(law.with_rcut(0.3), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                          particles=ps, c=2, rcut=0.3, box_length=1.0,
                          law=law))
        scale = max(float(np.abs(ref).max()), 1e-30)
        assert np.abs(out.forces - ref).max() <= 1e-9 * scale
