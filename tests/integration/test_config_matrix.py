"""Systematic configuration matrix: every algorithm variant against the
serial reference over a grid of machine shapes, replication factors,
dimensionalities, boundary conditions and layouts.

Each cell is a distinct code path (different schedules, windows, layouts,
kernels); the assertion is always the same: forces equal the serial
reference, which the pair-coverage tests elsewhere tie to the exactly-once
property.
"""

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.machines import GenericMachine
from repro.physics import ForceLaw, ParticleSet, reference_forces

from tests.conftest import assert_forces_close

LAW = ForceLaw(k=1e-4, softening=2e-3)
N = 44


def particles(dim, seed):
    return ParticleSet.uniform_random(N, dim, 1.0, max_speed=0.05, seed=seed)


def all_divisor_cs(p):
    return [c for c in range(1, p + 1) if p % c == 0]


class TestAllPairsMatrix:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18,
                                   20, 24])
    def test_every_divisor_c(self, p):
        ps = particles(2, seed=p)
        ref = reference_forces(LAW, ps)
        for c in all_divisor_cs(p):
            out = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="allpairs", particles=ps, c=c,
                              law=LAW))
            assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", [(8, 2), (12, 3), (18, 3)])
    @pytest.mark.parametrize("layout", ["rows", "teams"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_layouts_and_dimensions(self, p, c, layout, dim):
        ps = particles(dim, seed=100 + dim)
        ref = reference_forces(LAW, ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=ps, c=c, law=LAW,
                          layout=layout))
        assert_forces_close(out.forces, ref)


class TestSymmetricMatrix:
    @pytest.mark.parametrize("p", [2, 4, 6, 8, 10, 12, 16, 18])
    def test_every_divisor_c(self, p):
        ps = particles(2, seed=200 + p)
        ref = reference_forces(LAW, ps)
        for c in all_divisor_cs(p):
            out = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="symmetric", particles=ps, c=c,
                              law=LAW))
            assert_forces_close(out.forces, ref)


class TestCutoffMatrix:
    @pytest.mark.parametrize("p", [4, 6, 8, 9, 12, 16, 20])
    @pytest.mark.parametrize("rcut", [0.12, 0.3, 0.7])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_1d_grid(self, p, rcut, periodic):
        if periodic and rcut > 0.5:
            pytest.skip("minimum image needs rcut <= L/2")
        ps = particles(1, seed=300 + p)
        law = LAW.with_rcut(rcut)
        if periodic:
            law = law.with_box(1.0)
        ref = reference_forces(law, ps)
        for c in [c for c in all_divisor_cs(p) if c * c <= 4 * p][:4]:
            out = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="cutoff", particles=ps, c=c, rcut=rcut,
                              box_length=1.0, law=LAW, periodic=periodic))
            assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", [(8, 2), (16, 2), (16, 4), (12, 3)])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_multi_d_grids(self, p, c, dim, periodic):
        ps = particles(dim, seed=400 + dim * p)
        rcut = 0.3
        law = LAW.with_rcut(rcut)
        if periodic:
            law = law.with_box(1.0)
        ref = reference_forces(law, ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="cutoff",
                          particles=ps, c=c, rcut=rcut, box_length=1.0,
                          dim=dim, law=LAW, periodic=periodic))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("team_dims", [(8,), (4, 2), (2, 2, 2)])
    def test_team_shapes_for_same_p(self, team_dims):
        """The same p decomposed as slabs, pencils or cubes."""
        ps = particles(3, seed=500)
        rcut = 0.35
        ref = reference_forces(LAW.with_rcut(rcut), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="cutoff", particles=ps, c=2, rcut=rcut,
                          box_length=1.0, dim=len(team_dims),
                          team_dims=team_dims, law=LAW))
        assert_forces_close(out.forces, ref)


class TestBaselineMatrix:
    @pytest.mark.parametrize("p", [4, 9, 16, 25])
    def test_force_decomposition_squares(self, p):
        ps = particles(2, seed=600 + p)
        ref = reference_forces(LAW, ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="force_decomposition", particles=ps,
                          law=LAW))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p", [4, 8, 12, 16])
    @pytest.mark.parametrize("rcut", [0.2, 0.45])
    def test_spatial_and_midpoint_agree(self, p, rcut):
        ps = particles(2, seed=700 + p)
        ref = reference_forces(LAW.with_rcut(rcut), ps)
        sp = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="spatial",
                         particles=ps, rcut=rcut, box_length=1.0, law=LAW))
        mp = run(RunSpec(machine=GenericMachine(nranks=p),
                         algorithm="midpoint", particles=ps, rcut=rcut,
                         box_length=1.0, law=LAW))
        assert_forces_close(sp.forces, ref)
        assert_forces_close(mp.forces, ref)
        assert np.allclose(sp.forces, mp.forces, atol=1e-12)
