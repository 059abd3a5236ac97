"""Periodic-boundary extension: correctness and load-balance properties.

The paper's box is reflective; it attributes its cutoff runs' inefficiency
to the resulting boundary load imbalance ("processors assigned to regions
near the boundary of the simulation space have fewer interactions to
compute").  The periodic extension makes every team statistically
equivalent, which these tests verify — along with full force correctness
under the minimum-image convention.
"""

import numpy as np
import pytest

from repro.core import (
    RunSpec,
    SimulationConfig,
    cutoff_config,
    run,
    run_simulation,
    team_blocks_spatial,
)
from repro.machines import GenericMachine, InstantMachine
from repro.physics import (
    ForceLaw,
    ParticleSet,
    PhantomSet,
    euler_step,
    reference_forces,
    reference_pair_matrix,
    wrap_periodic,
)

from tests.conftest import assert_forces_close


class TestWrapPeriodic:
    def test_wraps_into_box(self):
        pos = np.array([[1.25, -0.25], [0.5, 2.0]])
        wrap_periodic(pos, 1.0)
        assert np.allclose(pos, [[0.25, 0.75], [0.5, 0.0]])

    def test_inside_untouched(self):
        pos = np.array([[0.3, 0.7]])
        wrap_periodic(pos, 1.0)
        assert np.allclose(pos, [[0.3, 0.7]])

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            wrap_periodic(np.zeros((1, 1)), -1.0)


class TestMinimumImageForces:
    def test_pair_across_the_boundary(self):
        """Two particles near opposite walls interact through the wall."""
        law = ForceLaw(k=1.0, softening=0.0, box=1.0)
        pos = np.array([[0.05, 0.5], [0.95, 0.5]])
        ids = np.arange(2)
        from repro.physics import pairwise_forces

        f, _ = pairwise_forces(law, pos, pos, target_ids=ids, source_ids=ids)
        # Minimum-image separation is 0.1 through the wall: particle 0 is
        # pushed right (+x, away through the wall), particle 1 left.
        assert f[0, 0] > 0 and f[1, 0] < 0
        assert abs(f[0, 0]) == pytest.approx(1.0 / 0.1**2, rel=1e-12)

    def test_rcut_limited_by_half_box(self):
        with pytest.raises(ValueError):
            ForceLaw(rcut=0.6, box=1.0)

    def test_box_must_be_positive(self):
        with pytest.raises(ValueError):
            ForceLaw(box=0.0)

    def test_with_helpers_preserve_box(self):
        law = ForceLaw(box=2.0)
        assert law.with_rcut(0.5).box == 2.0
        assert law.with_box(None).box is None

    def test_pair_matrix_minimum_image(self):
        law = ForceLaw(rcut=0.2, box=1.0)
        ps = ParticleSet(
            np.array([[0.05], [0.95], [0.5]]), np.zeros((3, 1)), np.arange(3)
        )
        m = reference_pair_matrix(law, ps)
        assert m[0, 1] == 1 and m[1, 0] == 1  # through the wall
        assert m[0, 2] == 0 and m[1, 2] == 0


PC = [(8, 1), (8, 2), (16, 4), (12, 3)]


class TestPeriodicCutoffCorrectness:
    @pytest.mark.parametrize("p,c", PC)
    @pytest.mark.parametrize("dim,rcut", [(1, 0.2), (2, 0.3)])
    def test_forces_match_periodic_reference(self, p, c, dim, rcut):
        law = ForceLaw(k=1e-4, softening=1e-3)
        ps = ParticleSet.uniform_random(72, dim, 1.0, seed=31)
        ref = reference_forces(law.with_rcut(rcut).with_box(1.0), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="cutoff",
                          particles=ps, c=c, rcut=rcut, box_length=1.0,
                          law=law, periodic=True))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", PC)
    def test_coverage_exactly_once(self, p, c):
        law = ForceLaw()
        n = 50
        ps = ParticleSet.uniform_random(n, 1, 1.0, seed=32)
        rcut = 0.25
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                    particles=ps, c=c, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter, periodic=True))
        expect = reference_pair_matrix(law.with_rcut(rcut).with_box(1.0), ps)
        assert (counter == expect).all()

    def test_periodic_sees_more_pairs_than_reflective(self):
        law = ForceLaw()
        n = 60
        ps = ParticleSet.uniform_random(n, 1, 1.0, seed=33)
        per = np.zeros((n, n), dtype=np.int64)
        ref = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=8), algorithm="cutoff",
                    particles=ps, c=2, rcut=0.25, box_length=1.0, law=law,
                    pair_counter=per, periodic=True))
        run(RunSpec(machine=InstantMachine(nranks=8), algorithm="cutoff",
                    particles=ps, c=2, rcut=0.25, box_length=1.0, law=law,
                    pair_counter=ref, periodic=False))
        assert per.sum() > ref.sum()


class TestPeriodicLoadBalance:
    def test_imbalance_disappears(self):
        """Under PBC every team scans the same number of block pairs —
        the boundary imbalance the paper describes is gone."""
        p, n = 32, 2048
        per = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="cutoff", particles=PhantomSet(n, 1), c=1, rcut=0.25,
                          box_length=1.0, periodic=True))
        pairs = {r.col: r.npairs for r in per.run.results}
        assert len(set(pairs.values())) == 1

        ref = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="cutoff", particles=PhantomSet(n, 1), c=1, rcut=0.25,
                          box_length=1.0, periodic=False))
        ref_pairs = {r.col: r.npairs for r in ref.run.results}
        assert len(set(ref_pairs.values())) > 1

    def test_periodic_shift_has_no_imbalance_stalls(self):
        """With uniform work, the cutoff shifts stop absorbing waits."""
        from repro.machines import GenericTorus

        m = GenericTorus(nranks=32, cores_per_node=4)
        per = run(RunSpec(machine=m, algorithm="cutoff",
                          particles=PhantomSet(4096, 1), c=2,
                          rcut=0.25, box_length=1.0, periodic=True))
        ref = run(RunSpec(machine=m, algorithm="cutoff",
                          particles=PhantomSet(4096, 1), c=2,
                          rcut=0.25, box_length=1.0, periodic=False))
        assert per.report.max_time("shift") < ref.report.max_time("shift")


class TestPeriodicSimulation:
    def test_matches_serial_trajectory(self):
        law = ForceLaw(k=1e-5, softening=5e-3)
        rcut, L, dt, steps = 0.3, 1.0, 2e-3, 5
        ps = ParticleSet.uniform_random(60, 2, L, max_speed=0.05, seed=34)

        serial = ps.copy()
        slaw = law.with_rcut(rcut).with_box(L)
        for _ in range(steps):
            f = reference_forces(slaw, serial)
            euler_step(serial.pos, serial.vel, f, dt)
            wrap_periodic(serial.pos, L)
        serial = serial.sorted_by_id()

        cfg = cutoff_config(8, 2, rcut=rcut, box_length=L, dim=2,
                            periodic=True)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=dt, nsteps=steps,
                                box_length=L, periodic=True)
        out = run_simulation(GenericMachine(nranks=8), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        assert np.abs(out.particles.pos - serial.pos).max() < 1e-10

    def test_periodicity_mismatch_rejected(self):
        law = ForceLaw()
        cfg = cutoff_config(8, 1, rcut=0.25, box_length=1.0, dim=1,
                            periodic=True)
        with pytest.raises(ValueError):
            SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=1,
                             box_length=1.0, periodic=False)

    def test_reassignment_wraps_at_walls(self):
        """A particle drifting past the wall re-assigns to the wrapped team."""
        law = ForceLaw(k=0.0)  # free streaming
        L = 1.0
        pos = np.array([[0.99], [0.5]])
        vel = np.array([[0.004], [0.0]])
        ps = ParticleSet(pos, vel, np.arange(2))
        cfg = cutoff_config(4, 1, rcut=0.3, box_length=L, dim=1,
                            periodic=True)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=1.0, nsteps=5,
                                box_length=L, periodic=True)
        out = run_simulation(GenericMachine(nranks=4), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        x = out.particles.pos[0, 0]
        assert 0.0 <= x < 0.25  # wrapped into the first region
