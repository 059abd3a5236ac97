"""End-to-end runs through the public API only."""

import numpy as np
import pytest

from repro.core import (
    RunSpec,
    SimulationConfig,
    allpairs_config,
    autotune_c,
    cutoff_config,
    run,
    run_simulation,
    team_blocks_even,
    team_blocks_spatial,
)
from repro.machines import GenericTorus, Hopper, Intrepid
from repro.physics import (
    ForceLaw,
    ParticleSet,
    kinetic_energy,
    potential_energy,
    reference_forces,
)

from tests.conftest import assert_forces_close


class TestQuickstartFlow:
    """The README quickstart, as a test."""

    def test_forces_and_report(self):
        particles = ParticleSet.uniform_random(256, 2, 1.0, seed=0)
        machine = GenericTorus(nranks=16, cores_per_node=4)
        out = run(RunSpec(machine=machine, algorithm="allpairs",
                          particles=particles, c=4))
        assert out.forces.shape == (256, 2)
        ref = reference_forces(ForceLaw(), particles)
        assert_forces_close(out.forces, ref)
        text = out.report.summary()
        for phase in ("bcast", "shift", "compute", "reduce"):
            assert phase in text


class TestMDWorkflow:
    def test_small_md_run_conserves_energy(self):
        """A short MD simulation with cutoff, reassignment and reflective
        walls stays physical."""
        law = ForceLaw(k=1e-5, softening=5e-3)
        particles = ParticleSet.uniform_random(128, 2, 1.0, max_speed=0.02,
                                               seed=3)
        cfg = cutoff_config(16, 2, rcut=0.3, box_length=1.0, dim=2)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=10,
                                box_length=1.0)
        blocks = team_blocks_spatial(particles, cfg.geometry)

        e0 = kinetic_energy(particles.vel) + potential_energy(
            law.with_rcut(0.3), particles.pos
        )
        out = run_simulation(GenericTorus(nranks=16, cores_per_node=4), scfg,
                             blocks)
        final = out.particles
        e1 = kinetic_energy(final.vel) + potential_energy(
            law.with_rcut(0.3), final.pos
        )
        assert abs(e1 - e0) / max(abs(e0), 1e-12) < 0.05
        assert (final.pos >= 0).all() and (final.pos <= 1).all()

    def test_allpairs_md_on_hopper_model(self):
        law = ForceLaw(k=1e-5)
        particles = ParticleSet.uniform_random(96, 2, 1.0, max_speed=0.05,
                                               seed=4)
        cfg = allpairs_config(48, 4)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=1e-3, nsteps=3,
                                box_length=1.0)
        out = run_simulation(Hopper(48, cores_per_node=12), scfg,
                             team_blocks_even(particles, cfg.grid.nteams))
        assert len(out.particles) == 96
        assert out.run.elapsed > 0


class TestTuningWorkflow:
    def test_autotune_then_run(self):
        machine = GenericTorus(nranks=32, cores_per_node=4, alpha=2e-5,
                               pair_time=2e-9)
        tuned = autotune_c(machine, 2048)
        particles = ParticleSet.uniform_random(128, 2, 1.0, seed=5)
        out = run(RunSpec(machine=machine, algorithm="allpairs",
                          particles=particles, c=tuned.best_c))
        ref = reference_forces(ForceLaw(), particles)
        assert_forces_close(out.forces, ref)


class TestCrossMachineConsistency:
    def test_same_physics_on_all_machines(self):
        """Forces are machine-independent; only timings change."""
        law = ForceLaw()
        ps = ParticleSet.uniform_random(64, 2, 1.0, seed=6)
        outs = [
            run(RunSpec(machine=m, algorithm="allpairs", particles=ps, c=2,
                        law=law))
            for m in (
                GenericTorus(nranks=8, cores_per_node=2),
                Hopper(8, cores_per_node=2),
                Intrepid(8, cores_per_node=2),
            )
        ]
        for out in outs[1:]:
            assert np.allclose(out.forces, outs[0].forces)
        times = [out.run.elapsed for out in outs]
        assert len(set(times)) > 1  # machines do differ in time

    def test_cutoff_same_physics_across_c_and_dims(self):
        law = ForceLaw()
        ps = ParticleSet.uniform_random(80, 2, 1.0, seed=7)
        ref = reference_forces(law.with_rcut(0.3), ps)
        for c, team_dims in [(1, (8,)), (2, (2, 2)), (4, (2,))]:
            out = run(RunSpec(machine=GenericTorus(nranks=8, cores_per_node=2),
                              algorithm="cutoff", particles=ps, c=c, rcut=0.3,
                              box_length=1.0, law=law, team_dims=team_dims,
                              dim=len(team_dims)))
            assert_forces_close(out.forces, ref)
