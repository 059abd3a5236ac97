"""Replication-aware recovery: killed ranks must not change the physics.

Each schedule kills exactly one rank inside the recoverable window (the
shift loop, before the failure-sync point).  The invariant under test is
the strongest one available: the recovered forces are **bitwise identical**
to the fault-free run — recovery replays the victim's updates in the same
order and folds the degraded reduction with the same associativity as the
fault-free tree, so not even the last ulp may move.

Rank roles at p=8, c=2 ("rows" layout, 4 teams): ranks 0-3 are team
leaders (row 0), ranks 4-7 are their replicas (row 1); rank 7 executes the
final shift of the ring schedule.
"""

import numpy as np
import pytest

from repro.core import (
    RunSpec,
    SimulationConfig,
    allpairs_config,
    run,
    run_simulation,
    team_blocks_even,
)
from repro.machines import GenericMachine
from repro.physics import ParticleSet, reference_forces
from repro.simmpi import DeadlockError, FaultSchedule, KillRank

from tests.conftest import assert_forces_close

pytestmark = pytest.mark.faults

_P, _C = 8, 2

#: (role, victim rank) — one per structural role in the step.
_ROLES = [
    ("leader", 2),          # row 0: owns its team's home block
    ("first-leader", 0),    # row 0, team 0: also the reduce root's team
    ("non-leader", 5),      # row 1: pure replica
    ("last-shifter", 7),    # row 1, last team: runs the final ring shift
]


def _kill(victim: int, after_ops: int = 6) -> FaultSchedule:
    return FaultSchedule(events=(KillRank(victim, after_ops=after_ops),))


class TestAllPairsRecovery:
    @pytest.mark.parametrize("role,victim", _ROLES)
    def test_single_death_is_bitwise_invisible(self, role, victim, law,
                                               particles_2d):
        machine = GenericMachine(nranks=_P)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=particles_2d, c=_C, law=law))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=particles_2d, c=_C, law=law,
                             faults=_kill(victim)))
        assert list(faulty.run.deaths) == [victim], \
            f"{role} kill schedule did not fire"
        assert np.array_equal(faulty.ids, clean.ids)
        assert np.array_equal(faulty.forces, clean.forces), \
            f"recovery after killing the {role} (rank {victim}) moved a bit"

    @pytest.mark.parametrize("victim", range(_P))
    def test_every_rank_recoverable_in_window(self, law, particles_2d,
                                              victim):
        machine = GenericMachine(nranks=_P)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=particles_2d, c=_C, law=law))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=particles_2d, c=_C, law=law,
                             faults=_kill(victim)))
        assert list(faulty.run.deaths) == [victim]
        assert np.array_equal(faulty.forces, clean.forces)

    def test_recovered_forces_match_reference(self, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=_P),
                          algorithm="allpairs", particles=particles_2d, c=_C,
                          law=law, faults=_kill(5)))
        assert_forces_close(out.forces, ref)

    def test_exactly_once_survives_a_death(self, law, particles_2d):
        from repro.physics import reference_pair_matrix

        n = len(particles_2d)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=GenericMachine(nranks=_P), algorithm="allpairs",
                    particles=particles_2d, c=_C, law=law,
                    pair_counter=counter, faults=_kill(5)))
        # Recovery recomputes lost updates, so surviving ranks' pair counts
        # stay exactly-once; the victim's own pre-death scans plus the
        # replay may double-count, but never *miss*, a pair.
        assert (counter >= reference_pair_matrix(law, particles_2d)).all()

    def test_kill_with_c1_rejected(self, law, particles_2d):
        with pytest.raises(ValueError):
            run(RunSpec(machine=GenericMachine(nranks=4), algorithm="allpairs",
                        particles=particles_2d, c=1, law=law, faults=_kill(1)))


class TestCutoffRecovery:
    def test_single_death_is_bitwise_invisible(self, law, particles_2d):
        machine = GenericMachine(nranks=_P)
        kw = dict(rcut=0.4, box_length=1.0, dim=1, law=law)
        clean = run(RunSpec(machine=machine, algorithm="cutoff",
                            particles=particles_2d, c=_C, **kw))
        faulty = run(RunSpec(machine=machine, algorithm="cutoff",
                             particles=particles_2d, c=_C, **kw,
                             faults=_kill(5)))
        assert list(faulty.run.deaths) == [5]
        assert np.array_equal(faulty.forces, clean.forces)
        assert_forces_close(faulty.forces,
                            reference_forces(law.with_rcut(0.4),
                                             particles_2d))


class TestDriverRecovery:
    def _scfg(self, law, nsteps=3):
        return SimulationConfig(cfg=allpairs_config(_P, _C), law=law,
                                dt=1e-3, nsteps=nsteps, box_length=1.0)

    @pytest.mark.parametrize("victim,after_ops", [(6, 20), (2, 20), (1, 20)])
    def test_multistep_death_is_bitwise_invisible(self, law, victim,
                                                  after_ops):
        ps = ParticleSet.uniform_random(64, 2, 1.0, max_speed=0.05, seed=9)
        blocks = team_blocks_even(ps, _P // _C)
        machine = GenericMachine(nranks=_P)
        scfg = self._scfg(law)
        clean = run_simulation(machine, scfg, blocks)
        sched = FaultSchedule(events=(KillRank(victim, after_ops=after_ops),))
        faulty = run_simulation(machine, scfg, blocks, faults=sched)
        assert list(faulty.run.deaths) == [victim]
        assert np.array_equal(faulty.particles.pos, clean.particles.pos)
        assert np.array_equal(faulty.particles.vel, clean.particles.vel)
        assert np.array_equal(faulty.forces, clean.forces)

    def test_dead_rank_replayed_every_remaining_step(self, law):
        ps = ParticleSet.uniform_random(64, 2, 1.0, max_speed=0.05, seed=9)
        blocks = team_blocks_even(ps, _P // _C)
        scfg = self._scfg(law, nsteps=3)
        sched = FaultSchedule(events=(KillRank(6, after_ops=5),))
        res = run_simulation(GenericMachine(nranks=_P), scfg, blocks,
                             faults=sched)
        # Death in step 1 -> the victim's work is replayed in all 3 steps.
        assert len(res.recovered) == 3
        assert all(ev.rank == 6 for ev in res.recovered)
        assert all(ev.replayed_updates > 0 for ev in res.recovered)
        assert all(ev.recovered_by != 6 for ev in res.recovered)

    def test_verlet_with_faults_rejected(self, law):
        ps = ParticleSet.uniform_random(32, 2, 1.0, seed=1)
        blocks = team_blocks_even(ps, _P // _C)
        scfg = SimulationConfig(cfg=allpairs_config(_P, _C), law=law,
                                dt=1e-3, nsteps=2, box_length=1.0,
                                integrator="verlet")
        with pytest.raises(ValueError):
            run_simulation(GenericMachine(nranks=_P), scfg, blocks,
                           faults=_kill(5))

    def test_sampling_with_faults_rejected(self, law):
        ps = ParticleSet.uniform_random(32, 2, 1.0, seed=1)
        blocks = team_blocks_even(ps, _P // _C)
        with pytest.raises(ValueError):
            run_simulation(GenericMachine(nranks=_P), self._scfg(law),
                           blocks, faults=_kill(5), sample_every=1)


class TestInterleavedHoleRebuild:
    """Regression: at p=16 the tombstone bubble interleaves with live
    buffers, leaving mid-schedule holes (e.g. holes=[2] of updates
    [0,1,2,3]).  Appending the missed update would permute the float
    summation by one ulp; recovery must rebuild such slots in full
    schedule order instead.  Found by the chaos soak harness
    (seed=0, trial 2)."""

    def test_early_death_at_p16_is_bitwise_invisible(self, law):
        ps = ParticleSet.uniform_random(53, 1, 1.0, max_speed=0.05, seed=7)
        machine = GenericMachine(nranks=16)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=ps, c=2, law=law))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=ps, c=2, law=law,
                             faults=_kill(10, after_ops=2)))
        assert list(faulty.run.deaths) == [10]
        assert np.array_equal(faulty.forces, clean.forces), \
            "interleaved-hole replay permuted a float summation"

    @pytest.mark.parametrize("victim,after_ops", [(8, 2), (12, 6), (15, 2)])
    def test_other_early_victims(self, law, victim, after_ops):
        ps = ParticleSet.uniform_random(53, 1, 1.0, max_speed=0.05, seed=7)
        machine = GenericMachine(nranks=16)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=ps, c=2, law=law))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=ps, c=2, law=law,
                             faults=_kill(victim, after_ops=after_ops)))
        assert list(faulty.run.deaths) == [victim]
        assert np.array_equal(faulty.forces, clean.forces)

    @pytest.mark.parametrize("schedule", ["random:1", "random:2", "random:3",
                                          "random:4", "random:5",
                                          "adversarial"])
    def test_one_ulp_clean_under_perturbed_schedules(self, law, schedule):
        """The hole-rebuild must stay exact whatever interleaving produced
        the holes: the perturbed scheduler shifts which updates are already
        buffered when the victim dies, so the rebuild sees *different*
        mid-schedule hole patterns — and must still replay in full schedule
        order, never by appending."""
        ps = ParticleSet.uniform_random(53, 1, 1.0, max_speed=0.05, seed=7)
        machine = GenericMachine(nranks=16)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=ps, c=2, law=law))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=ps, c=2, law=law,
                             faults=_kill(10, after_ops=2),
                             engine_opts={"schedule": schedule}))
        assert list(faulty.run.deaths) == [10]
        assert np.array_equal(faulty.forces, clean.forces), \
            (f"interleaved-hole replay permuted a float summation under "
             f"schedule {schedule!r}")


class TestCutoffDriverRecovery:
    """Multi-step spatial-cutoff runs with kills: the c-fold replication
    absorbs the death and the trajectory must not move a bit."""

    def _sim(self, law, nsteps=3):
        from repro.core import cutoff_config, team_blocks_spatial

        ps = ParticleSet.uniform_random(64, 2, 1.0, max_speed=0.05, seed=9)
        cfg = cutoff_config(_P, _C, rcut=0.4, box_length=1.0, dim=2)
        blocks = team_blocks_spatial(ps, cfg.geometry)
        scfg = SimulationConfig(cfg=cfg, law=law, dt=5e-4, nsteps=nsteps,
                                box_length=1.0)
        return GenericMachine(nranks=_P), scfg, blocks

    @pytest.mark.parametrize("role,victim", [("leader", 2),
                                             ("first-leader", 0),
                                             ("replica", 5),
                                             ("last-replica", 7)])
    def test_single_death_is_bitwise_invisible(self, law, role, victim):
        machine, scfg, blocks = self._sim(law)
        clean = run_simulation(machine, scfg, blocks)
        faulty = run_simulation(machine, scfg, blocks,
                                faults=_kill(victim, after_ops=40))
        assert list(faulty.run.deaths) == [victim], \
            f"{role} kill schedule did not fire"
        assert np.array_equal(faulty.particles.pos, clean.particles.pos)
        assert np.array_equal(faulty.particles.vel, clean.particles.vel)
        assert np.array_equal(faulty.forces, clean.forces), \
            f"cutoff recovery after killing the {role} (rank {victim}) " \
            "moved a bit"

    def test_multi_team_deaths_recovered(self, law):
        machine, scfg, blocks = self._sim(law)
        clean = run_simulation(machine, scfg, blocks)
        sched = FaultSchedule(events=(KillRank(4, after_ops=40),
                                      KillRank(6, after_ops=35)))
        faulty = run_simulation(machine, scfg, blocks, faults=sched)
        assert sorted(faulty.run.deaths) == [4, 6]
        assert np.array_equal(faulty.forces, clean.forces)

    def test_whole_team_kill_rejected_upfront(self, law):
        # Ranks 1 and 5 are rows 0 and 1 of the same team: killing both
        # leaves no survivor, and the grid-aware precheck refuses the
        # schedule before any rank runs.
        machine, scfg, blocks = self._sim(law)
        sched = FaultSchedule(events=(KillRank(1, after_ops=10),
                                      KillRank(5, after_ops=20)))
        with pytest.raises(ValueError, match="every member of team"):
            run_simulation(machine, scfg, blocks, faults=sched)

    def test_partial_team_overlap_allowed(self, law):
        # Two kills in *different* teams pass the same precheck.
        from repro.core.ca_step import check_fault_replication

        machine, scfg, _ = self._sim(law)
        sched = FaultSchedule(events=(KillRank(1, after_ops=10),
                                      KillRank(6, after_ops=20)))
        check_fault_replication(sched, _C, grid=scfg.cfg.grid)


class TestDeadlockReporting:
    def test_blocked_names_every_hung_rank(self):
        from repro.simmpi import Engine

        def program(comm):
            if comm.rank == 0:
                return "done"
            # 1 <- 2 <- 3 <- 0, but rank 0 never sends: all three hang.
            got = yield from comm.recv((comm.rank + 1) % comm.size)
            return got

        with pytest.raises(DeadlockError) as ei:
            Engine(GenericMachine(nranks=4)).run(program)
        assert set(ei.value.blocked) == {1, 2, 3}
        for rank, why in ei.value.blocked.items():
            assert "recv" in why
            assert f"peer={(rank + 1) % 4}" in why
