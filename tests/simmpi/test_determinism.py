"""The simulated machine is a deterministic function of its inputs.

Running the same workload twice — clean or under an identical fault
schedule — must reproduce every observable exactly: per-rank virtual
clocks, makespan, per-phase seconds, message and byte counts, recorded
deaths.  Fault decisions are pure functions of ``(schedule, channel, op
index)``, never of host-side state, so injecting faults must not break
run-to-run reproducibility; and attaching an *empty* schedule must be
observationally identical to attaching none at all.
"""

import pytest

from repro.core import RunSpec, allpairs_config, run
from repro.machines import GenericTorus
from repro.physics import PhantomSet
from repro.simmpi import DropTransfer, FaultSchedule, KillRank

_P, _C, _N = 8, 2, 1024


def _fingerprint(out):
    """Every observable of a run, as a comparable value."""
    phases = {}
    for tr in out.report.traces:
        for label, tot in tr.phases.items():
            phases[(tr.rank, label)] = (
                tot.seconds, tot.messages_sent, tot.bytes_sent
            )
    return (
        tuple(out.run.clocks),
        out.elapsed,
        dict(out.run.deaths),
        out.report.total_messages(),
        out.report.total_bytes(),
        phases,
    )


def _faulty_schedule():
    return FaultSchedule(
        events=(KillRank(5, after_ops=6), DropTransfer(0, 1)), seed=3
    )


class TestCleanDeterminism:
    def test_allpairs_twice_identical(self):
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        a = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C))
        b = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C))
        assert _fingerprint(a) == _fingerprint(b)

    def test_cutoff_twice_identical(self):
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        kw = dict(rcut=0.3, box_length=1.0)
        a = run(RunSpec(machine=machine, algorithm="cutoff",
                        particles=PhantomSet(_N, 1),
                        c=_C, **kw))
        b = run(RunSpec(machine=machine, algorithm="cutoff",
                        particles=PhantomSet(_N, 1),
                        c=_C, **kw))
        assert _fingerprint(a) == _fingerprint(b)


@pytest.mark.faults
class TestFaultyDeterminism:
    def test_faulty_run_twice_identical(self):
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        a = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=_faulty_schedule()))
        b = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=_faulty_schedule()))
        assert a.run.deaths, "schedule must actually kill rank 5"
        assert _fingerprint(a) == _fingerprint(b)

    def test_schedule_object_reuse_identical(self):
        """One schedule object reused across runs leaks no state."""
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        sched = _faulty_schedule()
        a = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=sched))
        b = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=sched))
        assert _fingerprint(a) == _fingerprint(b)

    def test_faulty_cutoff_twice_identical(self):
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        sched = FaultSchedule(events=(KillRank(6, after_ops=5),))
        kw = dict(rcut=0.3, box_length=1.0)
        a = run(RunSpec(machine=machine, algorithm="cutoff",
                        particles=PhantomSet(_N, 1),
                        c=_C, faults=sched, **kw))
        b = run(RunSpec(machine=machine, algorithm="cutoff",
                        particles=PhantomSet(_N, 1),
                        c=_C, faults=sched, **kw))
        assert a.run.deaths
        assert _fingerprint(a) == _fingerprint(b)


@pytest.mark.faults
class TestEmptyScheduleTransparency:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_empty_schedule_costs_nothing(self, c):
        """An empty schedule must not slow the step down or add traffic.

        The resilient step does insert a failure-sync point (a barrier
        among survivors), which synchronizes early-finishing ranks and
        attributes their wait to the ``recover`` phase — but it sends no
        messages and never extends the makespan.
        """
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        bare = run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=PhantomSet(_N),
                           c=c))
        empty = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=PhantomSet(_N), c=c, faults=FaultSchedule()))
        assert empty.elapsed == bare.elapsed
        assert not empty.run.deaths
        assert empty.report.total_messages() == bare.report.total_messages()
        assert empty.report.total_bytes() == bare.report.total_bytes()
        # Per-rank total time is unchanged; only phase attribution moves.
        for te in empty.report.traces:
            assert te.total_seconds <= bare.elapsed + 1e-15

    def test_empty_schedule_identical_across_runs(self):
        machine = GenericTorus(nranks=_P, cores_per_node=4)
        a = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=FaultSchedule()))
        b = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=_C, faults=FaultSchedule()))
        assert _fingerprint(a) == _fingerprint(b)

    def test_fault_run_has_recover_phase_clean_run_does_not(self):
        from repro.simmpi.tracing import RECOVER_PHASE

        machine = GenericTorus(nranks=_P, cores_per_node=4)
        clean = run(RunSpec(machine=machine, algorithm="allpairs",
                            particles=PhantomSet(_N), c=_C))
        faulty = run(RunSpec(machine=machine, algorithm="allpairs",
                             particles=PhantomSet(_N), c=_C, faults=_faulty_schedule()))
        assert RECOVER_PHASE not in clean.report.phase_labels()
        assert faulty.report.max_time(RECOVER_PHASE) > 0
