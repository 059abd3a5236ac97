"""Fault-injection benchmarks: what does replication-aware recovery cost?

Two questions, both as functions of the replication factor ``c``:

* **virtual overhead** — how much longer is the simulated makespan of a
  step that absorbs one rank death, relative to the fault-free step?  The
  recovery work (failure sync, hole-map ring, block re-fetch, ordered
  replay, degraded reduce) is charged to the ``recover`` trace phase, so
  the overhead is directly attributable.
* **host throughput** — how fast does the engine execute the faulty run
  (wall clock), i.e. what fault injection costs the reproduction itself.

Replication bounds data *loss*, not recompute time: a death early in the
step makes the acting leader replay the victim's whole update sequence
serially on top of its own, so the virtual overhead approaches 2x for a
single full-step death regardless of ``c``.  What ``c`` buys is the
*ability* to recover at all (every block has ``c`` live copies) and a
cheaper recovery transfer round (fewer, larger teams at high ``c``).
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core import RunSpec, run
from repro.machines import GenericTorus
from repro.physics import PhantomSet
from repro.simmpi import FaultSchedule, KillRank
from repro.simmpi.tracing import RECOVER_PHASE

#: One mid-shift death on a row-1 rank (exists for every c >= 2).
_N = 4096
_P = 16


def _kill_schedule(c: int) -> FaultSchedule:
    grid_cols = _P // c
    victim = grid_cols  # row 1, column 0 under the "rows" layout
    return FaultSchedule(events=(KillRank(victim, after_ops=6),))


@pytest.mark.benchmark(group="faults")
@pytest.mark.parametrize("c", [2, 4, 8])
def test_recovery_overhead_vs_c(benchmark, c):
    """Simulated cost of absorbing one rank death, per replication factor."""
    machine = GenericTorus(nranks=_P, cores_per_node=4)

    clean = run(RunSpec(machine=machine, algorithm="allpairs",
                        particles=PhantomSet(_N),
                        c=c))

    def measure():
        return run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=PhantomSet(_N),
                           c=c, faults=_kill_schedule(c)))

    faulty = benchmark.pedantic(measure, rounds=3, iterations=1)
    assert faulty.run.deaths, "the kill schedule must actually fire"

    overhead = faulty.elapsed / clean.elapsed - 1.0
    recover_s = faulty.report.max_time(RECOVER_PHASE)
    benchmark.extra_info["virtual_overhead_pct"] = round(100 * overhead, 2)
    benchmark.extra_info["recover_phase_ms"] = round(recover_s * 1e3, 4)
    emit(f"c={c}: clean {clean.elapsed * 1e3:.3f} ms -> faulty "
         f"{faulty.elapsed * 1e3:.3f} ms (+{100 * overhead:.1f}%), "
         f"max recover phase {recover_s * 1e3:.3f} ms")


@pytest.mark.benchmark(group="faults")
def test_fault_free_schedule_is_free(benchmark):
    """An attached-but-empty schedule must not change the virtual clocks."""
    machine = GenericTorus(nranks=_P, cores_per_node=4)
    baseline = run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=PhantomSet(_N),
                           c=4))

    def measure():
        return run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=PhantomSet(_N),
                           c=4, faults=FaultSchedule()))

    result = benchmark(measure)
    assert result.elapsed == baseline.elapsed
    assert np.isclose(result.elapsed, baseline.elapsed, rtol=0, atol=0)
    emit(f"empty schedule: elapsed {result.elapsed * 1e3:.3f} ms "
         f"(identical to no-schedule run)")
