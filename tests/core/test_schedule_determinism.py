"""Bitwise-determinism locks under perturbed schedules, registry-wide.

Every registered algorithm, and the CA algorithms again over a phantom
workload (``schedfuzz.PHANTOM_UNITS``), runs once under FIFO
and once under each of five perturbed scheduler policies; every observable
— forces and particle ids (bitwise), the makespan, every rank's final
clock, and every per-rank per-phase time/traffic total — must be
identical.  The matrix is parametrized off the registry itself
(like ``tests/core/test_registry.py``), so a newly registered algorithm
is locked for free.

These are the in-suite locks; ``python -m repro schedfuzz`` explores the
same contract at campaign scale (100+ schedules per algorithm).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunSpec, get_algorithm, list_algorithms, run
from repro.experiments.schedfuzz import PHANTOM_UNITS
from repro.machines import GenericMachine
from repro.physics import PhantomSet

#: Five derived seeds plus the deterministic anti-FIFO policy: the same
#: spread of interleavings the fuzzer explores, small enough for tier 1.
SCHEDULES = ["random:1", "random:2", "random:3", "random:4", "random:5",
             "adversarial"]

_P, _N, _C, _RCUT, _SEED = 16, 64, 2, 0.3, 0


UNITS = sorted([*list_algorithms(), *PHANTOM_UNITS])


def _spec(unit: str, schedule=None) -> RunSpec:
    name, phantom_dim = PHANTOM_UNITS.get(unit, (unit, None))
    alg = get_algorithm(name)
    return RunSpec(
        machine=GenericMachine(nranks=_P), algorithm=name, n=_N,
        particles=None if phantom_dim is None else PhantomSet(_N, phantom_dim),
        c=_C if alg.supports_c else 1,
        rcut=_RCUT if alg.needs_rcut else None,
        seed=_SEED, schedule=schedule,
    )


def _signature(out):
    phases = {
        (tr.rank, label): (tot.seconds, tot.messages_sent,
                           tot.messages_received, tot.bytes_sent,
                           tot.bytes_received, tot.retries, tot.redelivered)
        for tr in out.run.report.traces
        for label, tot in tr.phases.items()
    }
    forces = None if out.forces is None else \
        (out.forces.tobytes(), out.ids.tobytes())
    return (forces, out.run.elapsed, tuple(out.run.clocks), phases)


@pytest.fixture(scope="module")
def fifo_baselines():
    """One FIFO run per algorithm, shared by every schedule case."""
    return {name: _signature(run(_spec(name))) for name in UNITS}


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("name", UNITS)
def test_bitwise_identical_under_perturbed_schedule(name, schedule,
                                                    fifo_baselines):
    got = run(_spec(name, schedule=schedule))
    want = fifo_baselines[name]
    sig = _signature(got)
    if got.forces is not None:
        assert sig[0] == want[0], \
            f"{name}: forces/ids diverged under schedule {schedule!r}"
        a = np.frombuffer(sig[0][0], dtype=np.float64)
        assert np.isfinite(a).all()
    assert sig[1] == want[1], \
        f"{name}: makespan diverged under schedule {schedule!r}"
    assert sig[2] == want[2], \
        f"{name}: rank clocks diverged under schedule {schedule!r}"
    assert sig[3] == want[3], \
        f"{name}: phase totals diverged under schedule {schedule!r}"
