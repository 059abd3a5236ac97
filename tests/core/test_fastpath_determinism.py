"""Determinism lock: the fast paths are bit-for-bit the reference paths.

The engine's dispatch-table scheduler loop (``fast_path=True``) and the
kernel's pooled scratch buffers (``scratch=True``) are pure host-side
optimizations.  This suite locks the contract that switching either off
changes *nothing observable*: forces are bitwise identical, the virtual
makespan is exactly equal, and every rank's per-phase virtual time
breakdown matches to the last bit.  Any divergence means an optimization
leaked into simulated semantics and is a bug, not noise.
"""

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.machines import GenericTorus
from repro.physics import ForceLaw, ParticleSet


def _phase_times(run):
    """{rank: {phase: seconds}} for the engine run's trace report."""
    return {
        t.rank: {label: pt.seconds for label, pt in t.phases.items()}
        for t in run.report.traces
    }


def _run(config: str, *, fast_path: bool, scratch: bool):
    machine = GenericTorus(nranks=16, cores_per_node=4)
    particles = ParticleSet.uniform_random(128, 2, 1.0, seed=3)
    if config == "allpairs":
        return run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=particles, c=4, law=ForceLaw(),
                           scratch=scratch,
                           engine_opts={"fast_path": fast_path}))
    return run(RunSpec(machine=machine, algorithm="cutoff",
                       particles=particles, c=2, rcut=0.3, box_length=1.0,
                       periodic=True, scratch=scratch,
                       engine_opts={"fast_path": fast_path}))


@pytest.mark.parametrize("config", ["allpairs", "cutoff"])
class TestFastPathDeterminism:
    def test_engine_fast_path_is_bitwise_identical(self, config):
        fast = _run(config, fast_path=True, scratch=True)
        slow = _run(config, fast_path=False, scratch=True)
        assert np.array_equal(fast.ids, slow.ids)
        assert np.array_equal(fast.forces, slow.forces)  # bitwise
        assert fast.run.elapsed == slow.run.elapsed  # exact, not approx
        assert _phase_times(fast.run) == _phase_times(slow.run)

    def test_kernel_scratch_path_is_bitwise_identical(self, config):
        pooled = _run(config, fast_path=True, scratch=True)
        alloc = _run(config, fast_path=True, scratch=False)
        assert np.array_equal(pooled.forces, alloc.forces)  # bitwise
        assert pooled.run.elapsed == alloc.run.elapsed
        assert _phase_times(pooled.run) == _phase_times(alloc.run)

    def test_everything_off_matches_everything_on(self, config):
        on = _run(config, fast_path=True, scratch=True)
        off = _run(config, fast_path=False, scratch=False)
        assert np.array_equal(on.forces, off.forces)
        assert on.run.elapsed == off.run.elapsed
        assert _phase_times(on.run) == _phase_times(off.run)
