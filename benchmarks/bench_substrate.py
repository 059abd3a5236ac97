"""Microbenchmarks of the substrate itself (wall-clock performance).

These time the *host* execution of the simulated-MPI engine, the force
kernel and the analytic model — the quantities that determine how large a
virtual machine this reproduction can turn around.  They use real repeated
measurement (not ``pedantic``), since they are genuine performance tests.
"""

import numpy as np
import pytest

from repro.machines import GenericTorus, Hopper
from repro.model import allpairs_breakdown, cutoff_breakdown
from repro.physics import ForceLaw, PhantomSet, pairwise_forces
from repro.simmpi import Engine


@pytest.mark.benchmark(group="substrate")
def test_engine_ring_throughput(benchmark):
    """Message throughput of the event engine (p=64, 64 ring steps)."""
    machine = GenericTorus(nranks=64, cores_per_node=4)

    def program(comm):
        x = comm.rank
        for _ in range(64):
            x = yield from comm.sendrecv(
                (comm.rank + 1) % comm.size, x, (comm.rank - 1) % comm.size
            )
        return x

    def run():
        return Engine(machine).run(program)

    result = benchmark(run)
    assert result.results[0] == 0


@pytest.mark.benchmark(group="substrate")
def test_engine_allreduce_throughput(benchmark):
    machine = GenericTorus(nranks=256, cores_per_node=4)

    def program(comm):
        v = yield from comm.allreduce(comm.rank, lambda a, b: a + b)
        return v

    result = benchmark(lambda: Engine(machine).run(program))
    assert result.results[0] == 256 * 255 // 2


@pytest.mark.benchmark(group="substrate")
def test_engine_thousand_rank_ca_step(benchmark):
    """A full CA interaction step on 1,024 simulated ranks (c=8):
    demonstrates the engine's headroom for mid-scale exact simulation."""
    from repro.core import RunSpec, run

    machine = GenericTorus(nranks=1024, cores_per_node=4)

    def measure():
        return run(RunSpec(machine=machine, algorithm="allpairs",
                           particles=PhantomSet(16384), c=8))

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert sum(r.npairs for r in result.run.results) == 16384 * 16384


@pytest.mark.benchmark(group="substrate")
def test_force_kernel_throughput(benchmark):
    """Vectorized pair kernel: 512x512 candidate pairs."""
    law = ForceLaw()
    rng = np.random.default_rng(0)
    t = rng.random((512, 2))
    s = rng.random((512, 2))

    def run():
        out, npairs = pairwise_forces(law, t, s)
        return npairs

    assert benchmark(run) == 512 * 512


@pytest.mark.benchmark(group="substrate")
def test_analytic_model_paper_scale(benchmark):
    """One paper-scale breakdown (Hopper, 24,576 cores) per call."""
    machine = Hopper(24576)

    def run():
        return allpairs_breakdown(machine, 196608, 16)

    b = benchmark(run)
    assert b.total > 0


@pytest.mark.benchmark(group="substrate")
def test_analytic_cutoff_model_paper_scale(benchmark):
    machine = Hopper(24576)

    def run():
        return cutoff_breakdown(machine, 196608, 4, rcut=0.25,
                                box_length=1.0, dim=2)

    b = benchmark(run)
    assert b.total > 0
