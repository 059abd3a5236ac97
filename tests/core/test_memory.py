"""Memory footprint vs Equation 4: M = O(c n / p).

The replication factor is *defined* as "the number of extra copies of the
particles that will fit in memory"; these tests check the implementation's
actual buffer residency matches the equation — the home block plus one
exchange buffer, each of cn/p particles.
"""

import pytest

from repro.core import RunSpec, run
from repro.machines import GenericMachine
from repro.machines.base import PARTICLE_BYTES
from repro.physics import PhantomSet
from repro.theory import memory_per_rank


class TestAllPairsMemory:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_matches_equation4(self, c):
        p, n = 32, 4096
        res = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=PhantomSet(n), c=c))
        measured = max(r.memory_bytes for r in res.run.results)
        # Home block + exchange buffer, each cn/p particles of 52 bytes.
        expected = 2 * memory_per_rank(n, p, c) * PARTICLE_BYTES
        assert measured == pytest.approx(expected, rel=0.01)

    def test_memory_grows_linearly_with_c(self):
        p, n = 32, 4096
        mem = {}
        for c in (1, 2, 4, 8):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="allpairs", particles=PhantomSet(n), c=c))
            mem[c] = max(r.memory_bytes for r in res.run.results)
        assert mem[2] == 2 * mem[1]
        assert mem[8] == 8 * mem[1]

    def test_memory_bandwidth_tradeoff(self):
        """The paper's core trade: paying c x memory buys ~c x less
        shifted bandwidth."""
        p, n = 32, 4096
        for c in (2, 4):
            run1 = run(RunSpec(machine=GenericMachine(nranks=p),
                               algorithm="allpairs", particles=PhantomSet(n), c=1))
            runc = run(RunSpec(machine=GenericMachine(nranks=p),
                               algorithm="allpairs", particles=PhantomSet(n), c=c))
            m1 = max(r.memory_bytes for r in run1.run.results)
            mc = max(r.memory_bytes for r in runc.run.results)
            w1 = run1.report.max_bytes("shift")
            wc = runc.report.max_bytes("shift")
            assert mc == pytest.approx(c * m1, rel=0.01)
            # W(c) = 52 (n/c + skew block of nc/p) exactly; strictly less
            # than the non-replicated volume, approaching n/c as p >> c^2.
            assert wc < w1
            assert wc == pytest.approx(
                PARTICLE_BYTES * (n / c + n * c / p), rel=0.01
            )


class TestCutoffMemory:
    def test_same_footprint_as_allpairs(self):
        """The cutoff algorithm needs the same M = cn/p (Equation 8)."""
        p, n = 32, 4096
        for c in (1, 2):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="cutoff", particles=PhantomSet(n, 1), c=c, rcut=0.25,
                              box_length=1.0))
            measured = max(r.memory_bytes for r in res.run.results)
            expected = 2 * memory_per_rank(n, p, c) * PARTICLE_BYTES
            assert measured == pytest.approx(expected, rel=0.05)

    def test_memory_reported_per_rank(self):
        res = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="cutoff", particles=PhantomSet(1024, 1), c=2, rcut=0.25,
                          box_length=1.0))
        assert all(r.memory_bytes > 0 for r in res.run.results)
