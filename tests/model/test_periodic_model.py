"""Analytic model of the periodic-box cutoff variant."""

import pytest

from repro.core import RunSpec, run
from repro.machines import GenericTorus, Hopper
from repro.model import cutoff_breakdown
from repro.physics import PhantomSet


@pytest.fixture(scope="module")
def machine():
    return GenericTorus(nranks=64, cores_per_node=4, alpha=2e-6, beta=5e-10,
                        pair_time=5e-8)


class TestConsistency:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_compute_exact(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, 1),
                          c=c, rcut=0.25, box_length=1.0,
                          periodic=True))
        mod = cutoff_breakdown(machine, 8192, c, rcut=0.25, box_length=1.0,
                               dim=1, include_reassign=False, periodic=True)
        assert mod.get("compute") == pytest.approx(
            sim.report.max_time("compute"), rel=0.01
        )

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_makespan(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, 1),
                          c=c, rcut=0.25, box_length=1.0,
                          periodic=True))
        mod = cutoff_breakdown(machine, 8192, c, rcut=0.25, box_length=1.0,
                               dim=1, include_reassign=False, periodic=True)
        assert mod.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.05)

    def test_shift_exact_at_c1(self, machine):
        """Uniform work: the gate model is exact, not just close."""
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, 1),
                          c=1, rcut=0.25, box_length=1.0,
                          periodic=True))
        mod = cutoff_breakdown(machine, 8192, 1, rcut=0.25, box_length=1.0,
                               dim=1, include_reassign=False, periodic=True)
        assert mod.get("shift") == pytest.approx(
            sim.report.max_time("shift"), rel=1e-9
        )


class TestPaperScaleEffect:
    def test_stall_floor_vanishes(self):
        """The paper blames its shift-cost stagnation on the boundary; with
        a periodic box the stall floor disappears and shifts fall toward
        zero with c, like the all-pairs runs."""
        m = Hopper(24576)
        for c in (16, 64):
            refl = cutoff_breakdown(m, 196608, c, rcut=0.25, box_length=1.0,
                                    dim=1)
            per = cutoff_breakdown(m, 196608, c, rcut=0.25, box_length=1.0,
                                   dim=1, periodic=True)
            assert per.get("shift") < refl.get("shift") / 5
            assert per.total < refl.total

    def test_periodic_computes_more_but_balanced(self):
        """Every team gets the full window: more total pairs, zero spread."""
        m = Hopper(96, cores_per_node=12)
        refl = cutoff_breakdown(m, 9216, 1, rcut=0.25, box_length=1.0, dim=1)
        per = cutoff_breakdown(m, 9216, 1, rcut=0.25, box_length=1.0, dim=1,
                               periodic=True)
        assert per.get("compute") >= refl.get("compute")
        # All stall terms vanish under uniformity.
        assert per.get("shift") < refl.get("shift")
