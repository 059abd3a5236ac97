"""Analytic model of the symmetric all-pairs variant."""

import pytest

from repro.core import RunSpec, run
from repro.machines import GenericTorus, Hopper
from repro.model import allpairs_breakdown, symmetric_breakdown
from repro.physics import PhantomSet


@pytest.fixture(scope="module")
def machine():
    return GenericTorus(nranks=64, cores_per_node=4, alpha=2e-6, beta=5e-10,
                        pair_time=5e-8)


class TestConsistency:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_compute_exact(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="symmetric",
                          particles=PhantomSet(8192), c=c))
        model = symmetric_breakdown(machine, 8192, c)
        assert model.get("compute") == pytest.approx(
            sim.report.max_time("compute"), rel=0.01
        )

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_makespan_within_tolerance(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="symmetric",
                          particles=PhantomSet(8192), c=c))
        model = symmetric_breakdown(machine, 8192, c)
        assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.25)

    def test_return_phase_modeled(self, machine):
        model = symmetric_breakdown(machine, 8192, 2)
        assert model.get("return") > 0


class TestPaperScaleWhatIf:
    def test_symmetry_roughly_halves_the_step(self):
        """The extension experiment: Figure 2b's workload with symmetry."""
        m = Hopper(24576)
        std = allpairs_breakdown(m, 196608, 16)
        sym = symmetric_breakdown(m, 196608, 16)
        assert sym.get("compute") == pytest.approx(std.get("compute") / 2,
                                                   rel=0.05)
        assert sym.total < 0.6 * std.total

    def test_optimum_c_unchanged(self):
        m = Hopper(24576)
        totals = {c: symmetric_breakdown(m, 196608, c).total
                  for c in (1, 4, 16, 64)}
        assert min(totals, key=totals.get) == 16

    def test_comm_becomes_relatively_more_important(self):
        """Halving compute raises the communication *fraction* — symmetry
        makes communication avoidance more valuable, not less."""
        m = Hopper(24576)
        std = allpairs_breakdown(m, 196608, 1)
        sym = symmetric_breakdown(m, 196608, 1)
        assert (sym.communication / sym.total
                > std.communication / std.total)
