"""Analytic model vs. exact event simulation — the cross-validation that
justifies using the model at the paper's 24K/32K-core scales."""

import pytest

from repro.core import RunSpec, run
from repro.machines import GenericTorus, Hopper, Intrepid
from repro.model import (
    allgather_baseline_breakdown,
    allpairs_breakdown,
    cutoff_breakdown,
)
from repro.physics import PhantomSet


@pytest.fixture(scope="module")
def machine():
    return GenericTorus(nranks=64, cores_per_node=4, alpha=2e-6, beta=5e-10,
                        pair_time=5e-8)


class TestAllPairsConsistency:
    """Uniform work: the model must match the simulator essentially exactly."""

    @pytest.mark.parametrize("c", [1, 2, 4, 8])
    def test_phases_match(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="allpairs",
                          particles=PhantomSet(8192), c=c))
        model = allpairs_breakdown(machine, 8192, c)
        for phase in ("bcast", "shift", "compute", "reduce"):
            s = sim.report.max_time(phase)
            m = model.get(phase)
            assert m == pytest.approx(s, rel=0.02, abs=1e-7), phase

    @pytest.mark.parametrize("c", [1, 2, 4, 8])
    def test_makespan_matches(self, machine, c):
        sim = run(RunSpec(machine=machine, algorithm="allpairs",
                          particles=PhantomSet(8192), c=c))
        model = allpairs_breakdown(machine, 8192, c)
        assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.02)

    def test_different_n(self, machine):
        for n in (1024, 4096):
            sim = run(RunSpec(machine=machine, algorithm="allpairs",
                              particles=PhantomSet(n), c=4))
            model = allpairs_breakdown(machine, n, 4)
            assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.05)

    def test_hopper_flavor_machine(self):
        m = Hopper(48, cores_per_node=12)
        sim = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(4096),
                          c=4))
        model = allpairs_breakdown(m, 4096, 4)
        assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.1)


class TestCutoffConsistency:
    """Boundary imbalance makes per-phase attribution fuzzier (waits land
    on different ranks), but compute must be exact and the makespan within
    a few percent."""

    @pytest.mark.parametrize("dim,rcut", [(1, 0.25), (2, 0.2)])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_compute_exact(self, machine, dim, rcut, c):
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, dim),
                          c=c, rcut=rcut, box_length=1.0))
        model = cutoff_breakdown(machine, 8192, c, rcut=rcut, box_length=1.0,
                                 dim=dim, include_reassign=False)
        assert model.get("compute") == pytest.approx(
            sim.report.max_time("compute"), rel=0.02
        )

    @pytest.mark.parametrize("dim,rcut", [(1, 0.25), (2, 0.2)])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_shift_and_bcast_match(self, machine, dim, rcut, c):
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, dim),
                          c=c, rcut=rcut, box_length=1.0))
        model = cutoff_breakdown(machine, 8192, c, rcut=rcut, box_length=1.0,
                                 dim=dim, include_reassign=False)
        assert model.get("bcast") == pytest.approx(
            sim.report.max_time("bcast"), rel=0.05, abs=1e-7
        )
        # The stall estimate is coarse on tiny grids (row-granularity
        # effects); at paper scale windows are hundreds of cells wide.
        assert model.get("shift") == pytest.approx(
            sim.report.max_time("shift"), rel=0.45, abs=1e-6
        )

    @pytest.mark.parametrize("dim,rcut,c", [(1, 0.25, 1), (1, 0.25, 2),
                                            (1, 0.25, 4), (1, 0.25, 8),
                                            (2, 0.2, 1), (2, 0.2, 2),
                                            (2, 0.2, 4), (2, 0.2, 8)])
    def test_makespan_within_tolerance(self, machine, dim, rcut, c):
        sim = run(RunSpec(machine=machine, algorithm="cutoff",
                          particles=PhantomSet(8192, dim),
                          c=c, rcut=rcut, box_length=1.0))
        model = cutoff_breakdown(machine, 8192, c, rcut=rcut, box_length=1.0,
                                 dim=dim, include_reassign=False)
        assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.05)


class TestModelStructure:
    def test_paper_scale_runs_fast(self):
        """The whole point: paper-scale estimates in well under a second."""
        import time

        m = Hopper(24576)
        t0 = time.time()
        b = allpairs_breakdown(m, 196608, 16)
        assert time.time() - t0 < 5.0
        assert b.total > 0
        assert set(b.phases) == {"bcast", "shift", "compute", "reduce"}

    def test_meta_fields(self):
        b = allpairs_breakdown(Hopper(96, cores_per_node=12), 4096, 4)
        for key in ("algorithm", "p", "n", "c", "teams", "steps", "makespan"):
            assert key in b.meta

    def test_cutoff_includes_reassign_by_default(self):
        b = cutoff_breakdown(Hopper(96, cores_per_node=12), 4096, 4,
                             rcut=0.25, box_length=1.0, dim=1)
        assert "reassign" in b.phases
        assert b.phases["reassign"] > 0

    def test_cutoff_window_meta(self):
        b = cutoff_breakdown(Hopper(96, cores_per_node=12), 4096, 2,
                             rcut=0.25, box_length=1.0, dim=1)
        assert b.meta["window"] >= 2 * b.meta["m"][0] + 1

    def test_allgather_baseline_tree_needs_hw(self):
        with pytest.raises(ValueError):
            allgather_baseline_breakdown(Hopper(96, cores_per_node=12),
                                         4096, use_tree=True)

    def test_allgather_baseline_tree_vs_soft(self):
        m = Intrepid(64, cores_per_node=4)
        tree = allgather_baseline_breakdown(m, 4096, use_tree=True)
        soft = allgather_baseline_breakdown(
            Intrepid(64, cores_per_node=4, tree=False), 4096, use_tree=False
        )
        assert tree.get("allgather") < soft.get("allgather")
        assert tree.get("compute") == soft.get("compute")

    def test_collective_contention_scales_collectives(self):
        import dataclasses

        base = Hopper(96, cores_per_node=12)
        hot = dataclasses.replace(base, collective_contention=0.5)
        b0 = allpairs_breakdown(base, 4096, 8)
        b1 = allpairs_breakdown(hot, 4096, 8)
        # base machine has cc=0.04; scaling is (1+0.5*7)/(1+0.04*7).
        expect = (1 + 0.5 * 7) / (1 + 0.04 * 7)
        assert b1.get("bcast") / b0.get("bcast") == pytest.approx(expect)
        assert b1.get("shift") == b0.get("shift")
