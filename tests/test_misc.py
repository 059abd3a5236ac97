"""Assorted coverage: package metadata, size-1 edges, helper internals."""

import operator

import pytest

from repro.machines import GenericMachine, GenericTorus, Hopper, Intrepid
from repro.simmpi import Engine


class TestPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_py_typed_marker(self):
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        assert (root / "py.typed").exists()


class TestSizeOneEdges:
    def test_all_collectives_on_singleton(self):
        def program(comm):
            a = yield from comm.bcast("x", 0)
            b = yield from comm.reduce(1, operator.add, 0)
            c = yield from comm.allreduce(2, operator.add)
            d = yield from comm.gather(3, 0)
            e = yield from comm.scatter([4], 0)
            f = yield from comm.allgather(5)
            g = yield from comm.alltoall([6])
            yield from comm.barrier()
            return (a, b, c, d, e, f, g)

        res = Engine(GenericMachine(nranks=1)).run(program)
        assert res.results == [("x", 1, 2, [3], 4, [5], [6])]

    def test_wait_with_no_requests(self):
        def program(comm):
            out = yield from comm.wait()
            return out

        assert Engine(GenericMachine(nranks=1)).run(program).results == [[]]

    def test_single_rank_grid(self):
        from repro.core import RunSpec, run
        from repro.physics import ForceLaw, ParticleSet, reference_forces

        import numpy as np

        ps = ParticleSet.uniform_random(20, 2, 1.0, seed=0)
        out = run(RunSpec(machine=GenericMachine(nranks=1),
                          algorithm="allpairs", particles=ps, c=1))
        assert np.allclose(out.forces, reference_forces(ForceLaw(), ps),
                           atol=1e-18)


class TestCliHelpers:
    def test_small_cpn_divides(self):
        """The CLI's node-sizing rule, now ``repro.machines.node_cores``."""
        from repro.machines import node_cores

        for name in ("hopper", "intrepid", "torus"):
            for p in (7, 12, 24, 96, 100):
                assert p % node_cores(name, p) == 0
        assert node_cores("hopper", 48) == 24
        assert node_cores("hopper", 36) == 12
        assert node_cores("intrepid", 6) == 1

    def test_machine_factory(self):
        from repro.cli import _machine

        assert _machine("hopper", 48).name == "hopper"
        assert _machine("intrepid", 8).name == "intrepid"
        assert _machine("generic", 7).nranks == 7


class TestMachineDescriptions:
    @pytest.mark.parametrize("machine", [
        GenericMachine(nranks=4),
        GenericTorus(nranks=8, cores_per_node=2),
        Hopper(48, cores_per_node=12),
        Intrepid(8, cores_per_node=4),
    ], ids=lambda m: m.name)
    def test_describe_contains_key_facts(self, machine):
        text = machine.describe()
        assert machine.name in text
        assert str(machine.nranks) in text


class TestScheduleInternals:
    def test_holder_visitor_duality_cutoff(self):
        from repro.core import cutoff_schedule

        s = cutoff_schedule((6, 4), (1, 1), 2)
        for u in range(s.window):
            for team in range(24):
                col = s.holder_of(team, u)
                assert s.visitor_of(col, u) == team

    def test_positions_per_row_are_disjoint(self):
        from repro.core import half_ring_schedule

        s = half_ring_schedule(12, 3)
        all_pos = []
        for k in range(3):
            all_pos.extend(s.covered_positions(k))
        assert len(all_pos) == len(set(all_pos)) == s.window


class TestReportEdgeCases:
    def test_empty_trace_report(self):
        from repro.simmpi.tracing import TraceReport

        rep = TraceReport([])
        assert rep.max_time("x") == 0.0
        assert rep.mean_time("x") == 0.0
        assert rep.total_messages() == 0
        assert rep.critical_messages() == 0

    def test_render_scaling_handles_missing_points(self):
        from repro.experiments import FIG3, render_figure, run_figure

        text = render_figure(run_figure(FIG3["3a"]))
        assert "-" in text  # skipped (p, c) combinations render as dashes
