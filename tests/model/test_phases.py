"""Phase-breakdown records."""

import pytest

from repro.model import COMM_PHASES, PhaseBreakdown


class TestPhaseBreakdown:
    def _pb(self):
        return PhaseBreakdown(
            phases={"bcast": 1.0, "shift": 2.0, "compute": 10.0, "reduce": 0.5},
            meta={"c": 4},
        )

    def test_totals(self):
        pb = self._pb()
        assert pb.total == pytest.approx(13.5)
        assert pb.communication == pytest.approx(3.5)
        assert pb.computation == pytest.approx(10.0)

    def test_comm_phase_registry(self):
        assert "shift" in COMM_PHASES
        assert "compute" not in COMM_PHASES

    def test_get_missing(self):
        assert self._pb().get("reassign") == 0.0

    def test_scaled(self):
        pb = self._pb().scaled(2.0)
        assert pb.total == pytest.approx(27.0)
        assert pb.meta == {"c": 4}

    def test_summary(self):
        text = self._pb().summary()
        assert "total=" in text and "shift=" in text

    def test_from_report(self):
        from repro.core import RunSpec, run
        from repro.machines import GenericMachine
        from repro.physics import PhantomSet

        res = run(RunSpec(machine=GenericMachine(nranks=8),
                          algorithm="allpairs", particles=PhantomSet(512), c=2))
        pb = PhaseBreakdown.from_report(res.report)
        assert pb.get("compute") == res.report.max_time("compute")
        assert pb.get("shift") == res.report.max_time("shift")

    def test_from_report_with_fixed_labels(self):
        from repro.core import RunSpec, run
        from repro.machines import GenericMachine
        from repro.physics import PhantomSet

        res = run(RunSpec(machine=GenericMachine(nranks=8),
                          algorithm="allpairs", particles=PhantomSet(512), c=1))
        pb = PhaseBreakdown.from_report(res.report, ("bcast", "shift"))
        assert set(pb.phases) == {"bcast", "shift"}
        assert pb.get("bcast") == 0.0
