"""Experiment harness: configs, drivers, renderers."""

import pytest

from repro.experiments import (
    FIG2,
    FIG3,
    FIG6,
    FIG7,
    PAPER_FIGURES,
    render_figure,
    run_figure,
    validate_figure,
)


class TestConfigs:
    def test_all_panels_present(self):
        assert set(PAPER_FIGURES) == {
            "2a", "2b", "2c", "2d", "3a", "3b",
            "6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d",
        }

    def test_paper_parameters(self):
        assert FIG2["2b"].machine_sizes == (24576,)
        assert FIG2["2b"].n == 196608
        assert FIG2["2d"].n == 262144
        assert FIG3["3a"].machine_sizes[-1] == 24576
        assert FIG7["7a"].machine_sizes[0] == 96

    def test_cutoff_quarter_box(self):
        assert FIG6["6a"].rcut == pytest.approx(0.25)

    def test_intrepid_panels_have_tree_baseline(self):
        assert FIG2["2c"].tree_baseline and FIG2["2d"].tree_baseline
        assert not FIG2["2a"].tree_baseline

    def test_machine_factories(self):
        assert FIG2["2a"].machine_factory(6144).nranks == 6144
        assert FIG2["2c"].machine_factory(8192).has_hw_collectives


class TestBreakdownFigures:
    @pytest.fixture(scope="class")
    def fig2a(self):
        return run_figure(FIG2["2a"])

    def test_series_labels(self, fig2a):
        assert list(fig2a.breakdowns) == [f"c={c}" for c in FIG2["2a"].cs]

    def test_communication_decreases(self, fig2a):
        comm = list(fig2a.comm_series().values())
        assert all(a >= b for a, b in zip(comm, comm[1:]))

    def test_compute_constant_across_c(self, fig2a):
        computes = [b.get("compute") for b in fig2a.breakdowns.values()]
        assert max(computes) <= 1.05 * min(computes)

    def test_render(self, fig2a):
        text = render_figure(fig2a)
        assert "Figure 2a" in text
        assert "c=32" in text
        assert "best total" in text

    def test_tree_baseline_rows(self):
        res = run_figure(FIG2["2c"])
        assert "c=1 (tree)" in res.breakdowns
        assert "c=1 (no-tree)" in res.breakdowns
        tree = res.breakdowns["c=1 (tree)"]
        nt = res.breakdowns["c=1 (no-tree)"]
        assert tree.get("allgather") < nt.get("allgather")


class TestCutoffFigures:
    @pytest.fixture(scope="class")
    def fig6a(self):
        return run_figure(FIG6["6a"])

    def test_reassign_present(self, fig6a):
        for b in fig6a.breakdowns.values():
            assert "reassign" in b.phases

    def test_largest_c_never_best(self, fig6a):
        labels = list(fig6a.breakdowns)
        assert fig6a.best_label() != labels[-1]

    def test_render(self, fig6a):
        text = render_figure(fig6a)
        assert "reassign(ms)" in text


class TestScalingFigures:
    def test_fig3a_series(self):
        res = run_figure(FIG3["3a"])
        assert res.efficiency
        text = render_figure(res)
        assert "relative efficiency" in text
        # c=1 efficiency collapses with machine size.
        series = dict(res.efficiency[1])
        assert series[24576] < series[1536]

    def test_fig7_series_smaller_figures(self):
        res = run_figure(FIG7["7c"])
        best_at_32k = max(
            dict(s).get(32768, 0.0) for s in res.efficiency.values()
        )
        c1_at_32k = dict(res.efficiency[1])[32768]
        assert best_at_32k > 1.4 * c1_at_32k

    def test_unknown_kind_rejected(self):
        import dataclasses

        cfg = dataclasses.replace(FIG3["3a"], kind="nonsense")
        with pytest.raises(ValueError):
            run_figure(cfg)

    def test_repeat_build_compares_no_more_schedules(self, monkeypatch):
        """A second build of the same panel in one process does no more
        ``ShiftSchedule`` equality walks than the first.  Each walk
        compares the whole offset tuple (O(p/c)), so a memo keyed on an
        equal-but-not-identical schedule once made the second
        ``run_figure(FIG3["3a"])`` ~40x slower than the first."""
        from repro.core.window import ShiftSchedule

        calls = []
        eq = ShiftSchedule.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(ShiftSchedule, "__eq__", counting_eq)
        counts = []
        for _ in range(2):
            calls.clear()
            run_figure(FIG3["3a"])
            counts.append(len(calls))
        assert counts[1] <= counts[0]


class TestValidation:
    def test_allpairs_validation_shape(self):
        res = validate_figure(FIG2["2a"], p=32, n=2048, cs=(1, 2, 4))
        comm = [b.communication for b in res.breakdowns.values()]
        assert comm[0] > comm[-1]

    def test_cutoff_validation_runs(self):
        res = validate_figure(FIG6["6a"], p=32, n=2048, cs=(1, 2))
        for b in res.breakdowns.values():
            assert b.get("reassign") >= 0
            assert b.get("compute") > 0

    def test_intrepid_validation(self):
        res = validate_figure(FIG2["2c"], p=32, n=1024, cs=(1, 2))
        assert "c=1" in res.breakdowns
