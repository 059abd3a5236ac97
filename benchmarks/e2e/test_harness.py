"""Tests of the benchmark harness itself.

Run with ``pytest benchmarks/e2e`` (not part of the tier-1 ``testpaths``).
Every workload runs at its ``--smoke`` size, through the same command line
the benchmark driver uses.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def drive(*extra: str) -> dict:
    """One run through the driver's command line; the last line's object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "0.3", *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def leftovers() -> list[str]:
    """Work directories (cache dirs live inside them) a run failed to remove."""
    if not os.path.isdir(run.WORK):
        return []
    return [d for d in os.listdir(run.WORK) if os.path.isdir(os.path.join(run.WORK, d))]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_name_is_emitted_and_well_formed(workload, trace):
    result = drive("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert leftovers() == []


def test_traced_run_records_the_layer_split():
    warm = drive("--workload", "sweep_warm", "--trace", "1")["metrics"]
    assert warm["physics.kernel_calls"]["value"] == 0
    assert warm["core.runcache.hits"]["value"] > 0
    step = drive("--workload", "step_comm_bound", "--trace", "1")["metrics"]
    assert step["physics.kernel_calls"]["value"] > 0
    assert step["simmpi.nops"]["value"] > 0
    with open(os.path.join(run.WORK, "trace_step_comm_bound.json")) as fh:
        trace = json.load(fh)
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"core.runner.prepare", "simmpi.engine_run", "core.runner.collect"} <= names
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"])


@pytest.mark.parametrize("workload", ["service_mixed", "sweep_cold_pool"])
def test_invalid_descriptor_is_counted_not_fatal(workload):
    result = drive("--workload", workload, "--trace", "0", "--fault", "invalid_descriptor")
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["failed"] < result["attempted"]
    assert leftovers() == []


def test_corrupted_expected_value_is_counted(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    name = "step_kernel_allpairs"

    def failed_with(pinned: dict) -> tuple[int, int]:
        wl = workloads.StepWorkload(name, expected["seed"], smoke=False,
                                    workdir=str(tmp_path), expected=pinned, fault=None)
        wl.stats = copy.deepcopy(expected["workloads"][name])
        wl.check_expected()
        return wl.ledger.failed, wl.ledger.attempted

    assert failed_with(expected) == (0, len(expected["workloads"][name]))
    corrupted = copy.deepcopy(expected)
    next(iter(corrupted["workloads"][name].values()))["critical_bytes"] += 1
    assert failed_with(corrupted) == (1, len(expected["workloads"][name]))


def test_server_and_cache_dir_are_cleaned_up_on_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))  # for `python -m repro serve`
    seen = {}
    with pytest.raises(RuntimeError, match="boom"):
        with workloads.ServiceMixed("service_mixed", 0, smoke=True, workdir=str(tmp_path),
                                    expected=None, fault=None) as wl:
            wl.setup()
            seen.update(server=wl.server, cache=wl.cache_dir)
            assert wl.server.poll() is None and os.path.isdir(wl.cache_dir)
            raise RuntimeError("boom")
    assert seen["server"].poll() is not None
    assert not os.path.exists(seen["cache"])


def test_seed_changes_the_inputs_but_not_the_metric_set(tmp_path):
    def make(cls, name, seed):
        return cls(name, seed, smoke=True, workdir=str(tmp_path), expected=None, fault=None)

    steps = [make(workloads.StepWorkload, "step_kernel_allpairs", s) for s in (0, 1)]
    for wl in steps:
        wl.setup()
    assert not (steps[0].specs[0].workload().pos == steps[1].specs[0].workload().pos).all()
    sweeps = [make(workloads.SweepColdPool, "sweep_cold_pool", s) for s in (0, 1)]
    for wl in sweeps:
        wl.setup()
    assert ([t["seed"] for t in sweeps[0].tasks] != [t["seed"] for t in sweeps[1].tasks])
    a = drive("--workload", "step_kernel_allpairs", "--trace", "0", "--seed", "0")
    b = drive("--workload", "step_kernel_allpairs", "--trace", "0", "--seed", "1")
    assert set(a["metrics"]) == set(b["metrics"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regressed"
    noisy = [80.0, 100.0, 120.0, 90.0, 115.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)[0] == "unresolved"
    # Spread wider than the bound, but every run of B is worse than every run of A.
    assert compare.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.10)[0] == "regressed"


def test_compare_exit_code(tmp_path):
    def result_file(path, wall, failed=0):
        runs = [{"workload": "w", "trace": 0, "attempted": 10, "failed": failed,
                 "metrics": {"run_wall_ms": {"value": wall + i, "unit": "ms"}}}
                for i in range(4)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    a = result_file(tmp_path / "a.json", 100.0)
    lines: list[str] = []
    assert compare.compare_files(a, result_file(tmp_path / "b.json", 101.0),
                                 BENCH["end_to_end"], out=lines.append) == 0
    assert any("run_wall_ms" in line and line.rstrip().endswith("ms)") for line in lines)
    assert compare.compare_files(a, result_file(tmp_path / "c.json", 150.0),
                                 BENCH["end_to_end"], out=lines.append) == 1
    assert compare.compare_files(a, result_file(tmp_path / "d.json", 100.0, failed=1),
                                 BENCH["end_to_end"], out=lines.append) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark: no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
