#!/usr/bin/env python3
"""The repo benchmark: seven pinned workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                         # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --repeat 10 --out results/baseline_a.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in fresh subprocesses of this file (``--child``): the
set-up is repeated in throw-away processes so ``setup_s`` is a median, and
one process goes on to measure.  The last line of standard output of a
``--workload`` run is the result object the benchmark contract asks for.
Names, units, directions and bounds live in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from compare import compare_files, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
DEFAULT_SEED = 0
#: Set-ups per untraced run (the measuring process plus throw-away ones).
SETUPS = 3
#: All processes of one run share this budget (the contract allows 180 s).
RUN_TIMEOUT_S = 170.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_record() -> dict:
    """Where the numbers were taken; ``noisy`` marks a loaded host."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "cpu_model": model,
            "loadavg_1min": load, "noisy": load > nproc - 1}


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[knob] = "1"
    env["TMPDIR"] = workdir
    return env


def spawn_child(phase: str, args, workdir: str, trace_path: str, deadline: float) -> dict:
    """One ``--child`` process; returns its JSON report (or the failure)."""
    command = [sys.executable, os.path.abspath(__file__), "--child", phase,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--trace-path", trace_path,
               "--expected", args.expected, "--t0", repr(time.time())]
    if args.smoke:
        command.append("--smoke")
    if args.fault:
        command += ["--fault", args.fault]
    proc = subprocess.Popen(command, env=child_env(workdir), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # The child's own server / pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"child ({phase}) exited {proc.returncode} without a report"}


def run_workload(args, bench: dict) -> dict:
    """All processes of one run of one workload, folded into one result."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    trace_path = os.path.join(args.trace_dir, f"trace_{args.workload}.json")
    host = host_record()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUPS - 1):
                report = spawn_child("setup", args, workdir, trace_path, deadline)
                if "setup_s" in report:
                    setups.append(report["setup_s"])
        report = spawn_child("full", args, workdir, trace_path, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = report.get("metrics", {})
    if "setup_s" in report:
        setups.append(report["setup_s"])
    if setups and not args.trace:
        s = summarize(setups)
        metrics["setup_s"] = {"value": s["median"], "unit": "s",
                              "q1": s["q1"], "q3": s["q3"], "n": s["n"]}
    if args.trace:
        metrics["harness.loadavg_start"] = {"value": host["loadavg_1min"], "unit": "load"}
        metrics["harness.cpu_count"] = {"value": float(host["nproc"]), "unit": "count"}
    attempted, failed = report.get("attempted", 0), report.get("failed", 0)
    failures = list(report.get("failures", []))
    if "error" in report:
        attempted, failed = attempted + 1, failed + 1
        failures.append(report["error"])
    if args.trace:
        # A layer a workload never enters reports 0 for that layer's metrics.
        for m in wanted:
            metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        attempted, failed = attempted + 1, failed + 1
        failures.append(f"metrics not measured: {missing}")
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "smoke": args.smoke, "host": host,
            "correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "failures": failures, "stats": report.get("stats", {}),
            "metrics": {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics}}


def print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    host = result["host"]
    print(f"== {result['workload']}  seed={result['seed']}  {kind}  "
          f"nproc={host['nproc']} load={host['loadavg_1min']:.2f}")
    if host["noisy"]:
        print(f"   WARNING: 1-min load average {host['loadavg_1min']:.2f} exceeds "
              f"nproc - 1 = {host['nproc'] - 1}; this run is marked noisy")
    for name, m in result["metrics"].items():
        detail = (f"   [q1 {m['q1']:.6g} .. q3 {m['q3']:.6g}, n={m['n']}]" if "n" in m else "")
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}{detail}")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':40s} {share:>16.6g} ratio   "
          f"[{result['failed']} of {result['attempted']} ops]")
    for line in result["failures"][:10]:
        print(f"   FAILED: {line}")


def contract_line(result: dict) -> str:
    """The one JSON object the benchmark contract reads from the last line."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()}})


def child_main(args) -> int:
    """Inside the fresh subprocess: set up, then measure or trace, then verify."""
    from tracing import Spans
    from workloads import WORKLOADS

    expected = None
    if os.path.exists(args.expected):
        with open(args.expected) as fh:
            expected = json.load(fh)
    workload = WORKLOADS[args.workload](
        args.workload, args.seed, smoke=args.smoke, workdir=args.workdir,
        expected=expected, fault=args.fault)
    report: dict = {}
    with workload:
        workload.setup()
        report["setup_s"] = time.time() - args.t0
        if args.child == "full":
            if args.trace:
                spans = Spans()
                metrics = workload.traced(args.seconds, spans)
                metrics["core.runner.first_pass_wall_s"] = {
                    "value": workload.first_pass_wall_s, "unit": "s"}
            else:
                metrics = workload.measure(args.seconds)
            workload.verify()
            if args.trace:
                os.makedirs(os.path.dirname(args.trace_path), exist_ok=True)
                spans.write_chrome(args.trace_path, {
                    "workload": args.workload, "seed": args.seed, "metrics": metrics})
            report.update(metrics=metrics, stats=workload.stats,
                          attempted=workload.ledger.attempted,
                          failed=workload.ledger.failed,
                          failures=workload.ledger.failures)
    print(json.dumps(report))
    return 0


def write_expected(args, bench: dict) -> int:
    """Record the simulated statistics of every workload at the default seed."""
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in bench["workloads"]:
        args.workload, args.seed, args.trace, args.seconds = workload["name"], DEFAULT_SEED, 0, 1.0
        args.expected = ""  # nothing to verify against while recording
        result = run_workload(args, bench)
        print_result(result)
        if not result["correct"]:
            return 1
        pinned["workloads"][workload["name"]] = result["stats"]
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="generates particle seeds and the request stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
                        help="1: the traced per-layer run; 0: end to end (default: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds --seed .. --seed+N-1")
    parser.add_argument("--out", help="write every run to this JSON file "
                                      "(Chrome traces land beside it)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for the harness's own tests")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="pinned simulated statistics to verify against")
    parser.add_argument("--fault", choices=("invalid_descriptor",),
                        help="testing: add one descriptor that cannot run, to show it is counted")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected.json at the default seed")
    parser.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--trace-path", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.compare:
        return compare_files(*args.compare, bench["end_to_end"])
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    args.trace_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else WORK
    if args.write_expected:
        return write_expected(args, bench)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (known: {names})")
        names = [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    first_seed, runs = args.seed, []
    for name in names:
        for mode in modes:
            for repeat in range(args.repeat if mode == 0 else 1):
                args.workload, args.trace, args.seed = name, mode, first_seed + repeat
                runs.append(run_workload(args, bench))
                print_result(runs[-1])
    if args.out:
        for run in runs:
            del run["stats"]  # only --write-expected needs them
        with open(args.out, "w") as fh:
            json.dump({"schema": "repro-e2e-bench-v1", "runs": runs}, fh, indent=1)
            fh.write("\n")
    if len(runs) == 1:
        print(contract_line(runs[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
