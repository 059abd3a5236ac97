"""The seven pinned workloads, their verification and their traced runs.

Each workload object lives in one fresh subprocess (``run.py`` spawns it)
and walks ``setup -> measure | traced -> verify -> close``.  Timing is
taken from outside, around calls into the program's public functions; the
work of a pass is fixed by the generated inputs, never by a count the
program chooses.  Configs are frozen — only ``--seed`` varies the inputs.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import hashlib
import math
import os
import pickle
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from compare import percentile, summarize
from tracing import Spans, attribute_profile, profile_calls

from repro.core.parallel import run_supervised
from repro.core.runcache import MISS, RunCache
from repro.core.runner import RunSpec, get_algorithm, run
from repro.experiments.sweep import (
    SWEEP_NAMESPACE, expand_grid, normalize_task, run_sweep, sweep_task,
    task_fingerprint,
)
from repro.machines import GenericMachine, GenericTorus
from repro.metrics import MetricsRegistry
from repro.physics import pairwise_forces, reference_forces
from repro.service import ServiceClient, encode_record
from repro.simmpi import Engine

#: Event-tier and heuristic-tier pinned RunSpec lists (``p`` builds the torus).
STEP_SPECS = {
    "step_comm_bound": [
        dict(algorithm="allpairs", p=256, c=4, n=1024),
        dict(algorithm="symmetric", p=256, c=2, n=1024),
        dict(algorithm="cutoff", p=256, c=2, n=2048, rcut=0.1),
        dict(algorithm="hyper_systolic", p=64, n=1024),
    ],
    "step_kernel_allpairs": [
        dict(algorithm="allpairs", p=16, c=2, n=4096),
        dict(algorithm="symmetric", p=16, c=2, n=4096),
    ],
    "step_kernel_cutoff": [
        dict(algorithm="cutoff", p=16, c=2, n=4096, rcut=0.1, dim=2),
        dict(algorithm="spatial", p=16, n=4096, rcut=0.1),
    ],
    "heuristic_scale": [
        dict(algorithm="allpairs", p=10_000, c=4, n=20_000, engine_tier="heuristic"),
        dict(algorithm="symmetric", p=10_000, c=4, n=20_000, engine_tier="heuristic"),
    ],
}
SMOKE_STEP_SPECS = {
    "step_comm_bound": [
        dict(algorithm="allpairs", p=16, c=2, n=128),
        dict(algorithm="symmetric", p=16, c=2, n=128),
        dict(algorithm="cutoff", p=16, c=2, n=128, rcut=0.3),
        dict(algorithm="hyper_systolic", p=16, n=128),
    ],
    "step_kernel_allpairs": [
        dict(algorithm="allpairs", p=4, c=2, n=256),
        dict(algorithm="symmetric", p=4, c=2, n=256),
    ],
    "step_kernel_cutoff": [
        dict(algorithm="cutoff", p=4, c=2, n=256, rcut=0.3, dim=2),
        dict(algorithm="spatial", p=4, n=256, rcut=0.3),
    ],
    "heuristic_scale": [
        dict(algorithm="allpairs", p=64, c=4, n=256, engine_tier="heuristic"),
        dict(algorithm="symmetric", p=64, c=4, n=256, engine_tier="heuristic"),
    ],
}
SWEEP_ALGORITHMS = ["allpairs", "symmetric", "cutoff", "hyper_systolic"]
#: A descriptor that normalizes but cannot run: the op must count as failed.
INVALID_DESCRIPTOR = {"algorithm": "no_such_algorithm", "p": 4, "n": 16}


class Ledger:
    """Attempted / failed op counts plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


def cell(value, unit: str, samples=None) -> dict:
    """One metric: its value and unit, plus quartiles / count when sampled."""
    out = {"value": float(value), "unit": unit}
    if samples:
        s = summarize(samples)
        out.update(q1=s["q1"], q3=s["q3"], n=s["n"])
    return out


def median_cell(samples, unit: str, scale: float = 1.0) -> dict:
    """A metric reported as the median of ``samples`` (0.0 when there are none)."""
    scaled = [s * scale for s in samples]
    return cell(summarize(scaled)["median"] if scaled else 0.0, unit, scaled)


def peak_rss_mb() -> float:
    """Peak RSS of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _no_span(*_args):
    """Stand-in for ``Spans.span`` when tracing is off."""
    return contextlib.nullcontext()


def sha(blob) -> str | None:
    return None if blob is None else hashlib.sha256(blob).hexdigest()


def forces_close(forces: np.ndarray, reference: np.ndarray) -> bool:
    """Equal within 1e-9 of the reference's largest component."""
    scale = float(np.max(np.abs(reference))) or 1.0
    return bool(np.max(np.abs(forces - reference)) <= 1e-9 * scale)


def descriptor_reference(desc: dict) -> np.ndarray:
    """Serial reference forces for a sweep descriptor's synthesized workload."""
    spec = RunSpec(machine=None, algorithm=desc["algorithm"], n=desc["n"],
                   seed=desc["seed"], rcut=desc["rcut"], dim=desc["dim"])
    return reference_forces(spec.resolved_law(), spec.workload())


def record_forces(record: dict) -> np.ndarray:
    return np.frombuffer(record["forces"], dtype=record["forces_dtype"]).reshape(
        record["forces_shape"])


def record_stats(record: dict) -> dict:
    """The exact simulated statistics of a sweep / service record."""
    return {"critical_messages": record["critical_messages"],
            "critical_bytes": record["critical_bytes"],
            "elapsed": record["elapsed"]}


def stats_match(got: dict | None, want: dict) -> bool:
    """Counts exact; virtual time to 1e-12 (libm may differ between hosts)."""
    return (got is not None
            and got["critical_messages"] == want["critical_messages"]
            and got["critical_bytes"] == want["critical_bytes"]
            and math.isclose(got["elapsed"], want["elapsed"], rel_tol=1e-12))


def profile_passes(call, passes: int = 1) -> tuple[float, dict]:
    """``call`` (``passes`` passes of a workload) under cProfile: the wall of
    one pass, and per-pass self time and call counts by source directory."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    call()
    profile.disable()
    wall = (time.perf_counter() - start) / passes
    seconds_by, calls_by = attribute_profile(profile)
    kernel_calls = profile_calls(profile, "/repro/physics/forces.py", "pairwise_forces")
    return wall, {
        "physics.kernel_busy_s": cell(seconds_by.get("physics", 0.0) / passes, "s"),
        "physics.kernel_calls": cell(kernel_calls / passes, "count"),
        "simmpi.engine_self_s": cell(seconds_by.get("simmpi", 0.0) / passes, "s"),
        "core.commsched.self_s": cell(seconds_by.get("core.commsched", 0.0) / passes, "s"),
        "core.commsched.calls": cell(calls_by.get("core.commsched", 0) / passes, "count"),
        "core.runner.algorithms_self_s": cell(seconds_by.get("core", 0.0) / passes, "s"),
        "harness.profiled_pass_wall_s": cell(wall, "s"),
    }


class Workload:
    """Shared life cycle; subclasses fill in ``setup`` / ``one_pass`` / ``traced``."""

    #: Number of items (RunSpecs, sweep points, jobs) one timed op completes.
    items_per_op = 1

    def __init__(self, name: str, seed: int, *, smoke: bool, workdir: str,
                 expected: dict | None, fault: str | None):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.expected = expected
        self.fault = fault
        self.ledger = Ledger()
        #: key -> exact simulated statistics seen, checked against expected.json.
        self.stats: dict[str, dict] = {}
        self.first_pass_wall_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Release everything ``setup`` acquired (idempotent)."""

    def timed_passes(self, seconds: float) -> list[float]:
        """Run ``one_pass`` until ``seconds`` have gone by (at least twice)."""
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(walls) < 2:
            walls.append(self.one_pass(len(walls)))
        return walls

    def measure(self, seconds: float) -> dict:
        """The end-to-end metrics of one untraced run."""
        walls = self.timed_passes(seconds)
        return {
            "run_wall_ms": median_cell(walls, "ms", 1e3),
            "items_per_s": median_cell([self.items_per_op / w for w in walls], "1/s"),
            "peak_rss_mb": cell(peak_rss_mb(), "MiB"),
        }

    def check_expected(self) -> None:
        """Pinned simulated statistics, compared at the pinned seed only."""
        exp = self.expected
        if self.smoke or not exp or exp.get("seed") != self.seed:
            return
        for key, want in exp["workloads"].get(self.name, {}).items():
            if key in self.stats:
                self.ledger.op(stats_match(self.stats[key], want),
                               f"{key}: simulated statistics {self.stats[key]} != pinned {want}")


# --------------------------------------------------------------------------
# Workloads 1-4: a pinned RunSpec list through run().
# --------------------------------------------------------------------------

def spec_key(d: dict) -> str:
    return "/".join(f"{k}={d[k]}" for k in sorted(d))


def pairs_within(pos: np.ndarray, rcut: float) -> int:
    """Ordered pairs (i != j) closer than ``rcut``, by chunked brute force."""
    total = 0
    for lo in range(0, len(pos), 512):
        d2 = ((pos[lo:lo + 512, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        total += int((d2 < rcut * rcut).sum())
    return total - len(pos)


class StepWorkload(Workload):
    """One pass = every pinned RunSpec once through ``run()``."""

    def setup(self) -> None:
        table = SMOKE_STEP_SPECS if self.smoke else STEP_SPECS
        self.dicts = table[self.name]
        self.items_per_op = len(self.dicts)
        self.specs = []
        for d in self.dicts:
            d = dict(d)
            self.specs.append(RunSpec(machine=GenericTorus(d.pop("p")),
                                      seed=self.seed, **d))
        self.signatures: list | None = None
        self.first_forces: list = []
        self.first_pass_wall_s = self.one_pass(-1)

    def one_pass(self, pass_id: int) -> float:
        outs = []
        start = time.perf_counter()
        try:
            for spec in self.specs:
                outs.append(run(spec))
        except Exception as exc:  # the op failed; the benchmark keeps going
            wall = time.perf_counter() - start
            for _ in self.specs:
                self.ledger.op(False, f"run() raised {exc!r}")
            return wall
        wall = time.perf_counter() - start
        sigs = []
        for out in outs:
            stats = {"critical_messages": int(out.report.critical_messages()),
                     "critical_bytes": int(out.report.critical_bytes()),
                     "elapsed": float(out.run.elapsed)}
            sigs.append((stats, sha(None if out.forces is None else out.forces.tobytes())))
        if self.signatures is None:
            self.signatures = sigs
            self.first_forces = [out.forces for out in outs]
            for d, (stats, _) in zip(self.dicts, sigs):
                self.stats[spec_key(d)] = stats
        for d, sig, first in zip(self.dicts, sigs, self.signatures):
            self.ledger.op(sig == first,
                           f"{spec_key(d)}: pass {pass_id} differs bitwise from the first pass")
        return wall

    def verify(self) -> None:
        references: dict = {}
        for d, spec, forces in zip(self.dicts, self.specs, self.first_forces):
            if forces is None:
                continue
            key = (spec.n, spec.dim, spec.rcut)
            if key not in references:
                references[key] = reference_forces(spec.resolved_law(), spec.workload())
            self.ledger.op(forces_close(forces, references[key]),
                           f"{spec_key(d)}: forces differ from physics.reference")
        self.check_tier_parity()
        self.check_expected()

    def check_tier_parity(self) -> None:
        """Heuristic-tier traffic must be bit-equal to the event tier's.

        The pinned heuristic specs are too large for the event engine, so
        parity is checked on the same algorithms at a size both tiers run.
        """
        for d in self.dicts:
            if d.get("engine_tier") != "heuristic":
                continue
            traffic = []
            for tier in ("event", "heuristic"):
                out = run(RunSpec(machine=GenericTorus(64), algorithm=d["algorithm"],
                                  c=d["c"], n=512, seed=self.seed, engine_tier=tier))
                traffic.append((out.report.critical_messages(), out.report.critical_bytes()))
            self.ledger.op(traffic[0] == traffic[1],
                           f"{d['algorithm']}: heuristic traffic {traffic[1]} != event {traffic[0]}")

    # -- traced run ---------------------------------------------------------

    def staged_pass(self, spans: Spans, registry, pass_id: int) -> list:
        """``run()``'s own public steps by hand, one span around each."""
        outs = []
        with spans.span("harness.pass", pass_id):
            for spec in self.specs:
                if spec.engine_tier != "event":
                    with spans.span("simmpi.fastsim_run", pass_id):
                        out = run(dataclasses.replace(spec, metrics=registry))
                    outs.append((out.run, None))
                    continue
                with spans.span("core.runner.workload_gen", pass_id):
                    particles = spec.workload()
                staged = dataclasses.replace(spec, particles=particles, metrics=registry)
                with spans.span("core.runner.prepare", pass_id):
                    prep = get_algorithm(spec.algorithm).prepare(staged)
                with spans.span("simmpi.engine_run", pass_id):
                    result = Engine(spec.machine, metrics=registry).run(prep.program)
                with spans.span("core.runner.collect", pass_id):
                    _ids, forces = prep.collect(result)
                outs.append((result, forces))
        return outs

    def traced(self, seconds: float, spans: Spans) -> dict:
        untraced = self.timed_passes(seconds / 4)
        registry = MetricsRegistry()
        staged_walls, pairs = [], []
        deadline = time.perf_counter() + seconds / 2
        while time.perf_counter() < deadline or len(staged_walls) < 2:
            before = registry.value("kernel.pairs")
            outs = self.staged_pass(spans, registry, len(staged_walls))
            pairs.append(registry.value("kernel.pairs") - before)
            staged_walls.append(spans.durations("harness.pass")[-1])
            for d, (_result, forces), first in zip(self.dicts, outs, self.first_forces):
                if forces is not None:
                    self.ledger.op(np.array_equal(forces, first),
                                   f"{spec_key(d)}: staged replay forces differ from run()")
        profiled_wall, m = profile_passes(lambda: self.one_pass(10_000))

        useful = 0
        for spec in self.specs:
            if spec.engine_tier != "event":
                continue
            n = spec.count()
            ordered = n * (n - 1) if spec.rcut is None else pairs_within(
                spec.workload().pos, spec.rcut)
            # The symmetric kernel scans each unordered pair once.
            useful += ordered // 2 if spec.algorithm == "symmetric" else ordered
        results = [result for result, _ in outs]
        engine_run = spans.per_pass("simmpi.engine_run")
        fastsim_run = spans.per_pass("simmpi.fastsim_run")
        nops = sum(r.nops for r in results)
        event = [s for s in self.specs if s.engine_tier == "event"]
        m.update({
            "physics.pairs_evaluated": cell(pairs[-1], "count"),
            "physics.useful_pair_ratio": cell(useful / pairs[-1] if event and pairs[-1] else 0.0, "ratio"),
            "simmpi.engine_run_s": median_cell(engine_run, "s"),
            "simmpi.nops": cell(nops, "count"),
            "simmpi.engine_ops_per_s": cell(
                nops / summarize(engine_run)["median"] if engine_run else 0.0, "1/s"),
            "simmpi.fastsim_run_s": median_cell(fastsim_run, "s"),
            "simmpi.ranks_per_s": cell(
                sum(s.machine.nranks for s in self.specs if s.engine_tier != "event")
                / summarize(fastsim_run)["median"] if fastsim_run else 0.0, "1/s"),
            "simmpi.critical_messages": cell(sum(r.report.critical_messages() for r in results), "count"),
            "simmpi.critical_bytes": cell(sum(r.report.critical_bytes() for r in results), "bytes"),
            "simmpi.virtual_elapsed_s": cell(sum(r.elapsed for r in results), "s"),
            "core.runner.workload_gen_s": median_cell(spans.per_pass("core.runner.workload_gen"), "s"),
            "core.runner.prepare_s": median_cell(spans.per_pass("core.runner.prepare"), "s"),
            "core.runner.collect_s": median_cell(spans.per_pass("core.runner.collect"), "s"),
            "harness.trace_overhead_ratio": cell(profiled_wall / summarize(untraced)["median"], "ratio"),
            "harness.staged_vs_untraced_ratio": cell(
                summarize(staged_walls)["median"] / summarize(untraced)["median"], "ratio"),
        })
        if event:
            m.update(self.kernel_probes(event[0]))
        return m

    def kernel_probes(self, spec: RunSpec) -> dict:
        """Direct calls of the public kernel: at the workload's block shape
        (throughput) and at 16 x 16 (what one call costs)."""
        teams = max(1, spec.machine.nranks // spec.c)
        block = max(1, spec.count() // teams)
        law = spec.resolved_law()
        rng = np.random.default_rng(self.seed)
        out = {}
        for label, b in (("block", block), ("tiny", 16)):
            target, source = rng.uniform(size=(b, 2)), rng.uniform(size=(b, 2))
            pairwise_forces(law, target, source)
            calls, start = 0, time.perf_counter()
            while time.perf_counter() - start < 0.2:
                pairwise_forces(law, target, source)
                calls += 1
            out[label] = (time.perf_counter() - start) / calls, b
        per_call, b = out["block"]
        return {
            "physics.kernel_pairs_per_s": cell(b * b / per_call, "1/s"),
            "physics.kernel_call_overhead_us": cell(out["tiny"][0] * 1e6, "us"),
        }


# --------------------------------------------------------------------------
# Workloads 5-6: the documented sweep data path, cold and warm.
# --------------------------------------------------------------------------

#: The staged spans that make up what ``run_sweep`` itself does per point.
SWEEP_STAGES = ("experiments.sweep.normalize", "experiments.sweep.fingerprint",
                "core.runcache.get", "experiments.sweep.sweep_task",
                "core.runcache.put")


class SweepWorkload(Workload):
    """Shared pieces of the cold and warm sweeps."""

    def grid(self, algorithms=SWEEP_ALGORITHMS, **kw) -> list[dict]:
        tasks, skipped = expand_grid(algorithms, rcut=0.3,
                                     seeds=(2 * self.seed, 2 * self.seed + 1), **kw)
        if skipped:
            raise RuntimeError(f"pinned grid lost algorithms: {skipped}")
        return tasks

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def check_outcomes(self, report, status: str, pass_id: int) -> None:
        """Every point is an op: right status, and bitwise equal to first sight."""
        for task, outcome in zip(report.tasks, report.outcomes):
            fp = task_fingerprint(task)
            ok = (outcome.status == status
                  and outcome.value == self.records.setdefault(fp, outcome.value))
            self.ledger.op(ok, f"pass {pass_id} {fp}: status {outcome.status} "
                               f"(want {status}) or record differs from first sight")

    def verify_records(self, sample_every: int) -> None:
        """Reference forces for every point; a direct ``sweep_task`` for a sample."""
        references: dict = {}
        for i, task in enumerate(self.tasks):
            record = self.records.get(task_fingerprint(task))
            if record is None:
                continue
            self.stats[record["fingerprint"]] = record_stats(record)
            key = (task["n"], task["seed"], task["rcut"], task["dim"])
            if key not in references:
                references[key] = descriptor_reference(task)
            self.ledger.op(forces_close(record_forces(record), references[key]),
                           f"{record['fingerprint']}: forces differ from physics.reference")
            if i % sample_every == 0:
                self.ledger.op(sweep_task(task) == record,
                               f"{record['fingerprint']}: record differs from in-process sweep_task")
        self.check_expected()

    def staged_pass(self, spans: Spans, store: RunCache, pass_id: int) -> list[dict]:
        """The sweep path's own steps by hand, one span around each."""
        records = []
        for desc in self.tasks:
            with spans.span("experiments.sweep.normalize", pass_id):
                task = normalize_task(desc)
            with spans.span("experiments.sweep.fingerprint", pass_id):
                fp = task_fingerprint(task)
            with spans.span("core.runcache.get", pass_id):
                record = store.get(fp)
            if record is MISS:
                with spans.span("experiments.sweep.sweep_task", pass_id):
                    record = sweep_task(task)
                with spans.span("core.runcache.put", pass_id):
                    store.put(fp, record)
            with spans.span("service.encode_record", pass_id):
                encode_record(record)
            self.ledger.op(record == self.records[fp],
                           f"{fp}: staged replay differs from the run_sweep record")
            records.append(record)
        return records

    def layer_metrics(self, spans: Spans, store: RunCache, records: list,
                      sweep_wall: float, profiled_wall: float) -> dict:
        """Per-layer numbers both sweeps share; ``sweep_wall`` is one untraced
        serial ``run_sweep`` pass, the base of the two harness ratios."""
        staged = summarize(spans.per_pass(*SWEEP_STAGES))["median"]
        get_s = spans.durations("core.runcache.get")
        sizes = [os.path.getsize(store.path_for(r["fingerprint"])) for r in records]
        absent = RunCache(self.fresh_dir(), namespace=SWEEP_NAMESPACE)
        start = time.perf_counter()
        for i in range(200):
            absent.get(f"absent-{i}")
        miss_probe = (time.perf_counter() - start) / 200
        hit_mb = sum(sizes) / 1e6 * store.stats.hits / len(records)
        return {
            "simmpi.critical_messages": cell(sum(r["critical_messages"] for r in records), "count"),
            "simmpi.critical_bytes": cell(sum(r["critical_bytes"] for r in records), "bytes"),
            "simmpi.virtual_elapsed_s": cell(sum(r["elapsed"] for r in records), "s"),
            "experiments.sweep.normalize_us": median_cell(
                spans.durations("experiments.sweep.normalize"), "us", 1e6),
            "experiments.sweep.fingerprint_us": median_cell(
                spans.durations("experiments.sweep.fingerprint"), "us", 1e6),
            "experiments.sweep.overhead_s": cell(sweep_wall - staged, "s"),
            "experiments.sweep.record_bytes_p50": median_cell(sizes, "bytes"),
            "core.runcache.get_us_p50": median_cell(get_s, "us", 1e6),
            "core.runcache.get_mb_per_s": cell(hit_mb / sum(get_s) if hit_mb else 0.0, "MB/s"),
            "core.runcache.miss_probe_us": cell(miss_probe * 1e6, "us"),
            "core.runcache.put_us_p50": median_cell(
                spans.durations("core.runcache.put"), "us", 1e6),
            "core.runcache.hits": cell(store.stats.hits, "count"),
            "core.runcache.misses": cell(store.stats.misses, "count"),
            "core.runcache.stores": cell(store.stats.stores, "count"),
            "service.encode_record_us": median_cell(
                spans.durations("service.encode_record"), "us", 1e6),
            "harness.trace_overhead_ratio": cell(profiled_wall / sweep_wall, "ratio"),
            "harness.staged_vs_untraced_ratio": cell(staged / sweep_wall, "ratio"),
        }


class SweepColdPool(SweepWorkload):
    """The whole data path cold: 2 pool workers, a fresh cache directory per pass."""

    def setup(self) -> None:
        if self.smoke:
            self.tasks = self.grid(ps=(4,), cs=(2,), ns=(64,))
        else:
            self.tasks = self.grid(ps=(64,), cs=(2, 4), ns=(512, 1024))
        if self.fault == "invalid_descriptor":
            self.tasks = self.tasks + [normalize_task(INVALID_DESCRIPTOR)]
        self.items_per_op = len(self.tasks)
        self.records: dict = {}
        self.first_pass_wall_s = self.one_pass(-1)

    def one_pass(self, pass_id: int, workers: int = 2) -> float:
        directory = self.fresh_dir()
        start = time.perf_counter()
        report = run_sweep(self.tasks, workers=workers, cache=directory)
        wall = time.perf_counter() - start
        shutil.rmtree(directory)
        self.check_outcomes(report, "ok", pass_id)
        stats = report.cache_stats
        self.ledger.op((stats.hits, stats.misses) == (0, len(self.tasks)),
                       f"pass {pass_id}: cold cache accounting {stats.describe()}")
        self.last_report = report
        return wall

    def verify(self) -> None:
        self.verify_records(sample_every=7)

    def traced(self, seconds: float, spans: Spans) -> dict:
        pooled = summarize(self.timed_passes(seconds / 3))["median"]
        pooled_report = self.last_report
        serial_wall = self.one_pass(5_000, workers=0)
        store = RunCache(self.fresh_dir(), namespace=SWEEP_NAMESPACE)
        records = self.staged_pass(spans, store, 0)
        profiled_wall, m = profile_passes(lambda: self.one_pass(10_000, workers=0))
        m.update(self.layer_metrics(spans, store, records, serial_wall, profiled_wall))
        one, many = self.supervised_wall(1), self.supervised_wall(2001)
        m.update({
            "experiments.sweep.record_build_s": cell(self.record_build_s(), "s"),
            "core.parallel.pool_spawn_s": cell(one, "s"),
            "core.parallel.dispatch_us_per_task": cell((many - one) / 2000 * 1e6, "us"),
            "core.parallel.speedup_vs_serial": cell(serial_wall / pooled, "ratio"),
            "core.parallel.retries": cell(
                sum(max(o.attempts - 1, 0) for o in pooled_report.outcomes), "count"),
            "core.parallel.result_pickle_mb": cell(
                sum(len(pickle.dumps(r)) for r in records) / 1e6, "MB"),
        })
        return m

    def supervised_wall(self, ntasks: int) -> float:
        """``run_supervised`` over a top-level no-op (``abs``), 2 workers."""
        start = time.perf_counter()
        outcomes = run_supervised(abs, list(range(ntasks)), workers=2)
        wall = time.perf_counter() - start
        self.ledger.op(all(o.status == "ok" for o in outcomes), "no-op pool probe failed")
        return wall

    def record_build_s(self) -> float:
        """``sweep_task`` minus the ``run()`` inside it (best of two each),
        summed over every fourth point of the grid: what building the
        plain-data record costs."""
        def best(call, arg) -> float:
            walls = []
            for _ in range(2):
                start = time.perf_counter()
                call(arg)
                walls.append(time.perf_counter() - start)
            return min(walls)

        total = 0.0
        for task in self.tasks[::4]:
            spec = RunSpec(machine=GenericMachine(task["p"]), algorithm=task["algorithm"],
                           n=task["n"], c=task["c"], seed=task["seed"], rcut=task["rcut"],
                           dim=task["dim"], hyper_k=task["hyper_k"])
            total += best(sweep_task, task) - best(run, spec)
        return total


class SweepWarm(SweepWorkload):
    """The read side: every pass is served from a cache filled during set-up."""

    def setup(self) -> None:
        if self.smoke:
            self.tasks = self.grid(ps=(4,), cs=(2,), ns=(64,))
        else:
            # 40 small records plus 4 of >= 64 KiB of force bytes each.
            self.tasks = (self.grid(ps=(16,), cs=(1, 2, 4), ns=(512, 1024))
                          + self.grid(["allpairs", "symmetric"], ps=(16,), cs=(2,), ns=(4096,)))
        self.items_per_op = len(self.tasks)
        self.directory = self.fresh_dir()
        # Filled by pool workers, so this process's peak RSS is the read side's.
        fill = run_sweep(self.tasks, workers=2, cache=self.directory)
        self.records = {}
        self.check_outcomes(fill, "ok", -2)
        self.first_pass_wall_s = self.one_pass(-1)

    def one_pass(self, pass_id: int) -> float:
        store = RunCache(self.directory, namespace=SWEEP_NAMESPACE)
        start = time.perf_counter()
        report = run_sweep(self.tasks, cache=store)
        wall = time.perf_counter() - start
        self.check_outcomes(report, "cached", pass_id)
        self.ledger.op((store.stats.hits, store.stats.misses, store.stats.stores)
                       == (len(self.tasks), 0, 0),
                       f"pass {pass_id}: warm pass computed something ({store.stats.describe()})")
        return wall

    def verify(self) -> None:
        self.verify_records(sample_every=11)

    def traced(self, seconds: float, spans: Spans) -> dict:
        untraced = summarize(self.timed_passes(seconds / 4))["median"]
        store = RunCache(self.directory, namespace=SWEEP_NAMESPACE)
        deadline = time.perf_counter() + seconds / 4
        passes = 0
        while passes < 2 or (time.perf_counter() < deadline and passes < 8):
            records = self.staged_pass(spans, store, passes)
            passes += 1
        # The write side of the same records, into a directory of its own.
        scratch = RunCache(self.fresh_dir(), namespace=SWEEP_NAMESPACE)
        for record in records:
            with spans.span("core.runcache.put", None):
                scratch.put(record["fingerprint"], record)
        profiled_wall, m = profile_passes(
            lambda: [self.one_pass(10_000 + i) for i in range(100)], passes=100)
        m.update(self.layer_metrics(spans, store, records, untraced, profiled_wall))
        m["core.runcache.stores"] = cell(scratch.stats.stores, "count")
        return m


# --------------------------------------------------------------------------
# Workload 7: `python -m repro serve` under a closed loop of 2 clients.
# --------------------------------------------------------------------------

ANNOUNCE = re.compile(r"http://[\d.]+:\d+")


class ServiceMixed(Workload):
    """Closed loop, 2 client threads; rounds of fixed, seeded request streams.

    The callers of the service are scripts that submit and wait, so the
    loop is closed: a slower server receives less load.  Every round
    replays the same requests against 24 configs whose particle seed is
    new in that round, so each round is 12% cold and 88% warm however many
    rounds fit into the run (~170 distinct descriptors in 8 s).
    """

    clients = 2
    server = None
    cache_dir = None

    def setup(self) -> None:
        jobs = 12 if self.smoke else 100
        ps, ns = ((4,), (32,)) if self.smoke else ((16, 64), (256, 512))
        self.pool = [dict(algorithm=alg, c=c, p=p, n=n)
                     for alg, c in (("allpairs", 2), ("allpairs", 4), ("symmetric", 1),
                                    ("symmetric", 2), ("symmetric", 4), ("hyper_systolic", 1))
                     for p in ps for n in ns]
        # A round has two phases: every config once (the round's 24 cold
        # computations, whatever the seed), then Zipf-weighted repeats (warm).
        # Warm requests that land during a cold compute wait on the server's
        # GIL, which smears their latency over 1.5-6 ms; with the phases apart
        # the median job latency is the warm path's and repeats run to run.
        # Which configs are popular is pinned (record sizes set the warm
        # latency); the seed picks the particles and the order of the draws.
        order = list(range(len(self.pool)))
        random.Random(0).shuffle(order)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(order))]
        self.cold_streams, self.warm_streams = [], []
        for k in range(self.clients):
            rng = random.Random(self.seed + 1 + k)
            first = order[k::self.clients]
            rng.shuffle(first)
            self.cold_streams.append(first)
            self.warm_streams.append(rng.choices(order, weights, k=jobs - len(first)))
        self.round_jobs = jobs * self.clients
        self.jobs: list[dict] = []
        self.round_walls: list[float] = []
        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=self.workdir)
        start = time.perf_counter()
        self.url = self.boot()
        self.boot_s = time.perf_counter() - start
        self.first_pass_wall_s = self.one_round(0, None)
        self.warmup_jobs = len(self.jobs)

    def boot(self) -> str:
        """Start ``python -m repro serve --port 0`` and parse the announce line."""
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", self.cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(60.0, self.server.kill)
        watchdog.start()
        try:
            line = self.server.stdout.readline()
        finally:
            watchdog.cancel()
        match = ANNOUNCE.search(line)
        if not match:
            raise RuntimeError(f"repro serve did not announce a URL: {line!r}")
        return match.group(0)

    def close(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def descriptor(self, index: int, round_id: int) -> dict:
        """Pool entry ``index`` with the particle seed of ``round_id``."""
        return dict(self.pool[index], seed=self.seed * 1_000 + round_id)

    def one_job(self, client: ServiceClient, desc: dict, round_id: int,
                spans: Spans | None) -> dict:
        """submit -> (wait if not done) -> record; never raises."""
        job = {"desc": desc, "round": round_id, "ok": False, "kind": "failed",
               "record": None}
        span = spans.span if spans else _no_span
        t0 = time.perf_counter()
        try:
            with span("service.job", round_id):
                with span("service.submit", round_id):
                    entry = client.submit([desc])[0]
                t1 = time.perf_counter()
                if entry["status"] != "done":
                    with span("service.wait", round_id):
                        snap = client.wait(entry["id"], timeout=60.0)
                    if snap["status"] != "done":
                        raise RuntimeError(f"job ended {snap['status']}: {snap.get('error')}")
                t2 = time.perf_counter()
                with span("service.record", round_id):
                    job["record"] = client.record(entry["id"])["record"]
                t3 = time.perf_counter()
        except Exception as exc:  # refused, failed, timed out: a failed op
            job["error"] = repr(exc)
            job["latency"] = time.perf_counter() - t0
            return job
        job.update(ok=True, latency=t3 - t0, submit=t1 - t0, wait=t2 - t1, fetch=t3 - t2,
                   kind="warm" if entry["cached"] else
                   "coalesced" if entry["coalesced"] else "cold")
        return job

    def one_round(self, round_id: int, spans: Spans | None) -> float:
        def client_loop(k: int) -> None:
            client = ServiceClient(self.url, timeout=90.0)
            mine = [self.one_job(client, self.descriptor(i, round_id), round_id, spans)
                    for i in self.cold_streams[k]]
            phase_gate.wait(timeout=120.0)
            mine += [self.one_job(client, self.descriptor(i, round_id), round_id, spans)
                     for i in self.warm_streams[k]]
            if k == 0 and self.fault == "invalid_descriptor":
                mine.append(self.one_job(client, INVALID_DESCRIPTOR, round_id, spans))
            results[k] = mine

        phase_gate = threading.Barrier(self.clients)
        results: list = [None] * self.clients
        threads = [threading.Thread(target=client_loop, args=(k,))
                   for k in range(self.clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        for mine in results:
            for job in mine:
                self.ledger.op(job["ok"], f"job {job['desc']} failed: {job.get('error')}")
                self.jobs.append(job)
        return wall

    def run_rounds(self, seconds: float, spans: Spans | None) -> list[float]:
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not walls:
            walls.append(self.one_round(len(self.round_walls) + 1, spans))
            self.round_walls.append(walls[-1])
        return walls

    def latencies(self, kind: str | None = None, field: str = "latency") -> list[float]:
        return [j[field] for j in self.jobs[self.warmup_jobs:]
                if j["ok"] and (kind is None or j["kind"] == kind)]

    def server_status(self, key: str) -> float:
        with open(f"/proc/{self.server.pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
        return 0.0

    def server_cpu_s(self) -> float:
        with open(f"/proc/{self.server.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def measure(self, seconds: float) -> dict:
        walls = self.run_rounds(seconds, None)
        return {
            "run_wall_ms": median_cell(self.latencies(), "ms", 1e3),
            "items_per_s": median_cell([self.round_jobs / w for w in walls], "1/s"),
            "peak_rss_mb": cell(self.server_status("VmHWM") / 1024.0, "MiB"),
        }

    def fetch_counters(self) -> dict:
        """The unlabeled ``service.jobs.*`` counters of ``/stats``, by short name."""
        snap = ServiceClient(self.url).stats()["service"]
        return {name.rsplit(".", 1)[1]: value for name, value in snap.items()}

    def verify(self) -> None:
        by_fp: dict = {}
        for job in self.jobs:
            if job["ok"]:
                fp = job["record"]["fingerprint"]
                first = by_fp.setdefault(fp, (job["desc"], job["record"]))[1]
                self.ledger.op(job["record"] == first,
                               f"{fp}: {job['kind']} record differs from first sight")
                self.stats[fp] = record_stats(first)
        for _fp, (desc, record) in sorted(by_fp.items())[::max(1, len(by_fp) // 8)]:
            task = normalize_task(desc)
            self.ledger.op(sweep_task(task) == record,
                           f"{record['fingerprint']}: service record differs from sweep_task")
            self.ledger.op(forces_close(record_forces(record), descriptor_reference(task)),
                           f"{record['fingerprint']}: forces differ from physics.reference")
        c = self.fetch_counters()
        self.ledger.op(c["submitted"] == c["cache_hits"] + c["coalesced"] + c["computed"] + c["failed"],
                       f"/stats does not partition: {c}")
        self.check_expected()

    def traced(self, seconds: float, spans: Spans) -> dict:
        untraced = self.run_rounds(seconds / 4, None)
        traced = self.run_rounds(seconds / 2, spans)
        done = [j for j in self.jobs if j["ok"]]
        first_seen = {j["record"]["fingerprint"]: j["record"] for j in reversed(done)}.values()
        start = time.perf_counter()
        for _ in range(200):
            encode_record(done[0]["record"])
        encode_us = (time.perf_counter() - start) / 200 * 1e6
        warm, cold = self.latencies("warm"), self.latencies("cold")
        c = self.fetch_counters()
        return {
            "service.boot_s": cell(self.boot_s, "s"),
            "service.submit_ms_p50": median_cell(self.latencies(field="submit"), "ms", 1e3),
            "service.wait_ms_p50": median_cell(self.latencies("cold", "wait"), "ms", 1e3),
            "service.record_ms_p50": median_cell(self.latencies(field="fetch"), "ms", 1e3),
            "service.record_kb_p50": median_cell(
                [len(j["record"]["forces"]) / 1024.0 for j in done], "KiB"),
            "service.encode_record_us": cell(encode_us, "us"),
            "service.warm_latency_p50_ms": median_cell(warm, "ms", 1e3),
            "service.cold_latency_p50_ms": median_cell(cold, "ms", 1e3),
            "service.warm_latency_p99_ms": cell(percentile(warm, 99) * 1e3, "ms"),
            "service.cold_latency_p90_ms": cell(percentile(cold, 90) * 1e3, "ms"),
            "service.jobs_computed": cell(c["computed"], "count"),
            "service.jobs_cache_hits": cell(c["cache_hits"], "count"),
            "service.jobs_coalesced": cell(c["coalesced"], "count"),
            "service.jobs_failed": cell(c["failed"], "count"),
            "service.server_cpu_s_per_job": cell(self.server_cpu_s() / len(self.jobs), "s"),
            "simmpi.critical_messages": cell(sum(r["critical_messages"] for r in first_seen), "count"),
            "simmpi.critical_bytes": cell(sum(r["critical_bytes"] for r in first_seen), "bytes"),
            "simmpi.virtual_elapsed_s": cell(sum(r["elapsed"] for r in first_seen), "s"),
            "harness.trace_overhead_ratio": cell(
                summarize(traced)["median"] / summarize(untraced)["median"], "ratio"),
            "harness.staged_vs_untraced_ratio": cell(
                sum(sum(spans.durations(n)) for n in
                    ("service.submit", "service.wait", "service.record"))
                / sum(spans.durations("service.job")), "ratio"),
        }


WORKLOADS = {
    "step_comm_bound": StepWorkload,
    "step_kernel_allpairs": StepWorkload,
    "step_kernel_cutoff": StepWorkload,
    "heuristic_scale": StepWorkload,
    "sweep_cold_pool": SweepColdPool,
    "sweep_warm": SweepWarm,
    "service_mixed": ServiceMixed,
}
