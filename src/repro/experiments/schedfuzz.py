"""Schedule fuzzer: adversarial interleaving exploration over the registry.

The engine promises that *scheduling order is unobservable*: every virtual
time is computed from posting timestamps, every reduction folds in a fixed
order, so any interleaving the cooperative scheduler could legally choose
must produce bitwise-identical physics and identical traffic.  This
harness turns that promise into a fuzzable, replayable contract.

For every registered algorithm and every :data:`PHANTOM_UNITS` entry, one
**FIFO baseline** run is taken at the metrics-lock configuration, then ``N``
perturbed runs execute under derived
:class:`~repro.simmpi.schedule.SchedulePolicy` seeds (a deterministic
mix of ``random:SEED`` and ``adversarial:SEED`` policies).  Each explored
schedule must match the baseline on every observable:

* **forces** — bitwise (:func:`numpy.array_equal`), plus particle ids;
* **virtual time** — the makespan and every rank's final clock, exactly;
* **trace invariants** — per-rank, per-phase seconds / messages / bytes
  (sent and received) / retries, exactly;
* **comm volume** — run totals and critical-path counts; when the
  baseline configuration matches ``benchmarks/METRICS_LOCK.json`` the
  totals are additionally checked against the committed lock, so a
  schedule-dependent traffic change cannot hide behind a stale baseline;
* **pool / zero-copy integrity** — the engine audits its request free
  list and matching queues after every perturbed run
  (:meth:`~repro.simmpi.engine.Engine.check_invariants`) and raises on
  violation, which the harness records as a failure.

Every trial is a pure function of ``(algorithm, seed, schedule index)``:
the schedule seed is derived as ``SeedSequence([seed, index])``, so any
failure is replayable byte-for-byte from the ``(algorithm, seed,
schedule_seed)`` triple the report and the JSON bad-trace artifact both
record.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.runner import RunSpec, get_algorithm, list_algorithms, run
from repro.physics.particles import PhantomSet

__all__ = ["SchedFuzzCheck", "SchedFuzzReport", "derive_schedule",
           "run_schedfuzz"]

#: The pinned fuzz configuration — deliberately the metrics-lock pin
#: (``tools/metrics_gate.py``), so measured comm volumes can be checked
#: against the committed lock as well as against the FIFO baseline.
PINNED = {"p": 16, "n": 64, "c": 2, "rcut": 0.3, "seed": 0}

#: Fuzz units that run a CA algorithm over ``PhantomSet(n, dim)`` instead
#: of real particles: unit name -> (algorithm, phantom dim).  The names are
#: the metrics lock's extra cases for the same runs.
PHANTOM_UNITS = {
    "allpairs_phantom": ("allpairs", 2),
    "cutoff_phantom": ("cutoff", 1),
    "symmetric_phantom": ("symmetric", 2),
}

_LOCK_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / \
    "METRICS_LOCK.json"


def derive_schedule(seed: int, index: int) -> str:
    """The schedule spec explored at ``index`` for campaign ``seed``.

    A pure function (SeedSequence-derived seed; every third trial is
    adversarial, the rest random), so a failing trial replays from its
    ``(seed, index)`` pair alone.
    """
    sseed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    family = "adversarial" if index % 3 == 2 else "random"
    return f"{family}:{sseed}"


@dataclass
class SchedFuzzCheck:
    """One (algorithm, explored schedule) verdict."""

    algorithm: str
    index: int
    seed: int
    schedule_seed: int
    schedule: str            # full policy spec, e.g. "random:123456"
    outcome: str = "ok"      # "ok" | "failed"
    detail: str = ""

    @property
    def triple(self) -> tuple[str, int, int]:
        """The replay handle: ``(algorithm, seed, schedule_seed)``."""
        return (self.algorithm, self.seed, self.schedule_seed)

    def describe(self) -> str:
        """One log line naming the replay triple and the verdict."""
        base = (f"{self.algorithm:22s} #{self.index:<3d} "
                f"[{self.outcome:6s}] {self.schedule}")
        if self.detail:
            base += f" — {self.detail}"
        return base


@dataclass
class SchedFuzzReport:
    """Campaign outcome: per-check verdicts plus replay bookkeeping."""

    seed: int
    schedules: int
    config: dict = field(default_factory=dict)
    checks: list[SchedFuzzCheck] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[SchedFuzzCheck]:
        return [c for c in self.checks if c.outcome == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Failure lines (all of them), the tally, and replay commands."""
        lines = [c.describe() for c in self.failures]
        algorithms = sorted({c.algorithm for c in self.checks})
        lines.append(
            f"schedfuzz seed={self.seed}: {len(self.checks)} schedules "
            f"explored over {len(algorithms)} algorithms "
            f"({len(self.failures)} failed)"
        )
        for line in self.skipped:
            lines.append(f"skipped: {line}")
        for c in self.failures:
            lines.append(
                f"REPLAY {c.triple}: python -m repro schedfuzz "
                f"--algorithms {c.algorithm} --seed {c.seed} "
                f"--first-schedule {c.index} --schedules 1"
            )
        for path in self.artifacts:
            lines.append(f"artifact: {path}")
        return "\n".join(lines)


def _spec(machine_cls, unit: str, config: dict, schedule=None) -> RunSpec:
    """A registry-respecting RunSpec for fuzz ``unit`` at ``config``."""
    name, phantom_dim = PHANTOM_UNITS.get(unit, (unit, None))
    alg = get_algorithm(name)
    return RunSpec(
        machine=machine_cls(nranks=config["p"]),
        algorithm=name,
        particles=(None if phantom_dim is None
                   else PhantomSet(config["n"], phantom_dim)),
        n=config["n"],
        c=config["c"] if alg.supports_c else 1,
        rcut=config["rcut"] if alg.needs_rcut else None,
        seed=config["seed"],
        schedule=schedule,
    )


def _signature(out) -> dict:
    """Every schedule-independent observable of one run, exactly.

    Forces are kept as raw bytes (+shape) so the comparison is bitwise by
    construction; trace totals include the retry fields so a fault-laced
    fuzz cannot silently shift retransmit accounting between schedules.
    """
    forces = None
    if out.forces is not None:
        forces = (out.forces.shape, out.forces.tobytes(),
                  out.ids.tobytes())
    report = out.run.report
    phases = {
        tr.rank: {
            label: (pt.seconds, pt.messages_sent, pt.messages_received,
                    pt.bytes_sent, pt.bytes_received, pt.retries,
                    pt.redelivered)
            for label, pt in tr.phases.items()
        }
        for tr in report.traces
    }
    return {
        "forces": forces,
        "elapsed": out.run.elapsed,
        "clocks": tuple(out.run.clocks),
        "nops": out.run.nops,
        "phases": phases,
        "volume": _volume(out),
    }


def _volume(out) -> dict:
    """Run-total and critical-path comm volume (metrics-gate schema)."""
    report = out.run.report
    total_messages = 0
    total_bytes = 0
    for tr in report.traces:
        for tot in tr.phases.values():
            total_messages += tot.messages_sent
            total_bytes += tot.bytes_sent
    return {
        "critical_messages": int(report.critical_messages()),
        "critical_bytes": int(report.critical_bytes()),
        "total_messages": int(total_messages),
        "total_bytes": int(total_bytes),
    }


def _diff_signatures(base: dict, got: dict) -> str | None:
    """First divergence between two run signatures, or ``None``."""
    bf, gf = base["forces"], got["forces"]
    if (bf is None) != (gf is None):
        return "one run produced forces, the other did not"
    if bf is not None and bf != gf:
        a = np.frombuffer(bf[1], dtype=np.float64)
        b = np.frombuffer(gf[1], dtype=np.float64)
        detail = "shapes differ" if bf[0] != gf[0] else (
            f"max |delta|={float(np.max(np.abs(a - b))):.3e} over "
            f"{int(np.sum(a != b))} lanes")
        if bf[2] != gf[2]:
            detail += "; particle ids differ"
        return f"forces diverged ({detail})"
    for key in ("elapsed", "clocks", "nops"):
        if base[key] != got[key]:
            return f"{key} diverged: {base[key]!r} != {got[key]!r}"
    if base["volume"] != got["volume"]:
        return (f"comm volume diverged: baseline {base['volume']} vs "
                f"{got['volume']}")
    if base["phases"] != got["phases"]:
        for rank in sorted(set(base["phases"]) | set(got["phases"])):
            if base["phases"].get(rank) != got["phases"].get(rank):
                return (f"rank {rank} phase totals diverged: "
                        f"{base['phases'].get(rank)!r} != "
                        f"{got['phases'].get(rank)!r}")
    return None


def _check_lock(name: str, volume: dict, config: dict,
                lock_path) -> str | None:
    """Baseline comm volume vs the committed metrics lock (when pinned);
    phantom units are locked as the metrics gate's extra cases."""
    path = Path(lock_path) if lock_path is not None else _LOCK_PATH
    if not path.exists():
        return None
    lock = json.loads(path.read_text())
    if lock.get("config") != config:
        return None
    locked = (lock.get("algorithms", {}).get(name)
              or lock.get("extra_cases", {}).get(name, {}).get("volumes"))
    if locked is None:
        return None
    for key, want in locked.items():
        if volume.get(key) != want:
            return (f"baseline {key}={volume.get(key)} != locked {want} "
                    f"({path.name})")
    return None


def _signature_task(task: tuple) -> tuple[str, object]:
    """Parallel work unit: one run's signature for ``(name, cfg, spec_str)``.

    ``spec_str`` is the schedule policy spec, ``None`` for the FIFO
    baseline.  Returns ``("ok", signature)`` or ``("raised", detail)`` —
    a raising run is a recorded *finding* (the engine's invariant audit
    raises on violation), not a worker crash.
    """
    from repro.machines import GenericMachine

    name, cfg, spec_str = task
    try:
        return ("ok", _signature(
            run(_spec(GenericMachine, name, cfg, schedule=spec_str))))
    except Exception as exc:
        leg = "baseline" if spec_str is None else "perturbed"
        return ("raised", f"{leg} run raised {type(exc).__name__}: {exc}")


def _is_signature(value: tuple[str, object]) -> bool:
    """Cacheability: signatures are stored, ``("raised", ...)`` findings never."""
    return value[0] == "ok"


def _dump_artifact(directory: str, check: SchedFuzzCheck, config: dict,
                   baseline: dict | None, got: dict | None) -> str:
    """Persist a failing check as a replayable JSON bad-trace artifact."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"schedfuzz-{check.algorithm}-seed{check.seed}-"
        f"schedule{check.index:03d}.json",
    )

    def _jsonable(sig):
        if sig is None:
            return None
        out = dict(sig)
        if out.get("forces") is not None:
            shape, blob, ids = out["forces"]
            out["forces"] = {
                "shape": list(shape),
                "values": np.frombuffer(blob, dtype=np.float64).tolist(),
                "ids": np.frombuffer(ids, dtype=np.int64).tolist(),
            }
        out["phases"] = {str(r): {l: list(t) for l, t in ph.items()}
                         for r, ph in out["phases"].items()}
        out["clocks"] = list(out["clocks"])
        return out

    with open(path, "w") as fh:
        json.dump({
            "algorithm": check.algorithm,
            "seed": check.seed,
            "schedule_seed": check.schedule_seed,
            "schedule": check.schedule,
            "index": check.index,
            "config": config,
            "detail": check.detail,
            "replay": (f"python -m repro schedfuzz --algorithms "
                       f"{check.algorithm} --seed {check.seed} "
                       f"--first-schedule {check.index} --schedules 1"),
            "baseline": _jsonable(baseline),
            "perturbed": _jsonable(got),
        }, fh, indent=1, default=str)
    return path


#: Run-cache namespace for run signatures (bump on schema change; v2
#: stores the work unit's ``("ok", signature)`` pair, v1 the signature).
SCHEDFUZZ_NAMESPACE = "schedfuzz-v2"


def _sig_key(name: str, cfg: dict, schedule: str | None) -> str:
    """Cache fingerprint of one run signature (``schedule=None`` = FIFO)."""
    return (f"sig;alg={name};cfg={json.dumps(cfg, sort_keys=True)};"
            f"schedule={schedule or 'fifo'}")


def _finding(outcome, leg: str) -> tuple[str, object]:
    """An outcome's ``(status, value)`` pair; a lost run is a finding too."""
    if outcome.ok:
        return outcome.value
    return ("raised",
            f"{leg} run lost in executor: {outcome.describe_loss()}")


def run_schedfuzz(
    algorithms: list[str] | None = None,
    *,
    schedules: int = 100,
    seed: int = 0,
    first_schedule: int = 0,
    config: dict | None = None,
    out_dir: str | None = None,
    time_budget: float | None = None,
    lock_path=None,
    workers: int = 0,
    retry=None,
    task_timeout: float | None = None,
    cache=None,
) -> SchedFuzzReport:
    """Fuzz ``schedules`` interleavings per algorithm; see module docstring.

    ``algorithms`` defaults to the whole registry plus
    :data:`PHANTOM_UNITS`.  ``first_schedule``
    offsets the explored indices (schedule ``i`` is a pure function of
    ``(seed, i)``), so one failing schedule replays alone.  ``config``
    overrides the pinned ``{p, n, c, rcut, seed}`` measurement point
    (volumes are then no longer checked against the metrics lock).
    ``time_budget`` (wall seconds) becomes the executor's ``deadline``:
    runs not yet started when it passes are recorded as skipped.

    The campaign is two cached fan-outs through
    :func:`repro.core.parallel.cached_map` (``docs/resilient-sweeps.md``;
    ``workers`` / ``retry`` / ``task_timeout`` / ``cache`` go there) —
    every FIFO baseline, then every perturbed schedule — with verdicts
    merged in ``(algorithm, index)`` order, so the report is identical
    for any worker count.  Keys are ``(algorithm, config, schedule)`` in
    :data:`SCHEDFUZZ_NAMESPACE`; only run *signatures* are cacheable —
    never verdicts or ``("raised", ...)`` findings — so a cached
    campaign re-judges everything, still detects divergence and still
    honors a changed metrics lock.  A baseline that raises or is lost in
    the executor fails every check of its algorithm (like a lock
    mismatch); a lost perturbed run fails its own check; the campaign
    always completes.
    """
    from repro.core.parallel import cached_map
    from repro.core.runcache import resolve_cache

    cfg = dict(PINNED if config is None else config)
    report = SchedFuzzReport(seed=seed, schedules=schedules, config=cfg)
    names = (list(algorithms) if algorithms is not None
             else sorted([*list_algorithms(), *PHANTOM_UNITS]))
    artifact_dir = out_dir or tempfile.mkdtemp(prefix="schedfuzz-")
    deadline = (None if time_budget is None
                else time.monotonic() + time_budget)

    store = resolve_cache(cache, namespace=SCHEDFUZZ_NAMESPACE)

    def _signatures(tasks: list[tuple]):
        return cached_map(
            _signature_task, tasks, keys=[_sig_key(*t) for t in tasks],
            store=store, cacheable=_is_signature, workers=workers,
            retry=retry, task_timeout=task_timeout, deadline=deadline)

    live: list[str] = []
    base_sigs: dict[str, dict | None] = {}
    problems: dict[str, str | None] = {}
    baselines = _signatures([(name, cfg, None) for name in names])
    for name, outcome in zip(names, baselines):
        if outcome.status == "skipped":
            report.skipped.append(f"{name}: time budget exhausted")
            continue
        live.append(name)
        status, value = _finding(outcome, "baseline")
        # No baseline, or one off the committed lock, means nothing to
        # judge against: every schedule of the algorithm inherits the
        # failure rather than masking it, and none of them runs.
        if status == "ok":
            base_sigs[name] = value
            problems[name] = _check_lock(name, value["volume"], cfg,
                                         lock_path)
        else:
            base_sigs[name], problems[name] = None, value

    indices = range(first_schedule, first_schedule + schedules)
    specs = [derive_schedule(seed, index) for index in indices]
    tasks = [(name, cfg, spec_str) for name in live if not problems[name]
             for spec_str in specs]
    perturbed = dict(zip(((t[0], t[2]) for t in tasks), _signatures(tasks)))
    for name in live:
        for index, spec_str in zip(indices, specs):
            outcome = perturbed.get((name, spec_str))
            if outcome is not None and outcome.status == "skipped":
                report.skipped.append(
                    f"{name}: schedules {index}.. skipped (time budget)")
                break
            check = SchedFuzzCheck(
                algorithm=name, index=index, seed=seed,
                schedule_seed=int(spec_str.partition(":")[2]),
                schedule=spec_str)
            report.checks.append(check)
            got_sig = None
            mismatch = problems[name]
            if not mismatch:
                status, value = _finding(outcome, "perturbed")
                if status == "ok":
                    got_sig = value
                    mismatch = _diff_signatures(base_sigs[name], got_sig)
                else:
                    mismatch = value
            if mismatch:
                check.outcome = "failed"
                check.detail = mismatch
                report.artifacts.append(_dump_artifact(
                    artifact_dir, check, cfg, base_sigs[name], got_sig))
    return report
