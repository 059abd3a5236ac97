"""Resilient RunSpec sweeps: cache lookup first, supervised execution after.

The ``python -m repro sweep`` engine.  A *sweep* is a batch of run
descriptors — plain dicts naming a registered algorithm and its
configuration knobs.  Every descriptor is normalized (defaults filled,
unknown keys rejected) and fingerprinted — :func:`task_fingerprint` is a
pure function of the normalized descriptor — and the batch goes through
the one cached fan-out, :func:`repro.core.parallel.cached_map` (policy:
``docs/resilient-sweeps.md``), keyed on those fingerprints in the
:data:`SWEEP_NAMESPACE` run cache; every computed record is cacheable.
Tasks that failed every attempt land in a replayable JSON quarantine
artifact (:func:`replay_quarantine` re-runs exactly those units).

Because each sweep point is a pure function of its descriptor (the
workload is synthesized from ``seed``), the merged report is
**bitwise-identical** however it was produced: serially, across any
number of workers, with tasks retried after injected crashes, or served
from a cache written by an earlier (even interrupted) sweep.  The
integration suite locks all four paths against each other.

Result records are self-contained plain data (force/id arrays travel as
raw bytes + dtype + shape), so they pickle compactly into the cache and
compare bitwise across processes.  The cache namespace is versioned
(:data:`SWEEP_NAMESPACE`); bump it whenever the record schema changes so
stale entries miss instead of mis-decoding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.core.parallel import (
    RetryPolicy, TaskOutcome, cached_map, load_quarantine, write_quarantine,
)
from repro.core.runcache import RunCache, resolve_cache

__all__ = [
    "SWEEP_NAMESPACE",
    "SweepReport",
    "expand_grid",
    "normalize_task",
    "replay_quarantine",
    "run_sweep",
    "sweep_task",
    "task_fingerprint",
]

#: Cache namespace — versions the result-record schema (see module doc).
SWEEP_NAMESPACE = "sweep-v1"


def _coerce(name: str, value, kind: type):
    """``kind(value)`` for one descriptor field, or ``ValueError``: strings
    parse; numbers must be non-bool, finite and (``int``) integral."""
    ok = isinstance(value, str) or (
        kind is not str and isinstance(value, numbers.Real)
        and not isinstance(value, bool))
    if ok:
        try:
            out = kind(value)
        except (ValueError, OverflowError):
            ok = False
        else:
            ok = kind is str or (math.isfinite(out) and (
                kind is float or isinstance(value, str) or out == value))
    if not ok:
        raise ValueError(f"descriptor field {name!r} must be "
                         f"{kind.__name__}, got {value!r:.80}")
    return out


#: Descriptor fields, their defaults, and their normalizers.  ``None``
#: defaults stay ``None`` (optional knobs); everything else is coerced so
#: equivalent spellings (``16`` vs ``16.0`` vs ``"16"``) fingerprint
#: identically, and anything else raises ``ValueError``.
_FIELDS: dict = {
    "algorithm": (None, str),
    "machine": ("generic", str),
    "p": (16, int),
    "c": (1, int),
    "n": (64, int),
    "seed": (0, int),
    "rcut": (None, float),
    "dim": (None, int),
    "hyper_k": (None, int),
    "engine_tier": ("event", str),
}

_MACHINES = ("generic", "torus", "hopper", "intrepid")


def normalize_task(desc: dict) -> dict:
    """Canonical form of a sweep descriptor: defaults filled, types fixed.

    Unknown keys and a missing ``algorithm`` are rejected loudly (a typo
    must not silently fingerprint as a different run).  As the
    ``repro serve`` trust boundary it raises ``ValueError`` (HTTP 400),
    never another exception, for a malformed value (:func:`_coerce`),
    ``null`` where a field has a default and ``p``/``n``/``c`` below 1;
    unknown algorithm *names* pass.  The result is a plain dict in fixed
    field order, safe to JSON-roundtrip — quarantine replay feeds these
    back in unchanged.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"sweep descriptor must be an object, "
                         f"got {desc!r:.80}")
    unknown = sorted(set(desc) - set(_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown sweep descriptor keys {unknown} "
            f"(known: {sorted(_FIELDS)})")
    out: dict = {}
    for name, (default, kind) in _FIELDS.items():
        value = desc.get(name, default)
        if value is None:
            if default is not None:
                raise ValueError(f"descriptor field {name!r} may not be null")
        elif type(value) is not kind or (
                kind is float and not math.isfinite(value)):
            value = _coerce(name, value, kind)
        out[name] = value
    if not out["algorithm"]:
        raise ValueError(f"sweep descriptor needs an 'algorithm': {desc!r}")
    for name in ("p", "n", "c"):
        if out[name] < 1:
            raise ValueError(f"descriptor field {name!r} must be >= 1, "
                             f"got {out[name]}")
    if out["machine"] not in _MACHINES:
        raise ValueError(f"unknown machine {out['machine']!r} "
                         f"(known: {list(_MACHINES)})")
    if out["engine_tier"] not in ("event", "heuristic"):
        raise ValueError(f"engine_tier must be 'event' or 'heuristic', "
                         f"got {out['engine_tier']!r}")
    return out


def task_fingerprint(desc: dict) -> str:
    """The content-address key of one sweep point.

    A pure function of the *normalized* descriptor (same idiom as
    :func:`repro.core.checkpoint.simulation_fingerprint`: joined
    ``key=value`` parts), so logically-equal descriptors share a cache
    entry regardless of spelling or key order.
    """
    d = normalize_task(desc)
    parts = [f"{k}={d[k]!r}" for k in _FIELDS]
    return SWEEP_NAMESPACE + ";" + ";".join(parts)


def _build_machine(name: str, p: int):
    """Instantiate the named machine model at ``p`` ranks (Hopper and
    Intrepid with :func:`~repro.machines.node_cores`-sized nodes)."""
    from repro.machines import (
        GenericMachine, GenericTorus, Hopper, Intrepid, node_cores,
    )

    if name == "generic":
        return GenericMachine(p)
    if name == "torus":
        return GenericTorus(p)
    factory = {"hopper": Hopper, "intrepid": Intrepid}[name]
    return factory(p, cores_per_node=node_cores(name, p))


def sweep_task(desc: dict) -> dict:
    """Run one sweep point — the (pure) parallel work unit.

    Returns the self-contained result record: comm-volume/makespan
    scalars plus the force/id arrays as raw bytes (``None`` for
    heuristic-tier runs, which compute no forces).  A pure function
    of the normalized descriptor, which is what makes the run cache and
    the service's single-flight coalescing sound — the record is
    bitwise-identical however and wherever it is recomputed.  Shared
    with :mod:`repro.service`, whose jobs are exactly these records.
    """
    from repro.core.runner import RunSpec, run

    spec = RunSpec(
        machine=_build_machine(desc["machine"], desc["p"]),
        algorithm=desc["algorithm"],
        n=desc["n"],
        c=desc["c"],
        seed=desc["seed"],
        rcut=desc["rcut"],
        dim=desc["dim"],
        hyper_k=desc["hyper_k"],
        engine_tier=desc["engine_tier"],
    )
    out = run(spec)
    report = out.report
    record = {
        "algorithm": desc["algorithm"],
        "fingerprint": task_fingerprint(desc),
        "elapsed": float(out.run.elapsed),
        "critical_messages": int(report.critical_messages()),
        "critical_bytes": int(report.critical_bytes()),
        "forces": None,
        "forces_dtype": None,
        "forces_shape": None,
        "ids": None,
        "ids_dtype": None,
    }
    if out.forces is not None:
        record["forces"] = out.forces.tobytes()
        record["forces_dtype"] = str(out.forces.dtype)
        record["forces_shape"] = list(out.forces.shape)
        record["ids"] = out.ids.tobytes()
        record["ids_dtype"] = str(out.ids.dtype)
    return record


@dataclass
class SweepReport:
    """Every sweep point's outcome plus cache/quarantine accounting."""

    tasks: list[dict]
    outcomes: list[TaskOutcome]
    cache_stats: object | None = None
    quarantine: str | None = None

    @property
    def failures(self) -> list[TaskOutcome]:
        """Outcomes that produced no value (failed / timeout / crashed)."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def cached(self) -> list[TaskOutcome]:
        """Outcomes served from the run cache without recomputation."""
        return [o for o in self.outcomes if o.status == "cached"]

    @property
    def coalesced(self) -> list[TaskOutcome]:
        """In-batch duplicates served another point's result (single-flight)."""
        return [o for o in self.outcomes if o.status == "coalesced"]

    @property
    def computed(self) -> list[TaskOutcome]:
        """Outcomes that actually executed an engine run."""
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def ok(self) -> bool:
        """Whether every sweep point produced a value."""
        return not self.failures

    def describe_task(self, i: int) -> str:
        """One log line for sweep point ``i``: status, config, attempts."""
        d, o = self.tasks[i], self.outcomes[i]
        knobs = " ".join(
            f"{k}={d[k]}" for k in ("p", "c", "n", "seed") )
        extra = "".join(
            f" {k}={d[k]}" for k in ("rcut", "dim", "hyper_k")
            if d[k] is not None)
        tier = "" if d["engine_tier"] == "event" else f" tier={d['engine_tier']}"
        line = (f"task {i:3d} [{o.status:7s}] {d['algorithm']:16s} "
                f"{knobs}{extra}{tier}")
        if o.attempts > 1 or (o.attempts and o.status != "ok"):
            line += f" attempts={o.attempts}"
        if not o.ok:
            last = (o.error or "").strip().splitlines()
            line += f" — {last[-1] if last else 'no detail'}"
        return line

    def summary(self) -> str:
        """Per-task log lines plus the tally and cache accounting."""
        lines = [self.describe_task(i) for i in range(len(self.tasks))]
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        lines.append(f"sweep: {len(self.tasks)} tasks ({tally})")
        if self.cache_stats is not None:
            lines.append(f"cache: {self.cache_stats.describe()}")
        if self.quarantine:
            lines.append(f"quarantine: {self.quarantine} (replay with "
                         f"repro.experiments.sweep.replay_quarantine)")
        return "\n".join(lines)


def run_sweep(
    tasks,
    *,
    workers: int = 0,
    retry: RetryPolicy | int | None = None,
    task_timeout: float | None = None,
    cache: RunCache | str | None = None,
    quarantine: str | None = None,
) -> SweepReport:
    """Run a batch of sweep descriptors resiliently; see module docstring.

    ``cache`` (a directory path or :class:`RunCache`) is consulted per
    fingerprint before anything executes — an interrupted sweep re-run
    with the same cache resumes from whatever completed earlier, and a
    fully warm cache serves the whole sweep with zero engine recomputes.
    ``workers`` / ``retry`` / ``task_timeout`` / ``cache`` go to
    :func:`~repro.core.parallel.cached_map`, which also single-flights
    duplicate descriptors into ``"coalesced"`` outcomes; ``quarantine``
    names the JSON artifact for tasks that failed every attempt.  Never
    raises on task failure — inspect :attr:`SweepReport.failures` /
    :attr:`SweepReport.ok`.
    """
    descs = [normalize_task(t) for t in tasks]
    store = resolve_cache(cache, namespace=SWEEP_NAMESPACE)
    outcomes = cached_map(
        sweep_task, descs, keys=[task_fingerprint(d) for d in descs],
        store=store, workers=workers, retry=retry, task_timeout=task_timeout)
    quarantine_path = None
    if quarantine:
        quarantine_path = write_quarantine(quarantine, descs, outcomes)
    return SweepReport(tasks=descs, outcomes=outcomes,
                       cache_stats=None if store is None else store.stats,
                       quarantine=quarantine_path)


def replay_quarantine(path: str, **kwargs) -> SweepReport:
    """Re-run exactly the quarantined sweep points from an artifact.

    The artifact's ``task`` payloads are normalized descriptors, so they
    feed straight back into :func:`run_sweep` (all of whose keyword
    arguments pass through — replay with more retries, a longer timeout,
    or a cache as appropriate).
    """
    entries = load_quarantine(path)
    return run_sweep([e["task"] for e in entries], **kwargs)


def expand_grid(
    algorithms,
    *,
    ps=(16,),
    cs=(1,),
    ns=(64,),
    seeds=(0,),
    rcut: float | None = None,
    dim: int | None = None,
    hyper_k: int | None = None,
    engine_tier: str = "event",
    machine: str = "generic",
) -> tuple[list[dict], dict]:
    """The cross product of sweep knobs as descriptors, capability-aware.

    Mirrors the compare harness's skip logic: algorithms without a
    replication knob run once at ``c=1`` (duplicate grid points are
    dropped, so ``cs=(1, 2, 4)`` doesn't run a baseline three times);
    cutoff-windowed algorithms are skipped with a reason when ``rcut`` is
    missing, square-p algorithms when some ``p`` is not square.  Returns
    ``(tasks, skipped)`` where ``skipped`` maps algorithm name to the
    reason it was (partially) excluded.
    """
    from repro.core.runner import get_algorithm

    tasks: list[dict] = []
    skipped: dict[str, str] = {}
    seen: set[str] = set()
    for name in algorithms:
        alg = get_algorithm(name)
        if alg.needs_rcut and rcut is None:
            skipped[name] = "needs a cutoff radius (pass rcut=...)"
            continue
        for p in ps:
            q = int(round(p ** 0.5))
            if alg.square_p and q * q != p:
                skipped[name] = f"needs a square rank count (skipped p={p})"
                continue
            for c in cs:
                c_eff = c if alg.supports_c else 1
                for n in ns:
                    for seed in seeds:
                        desc = normalize_task({
                            "algorithm": name, "machine": machine,
                            "p": p, "c": c_eff, "n": n, "seed": seed,
                            "rcut": rcut if alg.needs_rcut else None,
                            "dim": dim, "hyper_k": hyper_k,
                            "engine_tier": engine_tier,
                        })
                        fp = task_fingerprint(desc)
                        if fp not in seen:
                            seen.add(fp)
                            tasks.append(desc)
    return tasks, skipped
