"""Cross-algorithm comparison harness over the registry pipeline.

Every registered algorithm runs the *same* workload on the same
machine through :func:`repro.core.runner.run`, and the harness tabulates
what the paper's evaluation compares: per-phase virtual times, per-rank
message and byte maxima (the latency cost ``S`` and bandwidth cost ``W``),
the virtual makespan, and force agreement against the serial reference.

Algorithms whose requirements the shared configuration cannot meet (a
cutoff-windowed method without ``rcut``, Plimpton's force decomposition on
a non-square rank count) are skipped with a recorded reason rather than
silently dropped — the rendered table lists them.

This is the ``python -m repro compare`` subcommand's engine and a
programmatic API for notebooks/scripts:

>>> result = compare_algorithms(machine, particles, c=4, rcut=0.3)
>>> print(render_comparison(result))
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.runner import (
    Run, RunSpec, fault_compat, get_algorithm, list_algorithms, run,
)
from repro.machines.base import PARTICLE_BYTES
from repro.metrics.registry import MetricsRegistry
from repro.physics.forces import ForceLaw
from repro.physics.particles import ParticleSet
from repro.physics.reference import reference_forces

__all__ = ["AlgorithmComparison", "ComparisonResult", "compare_algorithms",
           "render_comparison"]


@dataclass
class AlgorithmComparison:
    """One algorithm's row of the comparison table."""

    algorithm: str
    #: Virtual makespan of the run (seconds on the modeled machine).
    elapsed: float
    #: Max over ranks of total messages sent — the latency cost S.
    critical_messages: int
    #: Max over ranks of total bytes sent — the bandwidth cost W.
    critical_bytes: int
    #: ``critical_bytes`` in 52-byte particle words (the paper's W unit).
    critical_words: float
    #: Candidate pairs scanned by the force kernel (the flop proxy).
    interactions: int
    #: Phase label -> {max_s, mean_s, max_messages, max_bytes}.
    phase_table: dict
    #: Max absolute force deviation from the serial reference.
    max_abs_dev: float
    #: The full pipeline result (report, trace, raw engine output).
    run: Run
    #: Per-run metrics registry (comm/time/kernel series for this row).
    metrics: object | None = None


@dataclass
class ComparisonResult:
    """All compared algorithms plus the skipped ones with reasons."""

    entries: list[AlgorithmComparison]
    #: Algorithm name -> why it could not run on the shared configuration.
    skipped: dict[str, str]


def _compare_task(task: tuple) -> AlgorithmComparison:
    """One algorithm's comparison row — the parallel work unit.

    ``task`` is ``(spec, name, ref_ordered)`` where ``ref_ordered`` is the
    serial-reference force array already permuted into the run's output
    order (``None`` when there is nothing to compare against, e.g. the
    heuristic engine tier, which models traffic but computes no forces —
    the row then reports ``max_abs_dev = nan``).
    """
    spec, name, ref_ordered = task
    metrics = MetricsRegistry()
    out = run(replace(spec, metrics=metrics))
    if out.forces is None or ref_ordered is None:
        dev = float("nan")
    else:
        dev = float(np.max(np.abs(out.forces - ref_ordered)))
    report = out.report
    return AlgorithmComparison(
        algorithm=name,
        elapsed=out.run.elapsed,
        critical_messages=report.critical_messages(),
        critical_bytes=report.critical_bytes(),
        critical_words=report.critical_bytes() / PARTICLE_BYTES,
        interactions=int(metrics.value("kernel.pairs")),
        phase_table=report.phase_table(),
        max_abs_dev=dev,
        run=out,
        metrics=metrics,
    )


#: Run-cache namespace for comparison rows (bump on schema change).
COMPARE_NAMESPACE = "compare-v1"


def _workload_digest(workload) -> str:
    """sha256 of the workload arrays, in full — hashed once per call."""
    import hashlib

    h = hashlib.sha256()
    h.update(workload.pos.tobytes())
    h.update(workload.vel.tobytes())
    h.update(workload.ids.tobytes())
    return h.hexdigest()


def _row_fingerprint(spec: RunSpec, name: str, digest: str) -> str:
    """Content fingerprint of one comparison row (pure in its inputs).

    ``digest`` is :func:`_workload_digest` — a row is only served from
    cache for the *exact same* particles — alongside every spec knob
    that can change the row's numbers.
    """
    parts = [
        f"alg={name}", f"machine={spec.machine!r}", f"c={spec.c}",
        f"rcut={spec.rcut!r}", f"law={spec.law!r}",
        f"hyper_k={spec.hyper_k!r}", f"dim={spec.dim!r}",
        f"box={spec.box_length!r}", f"periodic={spec.periodic}",
        f"team_dims={spec.team_dims!r}", f"geometry={spec.geometry!r}",
        f"layout={spec.layout}", f"use_tree={spec.use_tree}",
        f"eager={spec.eager_threshold}", f"scratch={spec.scratch}",
        f"faults={spec.faults!r}", f"opts={spec.engine_opts!r}",
        f"schedule={spec.schedule!r}", f"tier={spec.engine_tier}",
        f"workload={digest}",
    ]
    return "compare-row;" + ";".join(parts)


def compare_algorithms(
    machine,
    particles: ParticleSet | None = None,
    *,
    algorithms: list[str] | None = None,
    workers: int = 0,
    retry=None,
    task_timeout: float | None = None,
    cache=None,
    **spec_kwargs,
) -> ComparisonResult:
    """Run registered algorithms on one shared configuration and compare.

    ``algorithms`` defaults to every registered algorithm;
    remaining keyword arguments populate the shared
    :class:`~repro.core.runner.RunSpec` (``c``, ``law``, ``rcut``, ``n``,
    ``seed``, ``faults``, ``engine_opts``, ``engine_tier``, ...).  The
    replication factor is dropped to 1 for algorithms without a
    replication knob; algorithms whose requirements are unmet are skipped
    with a reason.

    Force agreement is judged per algorithm against the serial reference
    for the physics that algorithm computes: cutoff-windowed methods
    against the cutoff-limited law, unrestricted methods against the open
    law — so one call can meaningfully compare both families.  With
    ``engine_tier="heuristic"`` no forces are computed, the reference is
    skipped, and every row reports ``max_abs_dev = nan`` — the comparison
    is then purely about virtual time and comm volume.

    A ``faults=`` schedule runs every algorithm degraded, so retry /
    recovery overhead lands in each phase table.  Schedules that kill
    ranks run only on algorithms with a kill-recovery path
    (``fault_mode == "kills"``) at replication ``c >= 2``; the rest are
    skipped with the reason recorded.

    The rows go through the one cached fan-out,
    :func:`repro.core.parallel.cached_map` (``docs/resilient-sweeps.md``;
    ``workers`` / ``retry`` / ``task_timeout`` / ``cache`` go there);
    every row is a pure function of its spec, so the result is identical
    for any worker count, in the same algorithm order.  Keys are
    :func:`_row_fingerprint` — the exact workload bytes plus every spec
    knob — in :data:`COMPARE_NAMESPACE`; a row accumulating into a
    ``pair_counter`` has no key and always recomputes (the coverage side
    effect must happen).  Rows still lost after every retry raise one
    aggregated :class:`~repro.core.parallel.WorkerError` naming each of
    them — after the rows that did complete were stored, so a re-run
    with the same cache computes only what is missing.
    """
    from repro.core.parallel import cached_map, values_or_raise
    from repro.core.runcache import resolve_cache

    names = list(algorithms) if algorithms is not None else list_algorithms()
    base = RunSpec(machine=machine, algorithm="", particles=particles,
                   **spec_kwargs)
    workload = base.workload()
    base = replace(base, particles=workload, n=None)

    p = machine.nranks
    q = int(round(p**0.5))
    skipped: dict[str, str] = {}
    ref_cache: dict[ForceLaw, np.ndarray] = {}
    order = np.argsort(workload.ids, kind="stable")
    digest = _workload_digest(workload)
    tasks: list[tuple] = []
    keys: list[str | None] = []

    for name in names:
        alg = get_algorithm(name)
        if alg.needs_rcut and base.rcut is None:
            skipped[name] = "needs a cutoff radius (pass rcut=...)"
            continue
        if alg.square_p and q * q != p:
            skipped[name] = f"needs a square rank count, machine has p={p}"
            continue
        c_eff = base.c if alg.supports_c else 1
        reason = fault_compat(alg, base.faults, c_eff)
        if reason is not None:
            skipped[name] = reason
            continue
        spec = replace(base, algorithm=name, c=c_eff)
        if base.engine_tier == "heuristic":
            ref_ordered = None
        else:
            ref_law = (spec.resolved_law() if alg.needs_rcut
                       else (spec.law or ForceLaw()))
            ref = ref_cache.get(ref_law)
            if ref is None:
                ref = ref_cache[ref_law] = reference_forces(ref_law, workload)
            ref_ordered = ref[order]
        tasks.append((spec, name, ref_ordered))
        keys.append(None if spec.pair_counter is not None
                    else _row_fingerprint(spec, name, digest))

    outcomes = cached_map(
        _compare_task, tasks, keys=keys,
        store=resolve_cache(cache, namespace=COMPARE_NAMESPACE),
        workers=workers, retry=retry, task_timeout=task_timeout)
    return ComparisonResult(entries=values_or_raise(outcomes),
                            skipped=skipped)


def render_comparison(result: ComparisonResult) -> str:
    """The comparison as an aligned text table plus per-phase breakdowns."""
    lines = [
        f"{'algorithm':<22} {'elapsed(s)':>12} {'S=maxmsgs':>10} "
        f"{'W=maxbytes':>12} {'W=words':>9} {'pairs':>9} {'max|dF|':>10}"
    ]
    for e in result.entries:
        lines.append(
            f"{e.algorithm:<22} {e.elapsed:>12.6f} {e.critical_messages:>10d} "
            f"{e.critical_bytes:>12d} {e.critical_words:>9.1f} "
            f"{e.interactions:>9d} {e.max_abs_dev:>10.2e}"
        )
    for name, reason in result.skipped.items():
        lines.append(f"{name:<22} skipped: {reason}")
    if result.entries:
        lines.append("")
        lines.append("phase breakdown (max seconds over ranks):")
        for e in result.entries:
            parts = " | ".join(
                f"{lab} {cell['max_s']:.6f}"
                + (f" ({cell['retries']}rx)" if cell.get("retries") else "")
                for lab, cell in e.phase_table.items()
            )
            lines.append(f"  {e.algorithm:<20} {parts}")
    return "\n".join(lines)
