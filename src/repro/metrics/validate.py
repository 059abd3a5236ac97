"""Measured-vs-modeled communication validation (the observability gate).

The paper's central claim is quantitative: the CA all-pairs algorithm
sends ``S = O(p/c**2)`` messages and ``W = O(n/c)`` words per step, the
cutoff variant ``S = O(m/c)`` / ``W = O(mn/p)``, and the baselines their
classic costs.  :mod:`repro.theory.costs` states those closed forms;
*this* module closes the loop by running each algorithm on the event
simulator, measuring the actual per-rank message/word maxima of the
phases the expression models, and failing loudly when measurement drifts
from theory beyond constant-factor tolerance bands.

Method
------
For every :class:`ModelCase` a (p, c, n) sweep runs through the registry
pipeline.  Per point, the measured latency cost ``S`` is the max over
ranks of messages sent in the case's modeled phases, and the bandwidth
cost ``W`` is the max over ranks of bytes sent there, in 52-byte particle
words.  Each is divided by the theory prediction with unit constants; the
case passes when

* every ratio lies inside an absolute band (default ``[0.25, 4]`` —
  the implementation constant vs the big-O constant), and
* the ratios' max/min spread across the sweep stays below a bound
  (default ``2.5``) — the sharp test: a constant factor cancels in the
  spread, so drift *with* p, c or n (the wrong asymptotic shape) fails
  even when every individual ratio looks plausible.

``tools/metrics_gate.py`` runs this in CI; ``ValidationReport.summary()``
prints the full measured/predicted table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

from repro.machines.base import PARTICLE_BYTES
from repro.theory.bounds import LowerBound
from repro.theory.costs import (
    ca_allpairs_cost,
    ca_cutoff_cost,
    force_decomposition_cost,
    half_systolic_cost,
    hyper_systolic_cost,
    particle_decomposition_cost,
    systolic_ring_cost,
)

__all__ = [
    "ALGORITHM_ALIASES",
    "CaseValidation",
    "MODEL_CASES",
    "ModelCase",
    "PointResult",
    "ValidationReport",
    "resolve_algorithm",
    "validate_case",
    "validate_models",
]

#: Canonical paper-facing names -> registry names.  The observability
#: layer (profile CLI, validation, the metrics gate) accepts either.
ALGORITHM_ALIASES = {
    "ca_allpairs": "allpairs",
    "ca_cutoff": "cutoff",
    "ca_symmetric": "symmetric",
}


def resolve_algorithm(name: str) -> str:
    """Map a canonical/paper name (``ca_allpairs``) to its registry name."""
    return ALGORITHM_ALIASES.get(name, name)


@dataclass(frozen=True)
class ModelCase:
    """One algorithm's measured-vs-modeled contract.

    ``phases`` names the trace phases the closed form models (the paper's
    cost expressions cover the shift/exchange traffic, not the O(log)
    bcast/reduce bookkeeping around it, so each case measures exactly the
    phases its expression is about).  ``predict(n, p, c)`` returns the
    theory :class:`~repro.theory.bounds.LowerBound` with unit constants.
    """

    name: str
    algorithm: str
    phases: tuple[str, ...]
    predict: Callable[[int, int, int], LowerBound]
    sweep: tuple[tuple[int, int, int], ...]  # (p, c, n) points
    band: tuple[float, float] = (0.25, 4.0)
    spread: float = 2.5
    rcut: float | None = None
    dim: int = 1


@dataclass(frozen=True)
class PointResult:
    """Measured and predicted costs of one sweep point."""

    p: int
    c: int
    n: int
    s_measured: float
    w_measured: float  # in particle words
    s_predicted: float
    w_predicted: float

    @property
    def s_ratio(self) -> float:
        return self.s_measured / self.s_predicted

    @property
    def w_ratio(self) -> float:
        return self.w_measured / self.w_predicted


@dataclass
class CaseValidation:
    """One case's sweep results plus every tolerance violation found."""

    case: ModelCase
    points: list[PointResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ValidationReport:
    """All validated cases; ``ok`` only when every case passed."""

    cases: list[CaseValidation]

    @property
    def ok(self) -> bool:
        return all(cv.ok for cv in self.cases)

    def summary(self) -> str:
        """The measured/predicted table plus any failures, as text."""
        lines = [
            f"{'case':<22} {'p':>4} {'c':>3} {'n':>6} "
            f"{'S meas':>8} {'S pred':>8} {'ratio':>6}  "
            f"{'W meas':>9} {'W pred':>9} {'ratio':>6}"
        ]
        for cv in self.cases:
            for pt in cv.points:
                lines.append(
                    f"{cv.case.name:<22} {pt.p:>4} {pt.c:>3} {pt.n:>6} "
                    f"{pt.s_measured:>8.1f} {pt.s_predicted:>8.2f} "
                    f"{pt.s_ratio:>6.2f}  "
                    f"{pt.w_measured:>9.1f} {pt.w_predicted:>9.2f} "
                    f"{pt.w_ratio:>6.2f}"
                )
            status = "OK" if cv.ok else "FAIL"
            lines.append(f"{cv.case.name:<22} -> {status}")
            for msg in cv.failures:
                lines.append(f"    {msg}")
        verdict = "all models validated" if self.ok else "MODEL DRIFT DETECTED"
        lines.append(verdict)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The registered model cases.
# ---------------------------------------------------------------------------


def _cutoff_m(p: int, c: int, rcut: float, box: float = 1.0) -> int:
    """Equation 6's window span for a 1-D team grid of ``p/c`` cells."""
    nteams = p // c
    return math.ceil(rcut * nteams / box - 1e-12)


def _predict_cutoff(rcut: float):
    def predict(n: int, p: int, c: int) -> LowerBound:
        return ca_cutoff_cost(n, p, c, _cutoff_m(p, c, rcut))

    return predict


def _predict_allgather(n: int, p: int, c: int) -> LowerBound:
    # The software allgather here is recursive doubling: log2(p) rounds,
    # each doubling the held data — O(log p) messages but the same O(n)
    # words as the classic O(p)-message ring form the paper's expression
    # (particle_decomposition_cost) describes.
    return LowerBound(messages=max(1.0, math.log2(p)),
                      words=particle_decomposition_cost(n, p).words)


def _predict_hyper(n: int, p: int, c: int) -> LowerBound:
    # The sweep runs with RunSpec.hyper_k = None, i.e. the regular
    # O(sqrt(p)) base; the closed form takes the same K.
    from repro.core.commsched import default_hyper_k

    return hyper_systolic_cost(n, p, default_hyper_k(p))


def _predict_force_decomposition(n: int, p: int, c: int) -> LowerBound:
    # Plimpton's S = O(log p) carries over directly; the W = O(n/sqrt(p))
    # closed form assumes a bandwidth-optimal (pipelined) broadcast,
    # whereas the implementation uses binomial trees whose roots send
    # log2(sqrt(p)) copies of each of the two blocks (row + column) a
    # rank needs — an extra 2 log2(sqrt(p)) factor on the critical rank.
    base = force_decomposition_cost(n, p)
    tree = 2.0 * max(1.0, math.log2(math.sqrt(p)))
    return LowerBound(messages=base.messages, words=base.words * tree)


#: The validated algorithms.  Names are canonical (paper-facing); the
#: ``algorithm`` field is the registry entry that actually runs.
MODEL_CASES: dict[str, ModelCase] = {
    "ca_allpairs": ModelCase(
        name="ca_allpairs",
        algorithm="allpairs",
        phases=("shift",),
        predict=lambda n, p, c: ca_allpairs_cost(n, p, c),
        sweep=((16, 1, 256), (16, 2, 256), (16, 4, 256),
               (32, 2, 256), (32, 4, 256), (16, 2, 512)),
    ),
    "ca_cutoff": ModelCase(
        name="ca_cutoff",
        algorithm="cutoff",
        phases=("shift",),
        predict=_predict_cutoff(0.3),
        sweep=((16, 1, 256), (16, 2, 256), (32, 1, 256),
               (32, 2, 256), (16, 1, 512)),
        rcut=0.3,
        dim=1,
    ),
    "particle_ring": ModelCase(
        name="particle_ring",
        algorithm="particle_ring",
        phases=("shift",),
        predict=lambda n, p, c: particle_decomposition_cost(n, p),
        sweep=((8, 1, 256), (16, 1, 256), (32, 1, 256), (16, 1, 512)),
    ),
    "particle_allgather": ModelCase(
        name="particle_allgather",
        algorithm="particle_allgather",
        phases=("allgather",),
        predict=_predict_allgather,
        sweep=((8, 1, 256), (16, 1, 256), (32, 1, 256), (16, 1, 512)),
    ),
    "force_decomposition": ModelCase(
        name="force_decomposition",
        algorithm="force_decomposition",
        phases=("bcast", "reduce"),
        predict=_predict_force_decomposition,
        sweep=((16, 1, 256), (64, 1, 256), (16, 1, 512)),
    ),
    "systolic_ring": ModelCase(
        name="systolic_ring",
        algorithm="systolic_ring",
        phases=("shift",),
        predict=lambda n, p, c: systolic_ring_cost(n, p),
        sweep=((8, 1, 256), (16, 1, 256), (32, 1, 256), (16, 1, 512)),
    ),
    "half_systolic": ModelCase(
        name="half_systolic",
        algorithm="half_systolic",
        # The closed form counts particle blocks; the wire additionally
        # carries the reaction accumulator (d doubles per particle), a
        # constant factor (52+8d)/52 well inside the band.
        phases=("shift", "return"),
        predict=lambda n, p, c: half_systolic_cost(n, p),
        sweep=((8, 1, 256), (16, 1, 256), (32, 1, 256), (16, 1, 512)),
    ),
    "hyper_systolic": ModelCase(
        name="hyper_systolic",
        algorithm="hyper_systolic",
        # Distribution moves blocks, collection moves force arrays — the
        # blended bytes-per-word sit below 1 but constant across the sweep.
        phases=("shift", "collect"),
        predict=_predict_hyper,
        sweep=((16, 1, 256), (32, 1, 256), (64, 1, 256), (16, 1, 512)),
    ),
}


# ---------------------------------------------------------------------------
# Measurement and judgment.
# ---------------------------------------------------------------------------


def _measure_point(case: ModelCase, p: int, c: int, n: int,
                   machine_factory=None,
                   engine_tier: str = "event") -> PointResult:
    """Run one sweep point through the pipeline and read S and W back."""
    from repro.core.runner import RunSpec, run
    from repro.machines import GenericMachine

    factory = machine_factory or (lambda ranks: GenericMachine(nranks=ranks))
    spec = RunSpec(
        machine=factory(p), algorithm=case.algorithm, n=n, seed=0, c=c,
        rcut=case.rcut, dim=case.dim if case.rcut is not None else None,
        engine_tier=engine_tier,
    )
    report = run(spec).report
    s_meas = 0.0
    w_bytes = 0.0
    for tr in report.traces:
        msgs = sum(tr.phases[ph].messages_sent
                   for ph in case.phases if ph in tr.phases)
        nbytes = sum(tr.phases[ph].bytes_sent
                     for ph in case.phases if ph in tr.phases)
        s_meas = max(s_meas, msgs)
        w_bytes = max(w_bytes, nbytes)
    pred = case.predict(n, p, c)
    return PointResult(
        p=p, c=c, n=n,
        s_measured=s_meas, w_measured=w_bytes / PARTICLE_BYTES,
        s_predicted=pred.messages, w_predicted=pred.words,
    )


def _point_task(task: tuple) -> PointResult:
    """Parallel work unit: one sweep point of a *registered* model case.

    Cases are looked up by name in :data:`MODEL_CASES` because their
    ``predict`` closures are not picklable.
    """
    case_name, p, c, n, engine_tier = task
    return _measure_point(MODEL_CASES[case_name], p, c, n,
                          engine_tier=engine_tier)


def _judge_case(case: ModelCase, points: list[PointResult], *,
                band: tuple[float, float] | None = None,
                spread: float | None = None) -> CaseValidation:
    """Judge measured sweep points against the case's tolerance bands."""
    band = band or case.band
    spread = spread or case.spread
    cv = CaseValidation(case=case, points=list(points))
    lo, hi = band
    for label, ratios in (
        ("S", [pt.s_ratio for pt in cv.points]),
        ("W", [pt.w_ratio for pt in cv.points]),
    ):
        for pt, r in zip(cv.points, ratios):
            if not lo <= r <= hi:
                cv.failures.append(
                    f"{label} at (p={pt.p}, c={pt.c}, n={pt.n}): measured/"
                    f"predicted = {r:.3f} outside band [{lo}, {hi}]"
                )
        rmin, rmax = min(ratios), max(ratios)
        if rmin > 0 and rmax / rmin > spread:
            cv.failures.append(
                f"{label} ratio drifts across the sweep: spread "
                f"{rmax / rmin:.2f}x exceeds {spread}x — measured cost does "
                f"not scale as the model predicts"
            )
    return cv


#: Run-cache namespace for measured sweep points (bump on schema change).
VALIDATE_NAMESPACE = "modelcase-v1"


def _point_key(case_name: str, p: int, c: int, n: int,
               engine_tier: str) -> str:
    """Cache fingerprint of one measured sweep point."""
    return f"point;case={case_name};p={p};c={c};n={n};tier={engine_tier}"


def _measure_cases(cases: list[ModelCase], *, machine_factory,
                   engine_tier: str, workers: int, retry, task_timeout,
                   cache) -> list[list[PointResult]]:
    """Every sweep point of every case through one cached fan-out.

    Returns one point list per case.  Registered cases under the default
    machine factory are keyed on ``(case, p, c, n, engine_tier)`` in
    :data:`VALIDATE_NAMESPACE` and may run in worker processes; an
    ad-hoc case (or a custom ``machine_factory``) carries closures that
    neither pickle nor show in a key, so its points have no key and
    measure in-process.  Points lost beyond retry raise one aggregated
    :class:`~repro.core.parallel.WorkerError`, after the measured ones
    were stored.
    """
    from repro.core.parallel import cached_map, values_or_raise
    from repro.core.runcache import resolve_cache

    tasks = [(case.name, p, c, n, engine_tier)
             for case in cases for p, c, n in case.sweep]
    if machine_factory is None and all(
            MODEL_CASES.get(case.name) is case for case in cases):
        fn = _point_task
        keys = [_point_key(*task) for task in tasks]
        store = resolve_cache(cache, namespace=VALIDATE_NAMESPACE)
    else:
        by_name = {case.name: case for case in cases}

        def fn(task):
            name, p, c, n, tier = task
            return _measure_point(by_name[name], p, c, n,
                                  machine_factory=machine_factory,
                                  engine_tier=tier)

        keys, store, workers = [None] * len(tasks), None, 0
    flat = iter(values_or_raise(cached_map(
        fn, tasks, keys=keys, store=store, workers=workers, retry=retry,
        task_timeout=task_timeout)))
    return [list(islice(flat, len(case.sweep))) for case in cases]


def validate_case(case: ModelCase, *, machine_factory=None,
                  band: tuple[float, float] | None = None,
                  spread: float | None = None,
                  engine_tier: str = "event",
                  workers: int = 0, retry=None,
                  task_timeout: float | None = None,
                  cache=None) -> CaseValidation:
    """Sweep one case and judge every ratio against its tolerance bands.

    ``engine_tier`` selects the simulator the sweep runs on (``"event"``
    or ``"heuristic"`` — both must satisfy the same closed forms).
    ``workers`` / ``retry`` / ``task_timeout`` / ``cache`` go to the one
    cached fan-out (:func:`repro.core.parallel.cached_map`,
    ``docs/resilient-sweeps.md``; keys and the ad-hoc-case exemption:
    :func:`_measure_cases`).  Judgement always re-runs against the
    current bands, so a cached sweep still fails a tightened tolerance.
    """
    (points,) = _measure_cases(
        [case], machine_factory=machine_factory, engine_tier=engine_tier,
        workers=workers, retry=retry, task_timeout=task_timeout, cache=cache)
    return _judge_case(case, points, band=band, spread=spread)


def validate_models(names: list[str] | None = None, *,
                    machine_factory=None, engine_tier: str = "event",
                    workers: int = 0, retry=None,
                    task_timeout: float | None = None,
                    cache=None) -> ValidationReport:
    """Validate the named model cases (default: all of :data:`MODEL_CASES`).

    ``names`` accepts canonical names (``ca_allpairs``) or registry names
    (``allpairs``).  ``machine_factory(p)`` overrides the machine model
    (default: a flat :class:`~repro.machines.GenericMachine`).
    ``engine_tier`` selects the simulator ("event" or "heuristic") — the
    closed forms must hold on both.  Every sweep point of every selected
    case goes through **one** cached fan-out (``workers`` / ``retry`` /
    ``task_timeout`` / ``cache`` as on :func:`validate_case`); each point
    is a pure function of ``(case, p, c, n)``, so the report is the same
    for any worker count or cache state.
    """
    if names is None:
        selected = list(MODEL_CASES.values())
    else:
        by_alg = {case.algorithm: case for case in MODEL_CASES.values()}
        selected = []
        for name in names:
            case = MODEL_CASES.get(name) or by_alg.get(resolve_algorithm(name))
            if case is None:
                known = ", ".join(sorted(MODEL_CASES))
                raise KeyError(f"no model case for {name!r} (known: {known})")
            selected.append(case)
    measured = _measure_cases(
        selected, machine_factory=machine_factory, engine_tier=engine_tier,
        workers=workers, retry=retry, task_timeout=task_timeout, cache=cache)
    return ValidationReport(cases=[
        _judge_case(case, points)
        for case, points in zip(selected, measured)])
