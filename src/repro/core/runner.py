"""The algorithm registry and the single run pipeline.

Every single-step interaction algorithm in :mod:`repro.core` — the CA
all-pairs and cutoff algorithms, the symmetric variant, the midpoint
method and the four baselines — plugs into one orchestration pipeline:

1. **validate** — a :class:`RunSpec` is checked against the registered
   algorithm's declared capabilities (replication support, cutoff
   requirement, fault-recovery mode);
2. **prepare** — the algorithm's registered adapter builds its
   configuration, distributes particle blocks, and returns the rank
   program plus a force-collection strategy;
3. **execute** — one :class:`~repro.simmpi.engine.Engine` is constructed
   (threading ``faults``, ``eager_threshold`` and ``engine_opts``
   uniformly) and runs the program;
4. **collect** — leader forces are gathered and ordered by particle id
   into a uniform :class:`Run` result.

Modeled runs are a workload, not an algorithm: a
:class:`~repro.physics.particles.PhantomSet` in ``RunSpec.particles`` makes
``allpairs``, ``cutoff`` and ``symmetric`` run on phantom blocks (see
:func:`team_setup`); every other adapter rejects it.

Because the engine construction and the kernel options live in the
pipeline, every registered algorithm accepts a
:class:`~repro.simmpi.faults.FaultSchedule`, ``engine_opts`` and the
kernel ``scratch`` toggle for free — algorithms only declare whether they
can *recover* from rank kills (``fault_mode="kills"``) or merely tolerate
transient transfer faults (``"transient"``, the engine's retry protocol).

New algorithms register with :func:`register_algorithm` and are picked up
automatically by ``python -m repro algorithms``, the ``compare``
subcommand, the cross-algorithm equivalence test matrix, and
``tools/check_registry.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.ca_step import CAConfig, check_fault_replication
from repro.core.decomposition import (
    collect_leader_forces,
    team_blocks_even,
    team_blocks_spatial,
    virtual_team_blocks,
)
from repro.physics.forces import ForceLaw
from repro.physics.kernels import VirtualKernel, kernel_for
from repro.physics.particles import ParticleSet, PhantomSet
from repro.simmpi.engine import Engine, RunResult
from repro.simmpi.faults import FaultSchedule
from repro.util import require

__all__ = [
    "Algorithm",
    "Prepared",
    "Run",
    "RunSpec",
    "fault_compat",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "run",
    "team_setup",
]


@dataclass
class RunSpec:
    """Everything needed to run one registered algorithm once.

    The spec is algorithm-agnostic: fields an algorithm does not use are
    ignored by its adapter (and flagged by :func:`run`'s validation where
    they would be misleading, e.g. ``c != 1`` for an algorithm without a
    replication knob).

    Parameters
    ----------
    machine:
        Machine model supplying the rank count and the cost model.
    algorithm:
        Registry name (see :func:`list_algorithms`).
    particles:
        The workload: a :class:`~repro.physics.particles.ParticleSet`, or
        a :class:`~repro.physics.particles.PhantomSet` for a modeled run
        (``allpairs``, ``cutoff`` and ``symmetric`` only).  May be omitted
        if ``n`` (+ ``seed``) is given — then a uniform random workload is
        drawn.
    n:
        Size of the synthesized workload when ``particles`` is omitted.
    c:
        Replication factor for the CA family (ignored by baselines, which
        require ``c = 1``).
    hyper_k:
        Hyper-systolic replication parameter K (the number of systolic
        strides; the family's analogue of ``c``).  ``None`` (default)
        picks the regular base ``K = ceil(sqrt(p)) + ceil(p /
        ceil(sqrt(p))) - 1``; only the ``hyper_systolic`` algorithm reads
        it.
    law:
        Force law; defaults to :class:`~repro.physics.forces.ForceLaw()`.
        Cutoff algorithms force the law's cutoff to ``rcut``.
    rcut, box_length, dim, team_dims, periodic, geometry:
        Spatial parameters for cutoff-windowed algorithms (``rcut`` is
        required exactly by the algorithms whose registry entry says so).
    layout:
        Rank layout of the replicated grid (``rows``/``teams``).
    use_tree:
        Particle-allgather baseline: post the allgather on the machine's
        dedicated hardware collective network.
    pair_counter:
        Optional global pair-coverage matrix (exactly-once instrumentation).
    eager_threshold, faults, engine_opts:
        Engine construction knobs, threaded uniformly through every
        algorithm: eager/rendezvous protocol switch-over, fault schedule,
        and extra :class:`~repro.simmpi.engine.Engine` keyword arguments
        (e.g. ``{"fast_path": False}``).
    scratch:
        Kernel scratch-pool toggle (``False`` selects the allocating
        reference path; bitwise-identical forces either way).
    metrics:
        Optional :class:`~repro.metrics.registry.MetricsRegistry`.  Threaded
        to both the engine (communication / time / fault metrics, recorded
        once after the run) and the force kernel (the ``kernel.pairs``
        interaction counter).  ``None`` (default) records nothing and adds
        no work.
    schedule:
        Optional :class:`~repro.simmpi.schedule.SchedulePolicy` or spec
        string (``"fifo"``, ``"random:SEED"``, ``"adversarial[:SEED]"``)
        perturbing the engine's scheduler free choices.  Forces, clocks
        and traffic are bitwise identical under every policy — the knob
        exists so the schedule fuzzer (and any suspicious test) can prove
        it.  ``None`` (default) keeps the FIFO fast path.
    engine_tier:
        Which simulator executes the run.  ``"event"`` (default): the
        exact generator-coroutine engine — required for faults, schedule
        perturbation, pair coverage and force output.
        ``"heuristic"``: the vectorized phase-advance tier
        (:mod:`repro.simmpi.fastsim`) — same ``RunResult`` schema with
        bit-exact per-rank/per-phase traffic but approximate clocks and
        no forces; orders of magnitude faster at large ``p``.  See
        ``docs/performance.md`` for the selection matrix.
    seed:
        Seed for the synthesized workload when ``particles`` is omitted.
    """

    machine: Any
    algorithm: str
    particles: ParticleSet | PhantomSet | None = None
    n: int | None = None
    c: int = 1
    hyper_k: int | None = None
    law: ForceLaw | None = None
    rcut: float | None = None
    box_length: float = 1.0
    dim: int | None = None
    team_dims: tuple[int, ...] | None = None
    periodic: bool = False
    geometry: Any = None
    layout: str = "rows"
    use_tree: bool = False
    pair_counter: np.ndarray | None = None
    eager_threshold: int = 0
    scratch: bool = True
    faults: FaultSchedule | None = None
    engine_opts: dict | None = None
    metrics: Any = None
    schedule: Any = None
    engine_tier: str = "event"
    seed: int | None = None

    def workload(self) -> ParticleSet:
        """The real particle workload (synthesized if not given);
        ``ValueError`` for a phantom one (see :func:`team_setup`)."""
        if isinstance(self.particles, PhantomSet):
            raise ValueError(
                f"algorithm {self.algorithm!r} has no phantom mode; pass a "
                "ParticleSet (phantom workloads run on allpairs, cutoff and "
                "symmetric)")
        if self.particles is not None:
            return self.particles
        require(self.n is not None,
                f"algorithm {self.algorithm!r} needs particles (or n to "
                "synthesize a workload)")
        dim = 2 if self.dim is None else self.dim
        return ParticleSet.uniform_random(
            self.n, dim, self.box_length,
            seed=0 if self.seed is None else self.seed,
        )

    def count(self) -> int:
        """The workload size, without synthesizing the workload."""
        if self.n is not None:
            return self.n
        require(self.particles is not None,
                f"algorithm {self.algorithm!r} needs n (or particles)")
        return len(self.particles)

    def resolved_law(self) -> ForceLaw:
        """The force law the run computes with: base law, with the spec's
        cutoff and (when periodic) minimum-image box applied."""
        law = self.law or ForceLaw()
        if self.rcut is not None:
            law = law.with_rcut(self.rcut)
            if self.periodic:
                law = law.with_box(self.box_length)
        return law


@dataclass
class Run:
    """Uniform outcome of one pipeline run — every algorithm returns this.

    Real workloads carry globally id-ordered ``ids``/``forces``; phantom
    workloads and the heuristic tier carry ``None`` for both and are
    consumed through :attr:`report`/:attr:`run`.
    """

    #: Registry name of the algorithm that produced this result.
    algorithm: str
    #: Global particle ids, ascending (``None`` for modeled runs).
    ids: np.ndarray | None
    #: Forces ordered to match ``ids`` (``None`` for modeled runs).
    forces: np.ndarray | None
    #: Raw engine result (timings, traces, deaths, per-rank results).
    run: RunResult
    #: The spec this run executed.
    spec: RunSpec | None = None

    @property
    def report(self):
        """Per-phase time/traffic accounting (``RunResult.report``)."""
        return self.run.report

    @property
    def trace(self):
        """Timestamped engine events (``engine_opts={"record_events": True}``)."""
        return self.run.events

    @property
    def coverage(self) -> np.ndarray | None:
        """The pair-coverage matrix the run accumulated into, if any."""
        return None if self.spec is None else self.spec.pair_counter

    @property
    def elapsed(self) -> float:
        return self.run.elapsed


@dataclass
class Prepared:
    """What an algorithm adapter hands the pipeline: the rank program and
    (for real workloads) the force-collection strategy."""

    #: ``program(comm)`` generator factory for the engine.
    program: Callable
    #: ``collect(run_result) -> (ids, forces)``; ``None`` for modeled runs.
    collect: Callable | None = None


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: the adapter plus its declared capabilities."""

    name: str
    #: ``prepare(spec) -> Prepared``.
    prepare: Callable
    #: Has a replication knob ``c`` (baselines run at an implicit c=1).
    supports_c: bool = True
    #: ``"kills"`` — replication-aware recovery absorbs rank deaths;
    #: ``"transient"`` — only delay/drop/corrupt faults (engine retry).
    fault_mode: str = "transient"
    #: Requires ``spec.rcut`` (cutoff-windowed algorithms).
    needs_rcut: bool = False
    #: Requires a square rank count (Plimpton force decomposition).
    square_p: bool = False
    #: One-line description for ``python -m repro algorithms``.
    summary: str = ""


_REGISTRY: dict[str, Algorithm] = {}


def register_algorithm(
    name: str,
    *,
    supports_c: bool = True,
    fault_mode: str = "transient",
    needs_rcut: bool = False,
    square_p: bool = False,
    summary: str = "",
):
    """Decorator registering ``prepare(spec) -> Prepared`` under ``name``."""
    require(fault_mode in ("kills", "transient"),
            f"fault_mode must be 'kills' or 'transient', got {fault_mode!r}")

    def deco(prepare: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} registered twice")
        _REGISTRY[name] = Algorithm(
            name=name, prepare=prepare, supports_c=supports_c,
            fault_mode=fault_mode, needs_rcut=needs_rcut, square_p=square_p,
            summary=summary,
        )
        return prepare

    return deco


def _load_builtins() -> None:
    """Import the core algorithm modules so their registrations run."""
    import repro.core.allpairs  # noqa: F401
    import repro.core.baselines  # noqa: F401
    import repro.core.cutoff  # noqa: F401
    import repro.core.midpoint  # noqa: F401
    import repro.core.symmetric  # noqa: F401
    import repro.core.systolic  # noqa: F401


def get_algorithm(name: str) -> Algorithm:
    """Look up a registry entry (imports the built-ins on first use)."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm {name!r} (known: {known})") from None


def list_algorithms() -> list[str]:
    """Registered algorithm names, sorted."""
    _load_builtins()
    return sorted(_REGISTRY)


def team_setup(spec: RunSpec, cfg: CAConfig) -> tuple:
    """``(workload, blocks, kernel, collect)`` for a CA-family run.

    The one place a phantom workload is told apart from a real one.  A
    :class:`~repro.physics.particles.PhantomSet` gets even-split phantom
    blocks, a :class:`~repro.physics.kernels.VirtualKernel` of its ``dim``
    and ``collect=None``.  Real particles are split evenly (or binned into
    ``cfg.geometry``'s regions) and get :func:`~repro.physics.kernels.
    kernel_for` with ``cfg.rcut`` (and, when periodic, the box) plus a
    collect that orders the leaders' forces by particle id.
    """
    nteams = cfg.grid.nteams
    if isinstance(spec.particles, PhantomSet):
        phantom = spec.particles
        return (phantom, virtual_team_blocks(phantom.n, nteams),
                VirtualKernel(dim=phantom.dim), None)
    particles = spec.workload()
    if cfg.geometry is None:
        blocks = team_blocks_even(particles, nteams)
    else:
        blocks = team_blocks_spatial(particles, cfg.geometry)
    box = spec.box_length if spec.periodic and cfg.rcut else None
    kernel = kernel_for(spec.law, rcut=cfg.rcut, box=box,
                        pair_counter=spec.pair_counter, scratch=spec.scratch,
                        metrics=spec.metrics)

    def collect(run: RunResult):
        return collect_leader_forces(run.results, cfg.grid,
                                     dead=frozenset(run.deaths))

    return particles, blocks, kernel, collect


def fault_compat(alg: Algorithm, faults, c: int = 1) -> str | None:
    """Why ``alg`` cannot absorb ``faults`` at replication ``c``, or ``None``.

    The shared predicate behind :func:`run`'s validation and the comparison
    harness's skip-with-reason path: kill schedules need a ``fault_mode ==
    "kills"`` algorithm and ``c >= 2``; kill-free schedules (delay / drop /
    corrupt) run on everything.
    """
    if faults is None or not faults.has_kills:
        return None
    if alg.fault_mode != "kills":
        return ("has no kill-recovery path; use a kill-free fault schedule "
                "(delay/drop/corrupt only)")
    if c < 2:
        return "kill recovery needs replication c >= 2"
    return None


def _validate(spec: RunSpec, alg: Algorithm) -> None:
    p = spec.machine.nranks
    if not alg.supports_c:
        require(spec.c == 1,
                f"algorithm {alg.name!r} has no replication knob; got c={spec.c}")
    if alg.needs_rcut:
        require(spec.rcut is not None,
                f"algorithm {alg.name!r} needs a cutoff radius (spec.rcut)")
    if alg.square_p:
        q = int(round(p ** 0.5))
        require(q * q == p,
                f"algorithm {alg.name!r} needs a square rank count, got {p}")
    if spec.faults is not None and spec.faults.has_kills:
        if alg.fault_mode != "kills":
            raise ValueError(
                f"algorithm {alg.name!r} has no kill-recovery path; use a "
                "kill-free fault schedule (delay/drop/corrupt only)"
            )
        check_fault_replication(spec.faults, spec.c)


def run(spec: RunSpec) -> Run:
    """The single run pipeline: validate, prepare, execute, collect."""
    alg = get_algorithm(spec.algorithm)
    _validate(spec, alg)
    if spec.engine_tier != "event":
        if spec.engine_tier != "heuristic":
            raise ValueError(
                f"unknown engine_tier {spec.engine_tier!r}; choose 'event' "
                "(exact simulator) or 'heuristic' (vectorized phase-advance "
                "tier)")
        from repro.simmpi.fastsim import run_heuristic

        return run_heuristic(spec, alg)
    prep = alg.prepare(spec)
    opts = dict(spec.engine_opts or {})
    if spec.schedule is not None:
        # The explicit field wins over an engine_opts entry.
        opts["schedule"] = spec.schedule
    engine = Engine(
        spec.machine,
        eager_threshold=spec.eager_threshold,
        faults=spec.faults,
        metrics=spec.metrics,
        **opts,
    )
    result = engine.run(prep.program)
    if prep.collect is not None:
        ids, forces = prep.collect(result)
    else:
        ids, forces = None, None
    return Run(algorithm=alg.name, ids=ids, forces=forces, run=result,
               spec=spec)
