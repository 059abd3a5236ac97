"""Chaos soak harness: randomized fault + checkpoint/restart campaigns.

Each trial builds a randomized multi-step simulation (machine size,
replication, all-pairs or cutoff decomposition, uniform or clustered
workload, run length), runs it three ways and demands bitwise
agreement:

1. **Reference** — fault-free, uninterrupted.
2. **Chaos** — under a randomized :class:`~repro.simmpi.faults.FaultSchedule`
   (rank kills bounded so every team keeps a survivor, plus probabilistic
   drops / delays / checksummed corruption), writing checkpoints as it goes.
   Final positions, velocities and forces must equal the reference exactly.
3. **Resume** — restart from a mid-run checkpoint of the chaos run
   (randomly fault-free or under the same schedule again) and replay to the
   end.  The resumed final state must equal the reference exactly.

A third trial flavor covers the systolic schedule family
(``systolic_ring`` / ``half_systolic`` / ``hyper_systolic``): these run
at ``c = 1`` with no replicas to recover a kill from, so their trials
draw transient-only schedules (drops / delays / checksummed corruption)
and demand the single-step registry run's forces equal the fault-free
run bit for bit — the engine's retry protocol under chaos, on the
shared communication-schedule IR.

Documented-unrecoverable outcomes (a death outside the recoverable window,
an exhausted retransmit budget — see ``docs/fault-model.md``) are *declared
losses*: the run failed loudly, which is the contract; they are counted and
reported but are not soak failures.  Any bitwise mismatch or undeclared
exception is a failure; the trial's full configuration (derived from
``seed`` + trial index, so every failure is replayable) and a recorded
engine timeline are dumped as JSON artifacts.

Everything is deterministic in ``seed``: ``run_soak(trials=N, seed=S)``
twice produces identical reports.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.allpairs import allpairs_config
from repro.core.checkpoint import CheckpointPolicy
from repro.core.cutoff import cutoff_config
from repro.core.decomposition import team_blocks_even, team_blocks_spatial
from repro.core.driver import SimulationConfig, run_simulation
from repro.machines import GenericMachine
from repro.physics.forces import ForceLaw
from repro.physics.particles import ParticleSet
from repro.physics.workloads import gaussian_clusters
from repro.simmpi.errors import SimMPIError
from repro.simmpi.faults import FaultSchedule, KillRank

__all__ = ["SoakReport", "SoakTrial", "run_soak"]

#: Exception types that are a *declared* loss of the run, not a soak
#: failure: the fault model documents them as the loud-failure contract
#: (death outside the recoverable window raises, exhausted retransmit
#: budgets raise, a particle outrunning its region raises).
_DECLARED = (SimMPIError, ValueError, RuntimeError)


@dataclass
class SoakTrial:
    """One trial's configuration and verdict."""

    index: int
    seed: int
    algorithm: str            # "allpairs" | "cutoff" | systolic family
    p: int
    c: int
    n: int
    dim: int
    nsteps: int
    rcut: float | None
    workload: str             # "uniform" | "clustered"
    schedule: str             # repr of the fault schedule
    schedule_policy: str = "fifo"   # scheduler policy spec the trial ran under
    outcome: str = "ok"       # "ok" | "declared" | "failed" | "skipped"
    detail: str = ""
    checkpoints: int = 0
    resumed_from: int | None = None
    resume_faulty: bool = False
    deaths: int = 0

    def describe(self) -> str:
        """One log line: trial index, outcome, configuration and detail."""
        base = (f"trial {self.index:3d} [{self.outcome:8s}] "
                f"{self.algorithm:8s} p={self.p} c={self.c} n={self.n} "
                f"dim={self.dim} steps={self.nsteps} {self.workload:9s} "
                f"deaths={self.deaths} ckpts={self.checkpoints}")
        if self.schedule_policy != "fifo":
            base += f" sched={self.schedule_policy}"
        if self.resumed_from is not None:
            base += (f" resume@{self.resumed_from}"
                     f"{'+faults' if self.resume_faulty else ''}")
        if self.detail:
            base += f" — {self.detail}"
        return base


@dataclass
class SoakReport:
    """Every trial's verdict plus campaign-level accounting."""

    seed: int
    trials: list[SoakTrial] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[SoakTrial]:
        return [t for t in self.trials if t.outcome == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Per-trial log lines plus the outcome tally and replay commands."""
        counts: dict[str, int] = {}
        for t in self.trials:
            counts[t.outcome] = counts.get(t.outcome, 0) + 1
        lines = [t.describe() for t in self.trials]
        tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        lines.append(f"soak seed={self.seed}: {len(self.trials)} trials ({tally})")
        for t in self.failures:
            sched = ("" if t.schedule_policy == "fifo"
                     else f", schedule={t.schedule_policy!r}")
            lines.append(
                f"REPLAY: run_soak(trials=1, seed={self.seed}, "
                f"first_trial={t.index}{sched}) reproduces trial {t.index}"
            )
        for path in self.artifacts:
            lines.append(f"artifact: {path}")
        return "\n".join(lines)


def _random_schedule(rng: np.random.Generator, grid, *,
                     with_kills: bool) -> FaultSchedule:
    """A randomized schedule every team can survive."""
    events: list = []
    if with_kills and rng.random() < 0.8:
        nteams_hit = int(rng.integers(1, min(3, grid.nteams) + 1))
        cols = rng.choice(grid.nteams, size=nteams_hit, replace=False)
        for col in cols:
            # One victim per team keeps c-1 >= 1 survivors everywhere.
            row = int(rng.integers(grid.c))
            events.append(KillRank(grid.rank_at(row, int(col)),
                                   after_ops=int(rng.integers(5, 120))))
    return FaultSchedule(
        events=tuple(events),
        seed=int(rng.integers(2**31)),
        drop_prob=float(rng.choice([0.0, 0.005, 0.02])),
        delay_prob=float(rng.choice([0.0, 0.05])),
        corrupt_prob=float(rng.choice([0.0, 0.005, 0.02])),
        delay_seconds=1e-5,
        max_retries=8,
        retry_backoff=float(rng.choice([1.0, 1.5, 2.0])),
        checksum=True,
        detect_seconds=float(rng.choice([0.0, 1e-5])),
    )


def _dump_artifact(directory: str, trial: SoakTrial, machine, scfg,
                   blocks, faults, schedule=None) -> str:
    """Persist a failing trial's config and a recorded timeline as JSON.

    The artifact records the scheduler policy spec alongside the fault
    schedule (both inside ``trial`` and as a top-level key), so a failure
    found under a perturbed interleaving replays under the *same*
    interleaving.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"soak-failure-trial{trial.index:03d}.json")
    timeline = None
    try:
        from repro.simmpi.tracing import timeline_to_json

        rerun = run_simulation(machine, scfg, blocks, faults=faults,
                               schedule=schedule,
                               engine_opts={"record_events": True})
        timeline = json.loads(timeline_to_json(rerun.run.events))
    except Exception as exc:  # the rerun may legitimately raise
        timeline = f"timeline rerun raised: {exc!r}"
    with open(path, "w") as fh:
        json.dump({"trial": trial.__dict__, "schedule": trial.schedule,
                   "schedule_policy": trial.schedule_policy,
                   "timeline": timeline}, fh, indent=1, default=str)
    return path


def _check_state(got, ref, what: str) -> str | None:
    """Bitwise comparison; a mismatch description or ``None``."""
    for name, a, b in (("pos", got.particles.pos, ref.particles.pos),
                       ("vel", got.particles.vel, ref.particles.vel),
                       ("ids", got.particles.ids, ref.particles.ids),
                       ("forces", got.forces, ref.forces)):
        if not np.array_equal(a, b):
            dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
            return f"{what}: {name} mismatch vs reference (max |delta|={dev:.3e})"
    return None


def _systolic_trial(rng: np.random.Generator, seed: int, index: int,
                    p: int, schedule, artifact_dir: str,
                    skip: bool) -> tuple[SoakTrial, list[str]]:
    """One systolic-family trial: transient chaos, bitwise force check.

    The family runs at ``c = 1`` — a kill would be unrecoverable by
    construction — so the schedule is transient-only and the contract is
    that the engine's retry protocol makes the chaos run's forces equal
    the fault-free run's exactly.
    """
    from repro.core.runner import RunSpec, run

    artifacts: list[str] = []
    algorithm = str(rng.choice(
        ["systolic_ring", "half_systolic", "hyper_systolic"]))
    dim = int(rng.choice([1, 2]))
    n = int(rng.integers(40, 97))
    workload = str(rng.choice(["uniform", "clustered"]))
    trial = SoakTrial(index=index, seed=seed, algorithm=algorithm, p=p,
                      c=1, n=n, dim=dim, nsteps=1, rcut=None,
                      workload=workload, schedule="",
                      schedule_policy="fifo" if schedule is None
                      else str(schedule))
    if skip:
        trial.outcome = "skipped"
        trial.detail = "time budget exhausted"
        return trial, artifacts

    wl_seed = int(rng.integers(2**31))
    if workload == "uniform":
        particles = ParticleSet.uniform_random(n, dim, 1.0,
                                               max_speed=0.05, seed=wl_seed)
    else:
        particles = gaussian_clusters(n, dim, 1.0, nclusters=3,
                                      spread=0.08, max_speed=0.05,
                                      seed=wl_seed)
    machine = GenericMachine(nranks=p)
    grid = allpairs_config(p, 1).grid
    faults = _random_schedule(rng, grid, with_kills=False)
    trial.schedule = repr(faults)
    law = ForceLaw(k=1e-5, softening=5e-3)

    reference = run(RunSpec(machine=machine, algorithm=algorithm,
                            particles=particles, law=law))
    try:
        chaos = run(RunSpec(machine=machine, algorithm=algorithm,
                            particles=particles, law=law, faults=faults,
                            schedule=schedule))
    except _DECLARED as exc:
        trial.outcome = "declared"
        trial.detail = f"{type(exc).__name__}: {exc}"
        return trial, artifacts
    except Exception as exc:
        trial.outcome = "failed"
        trial.detail = f"undeclared {type(exc).__name__}: {exc}"
    else:
        if not (np.array_equal(chaos.ids, reference.ids)
                and np.array_equal(chaos.forces, reference.forces)):
            dev = float(np.max(np.abs(chaos.forces - reference.forces)))
            trial.outcome = "failed"
            trial.detail = (f"chaos run: forces mismatch vs fault-free "
                            f"run (max |delta|={dev:.3e})")
    if trial.outcome == "failed":
        os.makedirs(artifact_dir, exist_ok=True)
        path = os.path.join(artifact_dir, f"trial-{index:04d}.json")
        with open(path, "w") as fh:
            json.dump({"trial": trial.__dict__, "schedule": trial.schedule,
                       "schedule_policy": trial.schedule_policy}, fh,
                      indent=1, default=str)
        artifacts.append(path)
    return trial, artifacts


def _run_trial(task: tuple) -> tuple[SoakTrial, list[str]]:
    """One soak trial, pure in its task tuple — the parallel work unit.

    ``task`` is ``(seed, index, with_kills, schedule, artifact_dir,
    skip)``; the trial re-derives its entire configuration from
    ``(seed, index)``, so the serial loop and any worker process produce
    bitwise-identical trials.  ``skip=True`` still draws the
    configuration (so skipped trials report what they *would* have run)
    but executes nothing.  Returns the trial verdict plus any failure
    artifact paths written under ``artifact_dir``.
    """
    seed, index, with_kills, schedule, artifact_dir, skip = task
    artifacts: list[str] = []
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    p = int(rng.choice([8, 12, 16]))
    c = int(rng.choice({8: [2, 4], 12: [2, 3], 16: [2, 4]}[p]))
    algorithm = str(rng.choice(["allpairs", "cutoff", "systolic"]))
    if algorithm == "systolic":
        return _systolic_trial(rng, seed, index, p, schedule,
                               artifact_dir, skip)
    dim = 2 if algorithm == "cutoff" else int(rng.choice([1, 2]))
    n = int(rng.integers(40, 97))
    nsteps = int(rng.integers(3, 7))
    rcut = float(rng.uniform(0.3, 0.45)) if algorithm == "cutoff" else None
    workload = str(rng.choice(["uniform", "clustered"]))
    trial = SoakTrial(index=index, seed=seed, algorithm=algorithm, p=p,
                      c=c, n=n, dim=dim, nsteps=nsteps, rcut=rcut,
                      workload=workload, schedule="",
                      schedule_policy="fifo" if schedule is None
                      else str(schedule))
    if skip:
        trial.outcome = "skipped"
        trial.detail = "time budget exhausted"
        return trial, artifacts

    wl_seed = int(rng.integers(2**31))
    if workload == "uniform":
        particles = ParticleSet.uniform_random(n, dim, 1.0,
                                               max_speed=0.05, seed=wl_seed)
    else:
        particles = gaussian_clusters(n, dim, 1.0, nclusters=3,
                                      spread=0.08, max_speed=0.05,
                                      seed=wl_seed)
    if algorithm == "cutoff":
        cfg = cutoff_config(p, c, rcut=rcut, box_length=1.0, dim=dim)
        blocks = team_blocks_spatial(particles, cfg.geometry)
    else:
        cfg = allpairs_config(p, c)
        blocks = team_blocks_even(particles, cfg.grid.nteams)
    machine = GenericMachine(nranks=p)
    scfg = SimulationConfig(cfg=cfg, law=ForceLaw(k=1e-5, softening=5e-3),
                            dt=5e-4, nsteps=nsteps, box_length=1.0)
    faults = _random_schedule(rng, cfg.grid, with_kills=with_kills)
    trial.schedule = repr(faults)
    resume_faulty = bool(rng.random() < 0.5)

    reference = run_simulation(machine, scfg, blocks)

    with tempfile.TemporaryDirectory(prefix="soak-ckpt-") as ckpt_dir:
        policy = CheckpointPolicy(directory=ckpt_dir,
                                  every=int(rng.choice([1, 2])))
        try:
            chaos = run_simulation(machine, scfg, blocks, faults=faults,
                                   checkpoint=policy, schedule=schedule)
        except _DECLARED as exc:
            trial.outcome = "declared"
            trial.detail = f"{type(exc).__name__}: {exc}"
            return trial, artifacts
        except Exception as exc:
            trial.outcome = "failed"
            trial.detail = f"undeclared {type(exc).__name__}: {exc}"
            artifacts.append(_dump_artifact(
                artifact_dir, trial, machine, scfg, blocks, faults,
                schedule))
            return trial, artifacts
        trial.checkpoints = len(chaos.checkpoints)
        trial.deaths = len(chaos.run.deaths)
        mismatch = _check_state(chaos, reference, "chaos run")
        if mismatch:
            trial.outcome = "failed"
            trial.detail = mismatch
            artifacts.append(_dump_artifact(
                artifact_dir, trial, machine, scfg, blocks, faults,
                schedule))
            return trial, artifacts

        midrun = [(s, path) for s, path in chaos.checkpoints
                  if 0 < s < nsteps]
        if not midrun:
            trial.detail = "no mid-run checkpoint survived; resume skipped"
            return trial, artifacts
        step, path = midrun[int(rng.integers(len(midrun)))]
        trial.resumed_from = step
        trial.resume_faulty = resume_faulty
        try:
            resumed = run_simulation(
                machine, scfg, resume_from=path,
                faults=faults if resume_faulty else None,
                schedule=schedule,
            )
        except _DECLARED as exc:
            trial.outcome = "declared"
            trial.detail = f"resume: {type(exc).__name__}: {exc}"
            return trial, artifacts
        except Exception as exc:
            trial.outcome = "failed"
            trial.detail = f"resume: undeclared {type(exc).__name__}: {exc}"
            artifacts.append(_dump_artifact(
                artifact_dir, trial, machine, scfg, blocks, faults,
                schedule))
            return trial, artifacts
        mismatch = _check_state(resumed, reference, f"resume@{step}")
        if mismatch:
            trial.outcome = "failed"
            trial.detail = mismatch
            artifacts.append(_dump_artifact(
                artifact_dir, trial, machine, scfg, blocks, faults,
                schedule))
    return trial, artifacts


#: Run-cache namespace for soak trial verdicts (bump on schema change;
#: v2 stores the work unit's ``(trial, artifacts)`` pair, v1 the trial).
SOAK_NAMESPACE = "soak-v2"


def _settled(value: tuple[SoakTrial, list[str]]) -> bool:
    """Whether a trial result may be cached: a clean, final verdict."""
    trial, artifacts = value
    return trial.outcome in ("ok", "declared") and not artifacts


def _executor_casualty(index: int, seed: int, sched_spec: str,
                       outcome) -> SoakTrial:
    """A failed trial record for a task the *executor* lost.

    When a trial's worker crashed / hung / raised beyond every retry,
    there is no in-trial verdict to report — synthesize one so the
    campaign stays complete and loud instead of aborting.
    """
    return SoakTrial(
        index=index, seed=seed, algorithm="(executor)", p=0, c=0, n=0,
        dim=0, nsteps=0, rcut=None, workload="-", schedule="",
        schedule_policy=sched_spec, outcome="failed",
        detail=f"executor: {outcome.describe_loss()}")


def run_soak(
    trials: int = 10,
    *,
    seed: int = 0,
    first_trial: int = 0,
    with_kills: bool = True,
    out_dir: str | None = None,
    time_budget: float | None = None,
    schedule=None,
    workers: int = 0,
    retry=None,
    task_timeout: float | None = None,
    cache=None,
) -> SoakReport:
    """Run ``trials`` randomized chaos trials; see the module docstring.

    ``first_trial`` offsets the trial indices (trial ``i`` is a pure
    function of ``(seed, i)``), so a failing trial from a long campaign can
    be replayed alone.  ``out_dir`` receives failure artifacts (default: a
    temporary directory).  ``time_budget`` (wall seconds) becomes the
    executor's ``deadline``: trials not yet started when it passes are
    marked ``skipped`` (they still report the configuration they drew).

    ``schedule`` (a :class:`~repro.simmpi.schedule.SchedulePolicy` spec
    string, e.g. ``"adversarial"`` or ``"random:7"``) perturbs the
    engine's scheduler free choices for the chaos and resume runs — the
    fault-free reference always runs FIFO, so the bitwise comparison
    simultaneously exercises fault recovery *and* schedule independence.
    The policy spec is recorded on every trial and in failure artifacts.

    ``workers`` / ``retry`` / ``task_timeout`` / ``cache`` go to the one
    cached fan-out, :func:`repro.core.parallel.cached_map`
    (``docs/resilient-sweeps.md``); trials are pure in ``(seed, index)``,
    so the report is bitwise-identical for any worker count.  Keys are
    ``(seed, index, with_kills, schedule)`` in :data:`SOAK_NAMESPACE`;
    only ``ok`` / ``declared`` trials that wrote no artifact are
    cacheable — failed trials recompute (and re-dump artifacts) every
    time.  A trial the executor loses beyond every retry is reported as
    a failed ``(executor)`` trial and quarantined to
    ``<out_dir>/quarantine.json`` instead of sinking the campaign.
    """
    from repro.core.parallel import cached_map, write_quarantine
    from repro.core.runcache import resolve_cache

    report = SoakReport(seed=seed)
    deadline = (None if time_budget is None
                else time.monotonic() + time_budget)
    artifact_dir = out_dir or tempfile.mkdtemp(prefix="chaos-soak-")
    sched_spec = "fifo" if schedule is None else str(schedule)
    indices = range(first_trial, first_trial + trials)
    tasks = [(seed, i, with_kills, schedule, artifact_dir, False)
             for i in indices]
    keys = [f"seed={seed};index={i};kills={with_kills};schedule={sched_spec}"
            for i in indices]
    outcomes = cached_map(
        _run_trial, tasks, keys=keys, cacheable=_settled,
        store=resolve_cache(cache, namespace=SOAK_NAMESPACE),
        workers=workers, retry=retry, task_timeout=task_timeout,
        deadline=deadline)
    qpath = write_quarantine(os.path.join(artifact_dir, "quarantine.json"),
                             tasks, outcomes)
    if qpath:
        report.artifacts.append(qpath)
    for task, outcome in zip(tasks, outcomes):
        if outcome.ok:
            trial, artifacts = outcome.value
        elif outcome.status == "skipped":
            # Un-run: only draw the configuration it would have had.
            trial, artifacts = _run_trial((*task[:-1], True))
        else:
            trial, artifacts = _executor_casualty(
                task[1], seed, sched_spec, outcome), []
        report.trials.append(trial)
        report.artifacts.extend(artifacts)
    return report
