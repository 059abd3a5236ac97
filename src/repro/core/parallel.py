"""Supervised process-parallel execution over pure work units.

The sweep harnesses (chaos soak, schedule fuzz, the comparison matrix,
model validation, ``repro sweep``) all share one shape: a list of tasks,
each a pure function of plain-data inputs such as ``(seed, index)``,
whose results are merged in task order.  This module executes that shape
over a fleet of **spawned** worker processes and keeps the semantics of
the serial loop:

* **Determinism** — results come back in task order regardless of which
  worker finished first, and tasks carry their own seeds (derive them
  with :func:`spawn_seeds` or ``numpy.random.SeedSequence([seed, index])``),
  so ``workers=0`` and ``workers=8`` produce bitwise-identical output —
  even when tasks are retried, time out, or their worker is killed
  mid-flight (a retried pure task recomputes the same bits).
* **Purity contract** — the task function must be a module-level callable
  and tasks/results must be picklable; workers share nothing with the
  parent (the ``spawn`` start method re-imports modules from scratch, so
  no inherited global state can leak into a task, unlike ``fork``).
* **Loud failures** — a task that raises in a worker surfaces in the
  parent as :class:`WorkerError` naming *every* failed task index and
  carrying the remote tracebacks, instead of a bare ``Pool`` re-raise
  that loses the task identity.
* **Crash containment** — each worker is an individually supervised
  process with its own pipe.  A worker that is SIGKILLed (OOM, host
  chaos) or hangs past ``task_timeout`` is detected, killed, and
  replaced, and its task is re-dispatched to a fresh worker — unlike
  ``multiprocessing.Pool.map``, which hangs forever on a lost worker.
* **Serial path** — ``workers=0`` (the default) runs the same tasks
  in-process under the same retry policy and deadline: no pool, no
  pickling.  It is every harness's reference path, not a second loop.

Two layers, lowest first:

* :func:`run_supervised` — the executor.  Never raises on task failure;
  returns one :class:`TaskOutcome` per task (``ok`` / ``failed`` /
  ``timeout`` / ``crashed`` / ``skipped``), honoring a
  :class:`RetryPolicy` and a ``deadline``, and optionally writing tasks
  that failed every attempt to a replayable JSON **quarantine** artifact
  (:func:`write_quarantine` / :func:`load_quarantine`).
* :func:`cached_map` — the one cached fan-out every harness enters the
  executor through: run-cache lookup, in-batch single-flight, supervised
  execution of the misses, store, ordered merge
  (``docs/resilient-sweeps.md`` defines the policy).

:func:`values_or_raise` turns either layer's outcome list into plain
values in task order, raising :class:`WorkerError` if any task was lost.

``spawn`` is deliberate: it is the only start method that is both
portable (fork is unavailable on Windows and unsound with threads) and
faithful to the purity contract.  Its per-worker interpreter start-up
(~0.5 s with NumPy) is amortized by batching enough work per call —
see ``docs/performance.md``.  The task function is shipped **once per
worker** (as the worker process's constructor argument), not once per
task, so a large closure costs one pickle per worker, not per task.

For chaos drills CI sets ``REPRO_HOST_CHAOS`` (e.g.
``"p=0.4,seed=7,mode=kill"``): each worker then deterministically
injects a failure — SIGKILL itself, hang, or raise — on matching
``(task index, attempt)`` pairs before running the task, which exercises
the crash-recovery path end to end (see ``tools/host_chaos.py``).  The
hook only ever fires inside spawned workers, never in the parent.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Iterable, Sequence

from repro.core.runcache import MISS, RunCache

__all__ = [
    "QUARANTINE_FORMAT",
    "RetryPolicy",
    "TaskOutcome",
    "WorkerError",
    "as_retry_policy",
    "cached_map",
    "load_quarantine",
    "run_supervised",
    "spawn_seeds",
    "values_or_raise",
    "write_quarantine",
]

#: Format tag written into (and demanded from) quarantine artifacts.
QUARANTINE_FORMAT = "repro-quarantine-v1"

#: Environment variable holding the host-chaos injection spec.
HOST_CHAOS_ENV = "REPRO_HOST_CHAOS"

#: Longest the supervisor sleeps between looks at its fleet (seconds).
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a task gets and how long to back off between them.

    ``max_attempts`` counts *every* attempt including the first, so
    ``max_attempts=1`` means "no retries".  The delay before attempt
    ``a >= 2`` of task ``i`` is ``base_delay * backoff**(a - 2)``
    perturbed by a deterministic seeded jitter of up to ``±jitter``
    (relative): :meth:`delay` is a pure function of
    ``(seed, index, attempt)``, so two runs of the same sweep back off
    identically — retry timing never becomes a hidden source of
    nondeterminism in budgeted campaigns.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        """Reject nonsensical policies up front, not mid-sweep."""
        problems = []
        if self.max_attempts < 1:
            problems.append(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            problems.append(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff < 1:
            problems.append(f"backoff must be >= 1, got {self.backoff}")
        if not 0 <= self.jitter <= 1:
            problems.append(f"jitter must be in [0, 1], got {self.jitter}")
        if problems:
            raise ValueError("bad RetryPolicy: " + "; ".join(problems))

    def delay(self, index: int, attempt: int) -> float:
        """Seconds to wait before running ``attempt`` of task ``index``.

        Attempt 1 (the first try) never waits.  Jitter is drawn from
        ``SeedSequence([seed, index, attempt])``, so it is reproducible
        and decorrelated across tasks (no retry thundering herd).
        """
        if attempt <= 1 or self.base_delay == 0:
            return 0.0
        import numpy as np

        raw = self.base_delay * self.backoff ** (attempt - 2)
        if self.jitter == 0:
            return raw
        u = (np.random.SeedSequence([self.seed, index, attempt])
             .generate_state(1)[0] / 2.0**32)
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))


def as_retry_policy(retry) -> RetryPolicy:
    """Normalize a ``--retry`` value: None / int attempts / a policy."""
    if retry is None:
        return RetryPolicy(max_attempts=1)
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(max_attempts=int(retry))


@dataclass
class TaskOutcome:
    """One task's final verdict after supervision.

    ``status`` is ``"ok"`` (value present), ``"failed"`` (the task raised
    on its last attempt), ``"timeout"`` (last attempt exceeded
    ``task_timeout`` and its worker was killed), ``"crashed"`` (the
    worker died mid-task on the last attempt — SIGKILL/OOM),
    ``"cached"`` (served from a :class:`~repro.core.runcache.RunCache`
    without executing; ``attempts == 0``), ``"coalesced"``
    (single-flight: a duplicate of another task in the same batch,
    served that task's in-memory result without recomputing or
    re-reading the cache; ``attempts == 0``), or ``"skipped"`` (the
    ``deadline`` passed before the task could be dispatched; it is
    un-run, not failed).  ``attempts`` counts attempts actually
    consumed; crashes and timeouts consume an attempt just like a raise,
    so a task whose worker is killed on attempt 1 retries as attempt 2.
    """

    index: int
    status: str
    value: Any = None
    error: str | None = None
    attempts: int = 0
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        """Whether this task produced a (computed, cached or shared) value."""
        return self.status in ("ok", "cached", "coalesced")

    def describe_loss(self) -> str:
        """One line for a task without a value: status, attempts, last error."""
        last = (self.error or "").strip().splitlines()
        return (f"{self.status} after {self.attempts} attempt(s) — "
                f"{last[-1] if last else 'no detail'}")


class WorkerError(RuntimeError):
    """One or more tasks failed in worker processes.

    Aggregates *every* failed :class:`TaskOutcome` of the map — a sweep
    that loses tasks 2, 5 and 9 reports all three, not just the first.
    :attr:`failures` holds the outcomes, :attr:`indices` the failed task
    indices in task order.  For replay compatibility with the PR-7 API,
    :attr:`index` and :attr:`remote_traceback` carry the *first* failure.

    The legacy single-failure constructor ``WorkerError(index, tb)`` is
    still accepted.
    """

    def __init__(self, failures, remote_traceback: str | None = None):
        if isinstance(failures, int):
            failures = [TaskOutcome(index=failures, status="failed",
                                    error=remote_traceback or "", attempts=1)]
        self.failures: list[TaskOutcome] = list(failures)
        if not self.failures:
            raise ValueError("WorkerError needs at least one failed outcome")
        self.indices = [f.index for f in self.failures]
        first = self.failures[0]
        self.index = first.index
        self.remote_traceback = first.error or ""
        if len(self.failures) == 1:
            head = f"task {first.index} failed"
        else:
            head = (f"{len(self.failures)} tasks failed "
                    f"(indices {self.indices})")
        body = "\n".join(
            f"[task {f.index}: {f.status} after {f.attempts} attempt(s)]\n"
            f"{(f.error or '').rstrip()}"
            for f in self.failures
        )
        super().__init__(f"{head}; remote traceback:\n{body}")


def spawn_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent, reproducible child seeds derived from ``seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the children are
    statistically independent of each other *and* of ``seed``'s own
    stream, and the mapping is a pure function — the same ``(seed, n)``
    always yields the same list.
    """
    import numpy as np

    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


class _HostChaosError(RuntimeError):
    """Injected transient failure (``REPRO_HOST_CHAOS`` mode=raise)."""


def _host_chaos(index: int, attempt: int) -> None:
    """Deterministic failure injection for chaos drills (workers only).

    Reads ``REPRO_HOST_CHAOS`` — a spec like ``"p=0.4,seed=7,mode=kill"``
    (optional ``attempts=K`` bounds which attempts may be hit, default 1
    so retries always survive).  Whether a given ``(index, attempt)`` is
    hit is a pure function of the spec, so chaos runs replay exactly.
    Modes: ``kill`` (SIGKILL the worker — exercises crash recovery),
    ``hang`` (sleep forever — exercises ``task_timeout``), ``raise``
    (transient task failure — exercises retry).
    """
    spec = os.environ.get(HOST_CHAOS_ENV)
    if not spec:
        return
    fields = dict(part.split("=", 1) for part in spec.split(",") if part)
    if attempt > int(fields.get("attempts", 1)):
        return
    import numpy as np

    prob = float(fields.get("p", 0.5))
    seed = int(fields.get("seed", 0))
    u = (np.random.SeedSequence([seed, index, attempt])
         .generate_state(1)[0] / 2.0**32)
    if u >= prob:
        return
    mode = fields.get("mode", "kill")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(3600.0)
    elif mode == "raise":
        raise _HostChaosError(
            f"host chaos: injected transient failure "
            f"(task {index}, attempt {attempt})")
    else:
        raise ValueError(f"unknown {HOST_CHAOS_ENV} mode {mode!r} "
                         f"(kill | hang | raise)")


def _worker_main(fn: Callable[[Any], Any], conn) -> None:
    """Worker process body: serve tasks off ``conn`` until told to stop.

    ``fn`` arrives once, as this process's constructor argument — not
    re-pickled per task.  Each request is ``(index, attempt, task)``;
    each reply ``(status, index, attempt, value_or_traceback)``.  A task
    that raises is reported, never re-raised across the pipe; a result
    that fails to pickle is reported as a failure too (the supervisor
    would otherwise see a crashed worker).
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            conn.close()
            return
        index, attempt, task = item
        try:
            _host_chaos(index, attempt)
            reply = ("ok", index, attempt, fn(task))
        except BaseException:
            reply = ("err", index, attempt, traceback.format_exc())
        try:
            conn.send(reply)
        except Exception:
            conn.send(("err", index, attempt, traceback.format_exc()))


class _Worker:
    """One supervised worker: its process, its pipe, its current job."""

    __slots__ = ("proc", "conn", "job")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: ``(task index, attempt, deadline or None)`` while busy.
        self.job: tuple[int, int, float | None] | None = None


def _expired(deadline: float | None) -> bool:
    """Whether the ``time.monotonic()`` deadline (if any) has passed."""
    return deadline is not None and time.monotonic() >= deadline


def _serial_attempts(fn, index: int, task, retry: RetryPolicy) -> TaskOutcome:
    """In-process execution of one task under the retry policy."""
    error = ""
    for attempt in range(1, retry.max_attempts + 1):
        wait = retry.delay(index, attempt)
        if wait > 0:
            time.sleep(wait)
        try:
            return TaskOutcome(index=index, status="ok", value=fn(task),
                               attempts=attempt)
        except Exception:
            error = traceback.format_exc()
    return TaskOutcome(index=index, status="failed", error=error,
                       attempts=retry.max_attempts)


def run_supervised(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    *,
    workers: int = 0,
    retry: RetryPolicy | int | None = None,
    task_timeout: float | None = None,
    deadline: float | None = None,
    quarantine: str | None = None,
) -> list[TaskOutcome]:
    """Execute every task under supervision; never raise on task failure.

    Returns one :class:`TaskOutcome` per task, in task order.  With
    ``workers > 0`` each worker is an individually supervised spawned
    process: a worker that dies mid-task (SIGKILL/OOM) is detected and
    replaced and the task re-dispatched; a task still running after
    ``task_timeout`` seconds has its worker killed and replaced.  Both
    count as a consumed attempt under ``retry`` (an int is shorthand for
    ``RetryPolicy(max_attempts=n)``; ``None`` means one attempt).

    ``workers=0`` runs serially in-process, honoring ``retry`` —
    ``task_timeout`` is not enforceable there (nothing can preempt the
    parent) and is ignored.

    ``deadline`` (a ``time.monotonic()`` instant) is the time budget,
    checked before every dispatch, serial or pooled: once it has passed
    nothing more is started (running tasks finish) and every task not
    yet dispatched comes back ``status="skipped"``.  A deadline already
    expired on entry spawns no worker at all.

    ``quarantine`` names a JSON file: tasks that failed every attempt are
    written there via :func:`write_quarantine` (replayable with
    :func:`load_quarantine`) and flagged ``quarantined=True``.
    """
    tasks = list(tasks)
    policy = as_retry_policy(retry)
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    if workers <= 0 or len(tasks) == 0 or _expired(deadline):
        for i, t in enumerate(tasks):
            outcomes[i] = (TaskOutcome(index=i, status="skipped")
                           if _expired(deadline)
                           else _serial_attempts(fn, i, t, policy))
    else:
        _supervise(fn, tasks, outcomes, workers=int(workers), retry=policy,
                   task_timeout=task_timeout, deadline=deadline)
    done: list[TaskOutcome] = outcomes  # type: ignore[assignment]
    if quarantine:
        write_quarantine(quarantine, tasks, done)
    return done


def _supervise(fn, tasks: Sequence[Any], outcomes, *, workers: int,
               retry: RetryPolicy, task_timeout: float | None,
               deadline: float | None) -> None:
    """The supervisor loop behind :func:`run_supervised` (workers > 0)."""
    ctx = multiprocessing.get_context("spawn")
    nproc = min(workers, len(tasks))
    # (eligible-at, task index, attempt) — a heap so backoff delays pick
    # the earliest-eligible retry first, FIFO by index at equal times.
    pending: list[tuple[float, int, int]] = [
        (0.0, i, 1) for i in range(len(tasks))]
    heapq.heapify(pending)
    fleet: list[_Worker] = []
    idle: list[_Worker] = []
    busy: list[_Worker] = []
    done = 0

    def _spawn() -> _Worker:
        parent, child = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_worker_main, args=(fn, child), daemon=True)
        proc.start()
        child.close()
        w = _Worker(proc, parent)
        fleet.append(w)
        return w

    def _retire(w: _Worker) -> None:
        """Remove a dead or condemned worker from the fleet, hard."""
        fleet.remove(w)
        try:
            w.conn.close()
        except OSError:
            pass
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join()

    def _replace() -> None:
        """Top the fleet back up if outstanding work still needs it."""
        if pending and len(fleet) < nproc:
            idle.append(_spawn())

    def _settle(index: int, attempt: int, status: str, error: str) -> None:
        """Record a failed attempt: schedule a retry or finalize."""
        nonlocal done
        if attempt < retry.max_attempts:
            eligible = time.monotonic() + retry.delay(index, attempt + 1)
            heapq.heappush(pending, (eligible, index, attempt + 1))
        else:
            outcomes[index] = TaskOutcome(index=index, status=status,
                                          error=error, attempts=attempt)
            done += 1

    for _ in range(nproc):
        idle.append(_spawn())
    try:
        while done < len(tasks):
            now = time.monotonic()
            if pending and deadline is not None and now >= deadline:
                # Budget spent: whatever is not running stays un-run
                # (a queued retry keeps the attempts it consumed).
                for _, index, attempt in pending:
                    outcomes[index] = TaskOutcome(
                        index=index, status="skipped", attempts=attempt - 1)
                done += len(pending)
                pending.clear()
            # Dispatch every eligible pending task to an idle worker.
            while idle and pending and pending[0][0] <= now:
                _, index, attempt = heapq.heappop(pending)
                w = idle.pop()
                try:
                    w.conn.send((index, attempt, tasks[index]))
                except (BrokenPipeError, OSError):
                    # The worker died while idle; this is not the task's
                    # fault — requeue the same attempt on a fresh worker.
                    _retire(w)
                    heapq.heappush(pending, (now, index, attempt))
                    idle.append(_spawn())
                    continue
                except Exception:
                    # The task payload itself would not pickle; retrying
                    # cannot help, fail it outright.
                    outcomes[index] = TaskOutcome(
                        index=index, status="failed",
                        error=traceback.format_exc(), attempts=attempt)
                    done += 1
                    idle.append(w)
                    continue
                limit = None if task_timeout is None else now + task_timeout
                w.job = (index, attempt, limit)
                busy.append(w)
            if done >= len(tasks):
                break
            if not busy:
                # Only backoff-delayed retries remain; sleep until the
                # earliest becomes eligible.
                wake = pending[0][0] if pending else now + _POLL_INTERVAL
                time.sleep(max(0.0, min(wake - time.monotonic(),
                                        _POLL_INTERVAL)))
                continue
            # Wake on the first result, the nearest task timeout, the
            # next retry becoming eligible, or the poll tick.
            timeout = _POLL_INTERVAL
            if pending and idle:
                timeout = min(timeout, max(0.0, pending[0][0] - now))
            for w in busy:
                if w.job[2] is not None:
                    timeout = min(timeout, max(0.0, w.job[2] - now))
            ready = _mpconn.wait([w.conn for w in busy], timeout=timeout)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                w = by_conn[conn]
                index, attempt, _ = w.job
                try:
                    status, _ri, _ra, payload = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task (SIGKILL / OOM): recover
                    # by re-dispatching instead of hanging the sweep.
                    busy.remove(w)
                    exitcode = w.proc.exitcode
                    _retire(w)
                    _settle(index, attempt, "crashed",
                            f"worker died while running task {index} "
                            f"(attempt {attempt}/{retry.max_attempts}, "
                            f"exitcode {exitcode})")
                    _replace()
                    continue
                busy.remove(w)
                w.job = None
                idle.append(w)
                if status == "ok":
                    outcomes[index] = TaskOutcome(index=index, status="ok",
                                                  value=payload,
                                                  attempts=attempt)
                    done += 1
                else:
                    _settle(index, attempt, "failed", payload)
            # Hung-worker detection: kill and replace anyone past their
            # task timeout whose result has not reached the pipe.
            now = time.monotonic()
            for w in list(busy):
                index, attempt, limit = w.job
                if limit is None or now <= limit or w.conn.poll():
                    continue
                busy.remove(w)
                _retire(w)
                _settle(index, attempt, "timeout",
                        f"task {index} still running after "
                        f"task_timeout={task_timeout}s (attempt {attempt}/"
                        f"{retry.max_attempts}); worker killed")
                _replace()
    finally:
        for w in fleet:
            try:
                w.conn.send(None)
            except Exception:
                pass
            try:
                w.conn.close()
            except Exception:
                pass
        for w in fleet:
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join()


def _task_json(task) -> Any:
    """Best-effort JSON form of a task for the quarantine artifact."""
    try:
        json.dumps(task)
        return task
    except (TypeError, ValueError):
        return repr(task)


def write_quarantine(path: str, tasks: Sequence[Any],
                     outcomes: Sequence[TaskOutcome | None], *,
                     context: dict | None = None) -> str | None:
    """Persist failed-beyond-retry tasks as a replayable JSON artifact.

    Each entry records the task (itself if JSON-serializable, else its
    ``repr``), its index, final status, attempt count and last error —
    enough to replay exactly the poisoned units (see
    :func:`load_quarantine`).  Written atomically
    (tmp + rename).  Returns the path, or ``None`` when nothing failed
    (no artifact is written).  Failed outcomes are flagged
    ``quarantined=True`` in place; ``skipped`` ones are un-run, not
    poisoned, and stay out.
    """
    failed = [o for o in outcomes
              if o is not None and not o.ok and o.status != "skipped"]
    if not failed:
        return None
    payload = {
        "format": QUARANTINE_FORMAT,
        "context": context or {},
        "entries": [
            {
                "index": o.index,
                "status": o.status,
                "attempts": o.attempts,
                "error": o.error,
                "task": _task_json(tasks[o.index]),
            }
            for o in failed
        ],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quarantine-")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for o in failed:
        o.quarantined = True
    return path


def load_quarantine(path: str) -> list[dict]:
    """Read a quarantine artifact back; returns its entry dicts.

    Raises ``ValueError`` when the file is not a quarantine artifact
    (wrong or missing format tag), so a stale path fails loudly rather
    than replaying garbage.
    """
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != QUARANTINE_FORMAT:
        raise ValueError(
            f"{path} is not a quarantine artifact "
            f"(format {data.get('format')!r}, expected {QUARANTINE_FORMAT!r})")
    return list(data["entries"])


def cached_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    keys: Sequence[str | None],
    store: RunCache | None = None,
    cacheable: Callable[[Any], bool] | None = None,
    workers: int = 0,
    retry: RetryPolicy | int | None = None,
    task_timeout: float | None = None,
    deadline: float | None = None,
) -> list[TaskOutcome]:
    """The one cached fan-out: lookup, single-flight, run, store, merge.

    ``keys[i]`` is the content fingerprint of ``tasks[i]`` (``None``:
    never cached or coalesced, always computed).  In task order, the
    first task of each key consults ``store`` — a hit becomes a
    ``"cached"`` outcome — and later tasks of the same key wait for it;
    the misses run through :func:`run_supervised` (``workers`` /
    ``retry`` / ``task_timeout`` / ``deadline``) in one fleet; every
    ``"ok"`` value is stored (unless ``cacheable(value)`` says no)
    *before* this returns, so a caller that then raises on a lost task
    still resumes from whatever completed; duplicates come back
    ``"coalesced"`` with their leader's value, or share its failure.
    Exactly one ``store.get`` and at most one ``store.put`` per unique
    key.  Never raises on task failure — one :class:`TaskOutcome` per
    task, in task order (see ``docs/resilient-sweeps.md``).
    """
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    leaders: dict[str, int] = {}
    followers: list[tuple[int, int]] = []
    misses: list[int] = []
    for i, key in enumerate(keys):
        if key is not None:
            leader = leaders.setdefault(key, i)
            if leader != i:
                followers.append((i, leader))
                continue
            if store is not None:
                hit = store.get(key)
                if hit is not MISS:
                    outcomes[i] = TaskOutcome(index=i, status="cached",
                                              value=hit)
                    continue
        misses.append(i)
    if misses:
        ran = run_supervised(fn, [tasks[i] for i in misses], workers=workers,
                             retry=retry, task_timeout=task_timeout,
                             deadline=deadline)
        for i, outcome in zip(misses, ran):
            outcome.index = i
            outcomes[i] = outcome
            if (store is not None and outcome.status == "ok"
                    and keys[i] is not None
                    and (cacheable is None or cacheable(outcome.value))):
                store.put(keys[i], outcome.value)
    for i, leader in followers:
        lead = outcomes[leader]
        # Same key, same bits: share the leader's value — or its fate —
        # without consuming an attempt.
        outcomes[i] = TaskOutcome(
            index=i, status="coalesced" if lead.ok else lead.status,
            value=lead.value, error=lead.error)
    return outcomes  # type: ignore[return-value]


def values_or_raise(outcomes: Sequence[TaskOutcome]) -> list[Any]:
    """The outcomes' values in order; :class:`WorkerError` if any is lost.

    The error aggregates *every* outcome without a value.
    """
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise WorkerError(failures)
    return [o.value for o in outcomes]
