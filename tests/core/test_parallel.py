"""The parallel executor's contract: order, purity, loud failures.

:mod:`repro.core.parallel` backs every harness ``--workers`` flag, so the
properties the harnesses rely on are pinned here directly: results come
back in task order (not completion order), ``workers=0`` is a plain
serial fallback, a lost task surfaces through :func:`values_or_raise` as
:class:`WorkerError` naming *every* failed task index with the remote
tracebacks, and :func:`spawn_seeds` is a pure function of its inputs.

The supervised-executor layer (PR 9) adds its own contract: a
:class:`RetryPolicy` with deterministic seeded backoff, per-task
timeouts that kill and replace hung workers, crash recovery when a
worker is SIGKILLed mid-task, and a replayable JSON quarantine for
tasks that fail every attempt.  The process-spawning tests here are
deliberately few (each spawn costs ~1 s with NumPy); the chaos parity
sweeps live in ``tests/integration`` and ``tools/host_chaos.py``.

:func:`cached_map` is the one cached fan-out every harness enters the
executor through; its policy (one lookup and at most one store per key,
single-flight duplicates, caller-supplied cacheability, deadline skips)
is pinned here on plain functions, without any harness around it.
"""

import json
import os
import signal
import time

import pytest

import repro.core.parallel as parallel
from repro.core.parallel import (
    QUARANTINE_FORMAT,
    RetryPolicy,
    TaskOutcome,
    WorkerError,
    as_retry_policy,
    cached_map,
    load_quarantine,
    run_supervised,
    spawn_seeds,
    values_or_raise,
    write_quarantine,
)
from repro.core.runcache import RunCache


def _square(x):
    return x * x


def _sleep_inverse(task):
    """Later tasks finish first — exposes completion-order merging."""
    import time

    index, count = task
    time.sleep(0.02 * (count - index))
    return index


def _boom(x):
    if x == 2:
        raise ValueError(f"task payload {x} is cursed")
    return x


def _boom_even(x):
    if x % 2 == 0:
        raise ValueError(f"task payload {x} is cursed")
    return x


def _poison(x):
    raise RuntimeError(f"poison task {x}: fails every attempt")


def _flaky(task):
    """Fails the first time each task runs, succeeds on the retry.

    The marker file makes the transience real across processes: attempt
    1 creates it and raises, attempt 2 sees it and returns.
    """
    index, marker_dir = task
    marker = os.path.join(marker_dir, f"ran-{index}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure on task {index}")
    return index * 10


def _die_once(task):
    """SIGKILLs its own worker on the first attempt — a simulated OOM."""
    index, marker_dir = task
    marker = os.path.join(marker_dir, f"died-{index}")
    if index == 1 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return index + 100


def _hang_once(task):
    """Hangs forever on the first attempt — a simulated stuck worker."""
    import time

    index, marker_dir = task
    marker = os.path.join(marker_dir, f"hung-{index}")
    if index == 1 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(600.0)
    return index - 7


def _sleep_until(wall_deadline):
    """Returns only once the (wall-clock) deadline has passed."""
    import time

    while time.time() <= wall_deadline:
        time.sleep(0.02)
    return wall_deadline


class TestSerialFallback:
    def test_workers_zero_is_a_list_comprehension(self):
        assert values_or_raise(run_supervised(_square, [1, 2, 3])) == \
            [1, 4, 9]

    def test_serial_exceptions_propagate_natively(self):
        # An un-retried serial failure now reaches the caller as a
        # WorkerError, but the native exception's type, message and
        # in-process frame survive in its traceback.
        with pytest.raises(WorkerError) as err:
            values_or_raise(run_supervised(_boom, [0, 1, 2, 3]))
        assert err.value.indices == [2]
        assert "ValueError: task payload 2 is cursed" in \
            err.value.remote_traceback
        assert "in _boom" in err.value.remote_traceback
        assert "task 2 failed" in str(err.value)

    def test_empty_tasks(self):
        assert values_or_raise(run_supervised(_square, [], workers=4)) == []


class TestParallelSemantics:
    def test_results_in_task_order(self):
        count = 4
        tasks = [(i, count) for i in range(count)]
        outcomes = run_supervised(_sleep_inverse, tasks, workers=4)
        assert values_or_raise(outcomes) == list(range(count))

    def test_matches_serial_output(self):
        tasks = list(range(10))
        pooled = run_supervised(_square, tasks, workers=3)
        serial = run_supervised(_square, tasks, workers=0)
        assert values_or_raise(pooled) == values_or_raise(serial)

    def test_worker_error_names_index_and_traceback(self):
        with pytest.raises(WorkerError) as err:
            values_or_raise(run_supervised(_boom, [0, 1, 2, 3], workers=2))
        assert err.value.index == 2
        assert "cursed" in err.value.remote_traceback
        assert "task 2" in str(err.value)

    def test_worker_error_aggregates_every_failure(self):
        with pytest.raises(WorkerError) as err:
            values_or_raise(run_supervised(_boom_even, [0, 1, 2, 3, 4],
                                           workers=2))
        assert err.value.indices == [0, 2, 4]
        assert err.value.index == 0  # first failure keeps the PR-7 field
        assert "3 tasks failed" in str(err.value)


class TestRetryPolicy:
    def test_first_attempt_never_waits(self):
        assert RetryPolicy(base_delay=5.0).delay(0, 1) == 0.0

    def test_delay_is_pure_and_decorrelated(self):
        p = RetryPolicy(base_delay=0.1, seed=3)
        assert p.delay(4, 2) == p.delay(4, 2)
        assert p.delay(4, 2) != p.delay(5, 2)

    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(base_delay=0.1, backoff=2.0, jitter=0.0)
        assert p.delay(0, 2) == pytest.approx(0.1)
        assert p.delay(0, 3) == pytest.approx(0.2)
        assert p.delay(0, 4) == pytest.approx(0.4)

    def test_jitter_stays_within_bounds(self):
        p = RetryPolicy(base_delay=0.1, backoff=1.0, jitter=0.1)
        for i in range(20):
            assert 0.09 <= p.delay(i, 2) <= 0.11

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0}, {"base_delay": -1.0},
        {"backoff": 0.5}, {"jitter": 2.0},
    ])
    def test_bad_policies_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError, match="bad RetryPolicy"):
            RetryPolicy(**kwargs)

    def test_as_retry_policy_normalizes(self):
        assert as_retry_policy(None).max_attempts == 1
        assert as_retry_policy(4).max_attempts == 4
        p = RetryPolicy(max_attempts=7)
        assert as_retry_policy(p) is p


class TestRunSupervisedSerial:
    """The retry machinery without any process spawns (workers=0)."""

    def test_transient_failures_recover_on_retry(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(3)]
        outcomes = run_supervised(
            _flaky, tasks, retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert [o.value for o in outcomes] == [0, 10, 20]
        assert all(o.attempts == 2 for o in outcomes)

    def test_poison_tasks_fail_after_all_attempts(self):
        outcomes = run_supervised(
            _poison, [7], retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 3
        assert "poison task 7" in outcomes[0].error
        assert not outcomes[0].ok

    def test_never_raises_on_task_failure(self):
        outcomes = run_supervised(_boom, [0, 1, 2, 3])
        assert [o.status for o in outcomes] == ["ok", "ok", "failed", "ok"]

    # The next two keep the names of the removed fan-out helper's tests;
    # run_supervised + values_or_raise is now the only fan-out.
    def test_parallel_map_retry_keeps_plain_results(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(3)]
        got = values_or_raise(run_supervised(
            _flaky, tasks, retry=RetryPolicy(max_attempts=2, base_delay=0.0)))
        assert got == [0, 10, 20]

    def test_parallel_map_collect_returns_outcomes(self):
        outcomes = run_supervised(_boom, [0, 1, 2])
        assert all(isinstance(o, TaskOutcome) for o in outcomes)
        assert [o.ok for o in outcomes] == [True, True, False]

    def test_serial_retry_failures_raise_aggregated_worker_error(self):
        with pytest.raises(WorkerError) as err:
            values_or_raise(run_supervised(_boom_even, [0, 1, 2], retry=2))
        assert err.value.indices == [0, 2]
        assert "cursed" in err.value.remote_traceback

    def test_legacy_single_failure_constructor(self):
        err = WorkerError(2, "a traceback")
        assert err.index == 2
        assert err.indices == [2]
        assert err.remote_traceback == "a traceback"
        assert "task 2" in str(err)


class TestCrashAndTimeoutRecovery:
    """A killed or hung worker must not hang or poison the sweep."""

    def test_sigkilled_worker_is_replaced_and_task_retried(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(3)]
        outcomes = run_supervised(
            _die_once, tasks, workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert [o.value for o in outcomes] == [100, 101, 102]
        assert outcomes[1].attempts == 2  # the crash consumed an attempt

    def test_crash_without_retry_reports_crashed(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(2)]
        outcomes = run_supervised(_die_once, tasks, workers=2)
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "crashed"
        assert "worker died" in outcomes[1].error

    def test_hung_worker_is_killed_and_task_retried(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(3)]
        outcomes = run_supervised(
            _hang_once, tasks, workers=2, task_timeout=1.5,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert [o.value for o in outcomes] == [-7, -6, -5]
        assert outcomes[1].attempts == 2


class TestDeadline:
    """An expired ``deadline`` leaves tasks un-run, serial or pooled."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_expired_deadline_runs_nothing_and_spawns_nothing(
            self, workers, monkeypatch):
        def _no_fleet(*args, **kwargs):
            raise AssertionError("an expired deadline must not spawn workers")

        monkeypatch.setattr(parallel, "_supervise", _no_fleet)
        ran = []
        outcomes = run_supervised(ran.append, [1, 2, 3], workers=workers,
                                  deadline=time.monotonic())
        assert ran == []
        assert [o.status for o in outcomes] == ["skipped"] * 3
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert not any(o.ok or o.attempts for o in outcomes)

    def test_deadline_is_checked_before_each_serial_task(self):
        deadline = time.monotonic() + 0.05

        def _slow(x):
            time.sleep(0.1)
            return x

        outcomes = run_supervised(_slow, [1, 2, 3], deadline=deadline)
        assert [o.status for o in outcomes] == ["ok", "skipped", "skipped"]

    def test_pooled_deadline_lets_running_tasks_finish(self):
        budget = 3.0
        wall = time.time() + budget
        outcomes = run_supervised(_sleep_until, [wall] * 5, workers=2,
                                  deadline=time.monotonic() + budget)
        statuses = [o.status for o in outcomes]
        nrun = statuses.count("ok")
        # whatever was dispatched before the deadline ran to completion
        # (at most one task per worker: each outlives the deadline);
        # everything behind it in the queue came back un-run
        assert nrun <= 2
        assert statuses == ["ok"] * nrun + ["skipped"] * (5 - nrun)
        assert all(o.value == wall for o in outcomes[:nrun])

    def test_skipped_tasks_are_not_quarantined(self, tmp_path):
        path = str(tmp_path / "q.json")
        run_supervised(_square, [1, 2], deadline=time.monotonic(),
                       quarantine=path)
        assert not os.path.exists(path)


class TestCachedMap:
    """The cached fan-out policy, on a counting in-process function."""

    @pytest.fixture
    def calls(self):
        return []

    @pytest.fixture
    def fn(self, calls):
        def _fn(x):
            calls.append(x)
            if x < 0:
                raise ValueError(f"task payload {x} is cursed")
            return x * x
        return _fn

    def test_duplicate_keys_single_flight(self, fn, calls, tmp_path):
        store = RunCache(str(tmp_path))
        outcomes = cached_map(fn, [3, 3, 4, 3], keys=["a", "a", "b", "a"],
                              store=store)
        assert calls == [3, 4]  # one execution per unique key
        assert [o.status for o in outcomes] == [
            "ok", "coalesced", "ok", "coalesced"]
        assert [o.value for o in outcomes] == [9, 9, 16, 9]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.attempts for o in outcomes] == [1, 0, 1, 0]
        # exact accounting: one lookup and one store per unique key, and
        # the followers never re-read what the leader just stored
        assert (store.stats.hits, store.stats.misses,
                store.stats.stores) == (0, 2, 2)
        warm = cached_map(fn, [3, 3, 4], keys=["a", "a", "b"], store=store)
        assert calls == [3, 4]  # nothing recomputed
        assert [o.status for o in warm] == ["cached", "coalesced", "cached"]
        assert [o.value for o in warm] == [9, 9, 16]

    def test_followers_share_a_failed_leaders_fate(self, fn, calls):
        outcomes = cached_map(fn, [-1, -1, 2], keys=["bad", "bad", "ok"])
        assert calls == [-1, 2]
        assert [o.status for o in outcomes] == ["failed", "failed", "ok"]
        assert outcomes[1].attempts == 0  # no second computation
        assert outcomes[1].error == outcomes[0].error
        assert not outcomes[1].ok

    @pytest.mark.parametrize("keys, cacheable", [
        ([None, None], None),                  # no key: never cached
        (["a", "b"], lambda value: False),     # caller says: do not store
    ])
    def test_uncacheable_results_recompute_every_call(
            self, fn, calls, tmp_path, keys, cacheable):
        store = RunCache(str(tmp_path))
        for _ in range(2):
            outcomes = cached_map(fn, [5, 5], keys=keys, store=store,
                                  cacheable=cacheable)
            assert [o.status for o in outcomes] == ["ok", "ok"]
            assert [o.value for o in outcomes] == [25, 25]
        assert calls == [5, 5, 5, 5]
        assert store.stats.stores == 0 and len(store) == 0

    def test_cacheable_sees_the_value(self, fn, tmp_path):
        store = RunCache(str(tmp_path))
        cached_map(fn, [2, 3], keys=["even", "odd"], store=store,
                   cacheable=lambda value: value % 2 == 0)
        again = cached_map(fn, [2, 3], keys=["even", "odd"], store=store)
        assert [o.status for o in again] == ["cached", "ok"]

    def test_expired_deadline_dispatches_nothing(self, fn, calls, tmp_path):
        store = RunCache(str(tmp_path))
        cached_map(fn, [2], keys=["a"], store=store)
        outcomes = cached_map(fn, [2, 7, 7], keys=["a", "b", "b"],
                              store=store, deadline=time.monotonic())
        assert calls == [2]  # only the warm-up ran
        # the cache still serves; un-run leaders take followers with them
        assert [o.status for o in outcomes] == [
            "cached", "skipped", "skipped"]
        assert store.stats.stores == 1

    def test_corrupt_entry_evicted_recomputed_restored(
            self, fn, calls, tmp_path):
        store = RunCache(str(tmp_path))
        cached_map(fn, [6], keys=["k"], store=store)
        path = store.path_for("k")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])  # torn write
        outcomes = cached_map(fn, [6], keys=["k"], store=store)
        assert outcomes[0].status == "ok" and outcomes[0].value == 36
        assert calls == [6, 6]
        assert store.stats.evictions == 1
        assert store.stats.stores == 2  # cold put + the restore
        assert store.get("k") == 36

    def test_ok_values_stored_before_the_caller_sees_a_failure(
            self, fn, tmp_path):
        store = RunCache(str(tmp_path))
        outcomes = cached_map(fn, [1, -1, 2], keys=["a", "b", "c"],
                              store=store)
        with pytest.raises(WorkerError) as err:
            values_or_raise(outcomes)
        assert err.value.indices == [1]
        assert store.stats.stores == 2
        assert store.get("a") == 1 and store.get("c") == 4


class TestQuarantine:
    def test_failed_tasks_land_in_replayable_artifact(self, tmp_path):
        path = str(tmp_path / "quarantine.json")
        outcomes = run_supervised(
            _boom, [0, 1, 2, 3], quarantine=path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcomes[2].quarantined
        assert not outcomes[0].quarantined
        entries = load_quarantine(path)
        assert [e["index"] for e in entries] == [2]
        assert entries[0]["task"] == 2
        assert entries[0]["attempts"] == 2
        assert "cursed" in entries[0]["error"]

    def test_no_artifact_when_nothing_failed(self, tmp_path):
        path = str(tmp_path / "quarantine.json")
        run_supervised(_square, [1, 2], quarantine=path)
        assert not os.path.exists(path)

    def test_load_rejects_non_quarantine_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a quarantine artifact"):
            load_quarantine(str(path))

    def test_unjsonable_tasks_fall_back_to_repr(self, tmp_path):
        path = str(tmp_path / "q.json")
        tasks = [{0, 1}]  # a set does not JSON-serialize
        outcomes = [TaskOutcome(index=0, status="failed", error="e",
                                attempts=1)]
        assert write_quarantine(path, tasks, outcomes) == path
        assert load_quarantine(path)[0]["task"] == repr({0, 1})
        assert json.load(open(path))["format"] == QUARANTINE_FORMAT


class TestSpawnSeeds:
    def test_pure_function_of_inputs(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)

    def test_distinct_across_children_and_parents(self):
        a = spawn_seeds(7, 8)
        b = spawn_seeds(8, 8)
        assert len(set(a)) == 8
        assert set(a).isdisjoint(b)

    def test_prefix_stability(self):
        # Growing the fleet must not reshuffle existing assignments.
        assert spawn_seeds(3, 4) == spawn_seeds(3, 8)[:4]
