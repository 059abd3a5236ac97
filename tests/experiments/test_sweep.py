"""The resilient sweep harness: normalization, caching, quarantine, parity.

``repro.experiments.sweep`` is the ``repro sweep`` engine; its contract
is that a sweep's merged records do not depend on *how* they were
produced — serial, cached, or replayed from quarantine.  The spawning
chaos-parity legs (worker kills mid-sweep) live in
``tests/integration/test_parallel_harness.py`` and ``tools/host_chaos.py``;
here everything runs serially so the suite stays fast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import RetryPolicy
from repro.core.runcache import RunCache
from repro.experiments.sweep import (
    SWEEP_NAMESPACE,
    expand_grid,
    normalize_task,
    replay_quarantine,
    _build_machine,
    run_sweep,
    sweep_task,
    task_fingerprint,
)

ALLPAIRS = {"algorithm": "allpairs", "p": 4, "n": 16}


class TestNormalizeTask:
    def test_defaults_filled_in_fixed_order(self):
        d = normalize_task({"algorithm": "allpairs"})
        assert d["p"] == 16 and d["c"] == 1 and d["n"] == 64
        assert d["machine"] == "generic" and d["engine_tier"] == "event"
        assert d["rcut"] is None

    def test_equivalent_spellings_fingerprint_identically(self):
        a = task_fingerprint({"algorithm": "allpairs", "p": 8})
        b = task_fingerprint({"p": "8", "algorithm": "allpairs"})
        assert a == b
        assert a.startswith(SWEEP_NAMESPACE + ";")

    def test_different_configs_fingerprint_differently(self):
        a = task_fingerprint({"algorithm": "allpairs", "seed": 0})
        b = task_fingerprint({"algorithm": "allpairs", "seed": 1})
        assert a != b

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep descriptor"):
            normalize_task({"algorithm": "allpairs", "particels": 64})

    def test_missing_algorithm_rejected(self):
        with pytest.raises(ValueError, match="needs an 'algorithm'"):
            normalize_task({"p": 8})

    @pytest.mark.parametrize("bad", [
        {"algorithm": "allpairs", "machine": "cray"},
        {"algorithm": "allpairs", "engine_tier": "quantum"},
    ])
    def test_bad_enums_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_task(bad)

    @pytest.mark.parametrize("field, value", [
        ("p", 16.7), ("p", True), ("c", False), ("p", None), ("machine", None),
        ("n", -5), ("p", 0), ("c", 0), ("n", [1]), ("seed", {"a": 1}),
        ("rcut", float("inf")), ("rcut", "nan"), ("rcut", True),
        ("p", float("inf")), ("algorithm", 5), ("dim", "two"),
    ])
    def test_malformed_fields_rejected(self, field, value):
        """Each malformed field is a ValueError (HTTP 400 from the
        service), not a truncated value, a bool-as-int or a TypeError."""
        with pytest.raises(ValueError, match=repr(field)):
            normalize_task({"algorithm": "allpairs", field: value})

    def test_valid_spellings_keep_the_fingerprint(self):
        want = ("sweep-v1;algorithm='allpairs';machine='generic';p=16;c=1;"
                "n=64;seed=0;rcut=0.3;dim=None;hyper_k=None;"
                "engine_tier='event'")
        for p in (16, 16.0, "16"):
            for rcut in (0.3, "0.3"):
                assert task_fingerprint({"algorithm": "allpairs", "p": p,
                                         "rcut": rcut}) == want

    def test_unknown_algorithm_name_still_normalizes(self):
        assert normalize_task({"algorithm": "no_such"})["algorithm"] \
            == "no_such"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.one_of(st.sampled_from(["algorithm", "machine", "p", "c", "n",
                                   "seed", "rcut", "dim", "hyper_k",
                                   "engine_tier"]),
                  st.text(max_size=4)),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8)
            | st.sampled_from(["16", "16.0", "allpairs", "hopper",
                               "heuristic", "1e3", "inf"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6),
        max_size=6))
    def test_any_json_object_normalizes_or_raises_value_error(self, desc):
        """The trust boundary: an arbitrary JSON object becomes a
        normalized descriptor or a ValueError, never another exception;
        a normalized descriptor is a fixed point with a fingerprint."""
        try:
            out = normalize_task(desc)
        except ValueError:
            return
        assert normalize_task(out) == out
        assert task_fingerprint(desc) == task_fingerprint(out)
        assert min(out["p"], out["n"], out["c"]) >= 1


class TestMachines:
    @pytest.mark.parametrize("machine, p", [
        ("hopper", 16), ("hopper", 36), ("intrepid", 6), ("hopper", 48),
        ("intrepid", 8),
    ])
    def test_any_rank_count_builds(self, machine, p):
        """Hopper/Intrepid points whose p does not fill whole nodes run,
        with the node sizes the CLI uses for the same rank count."""
        from repro.cli import _machine

        record = sweep_task(normalize_task(
            {"algorithm": "allpairs", "machine": machine, "p": p, "c": 2,
             "n": 64}))
        assert record["forces"] is not None and record["elapsed"] > 0
        assert _build_machine(machine, p).describe() == \
            _machine(machine, p).describe()


class TestExpandGrid:
    def test_cross_product_with_capability_clamping(self):
        tasks, skipped = expand_grid(
            ["allpairs", "particle_ring"], ps=(4,), cs=(1, 2), ns=(16,))
        by_alg = {}
        for t in tasks:
            by_alg.setdefault(t["algorithm"], []).append(t["c"])
        assert sorted(by_alg["allpairs"]) == [1, 2]
        # no replication knob -> one c=1 point, duplicates dropped
        assert by_alg["particle_ring"] == [1]
        assert not skipped

    def test_needs_rcut_skipped_with_reason(self):
        tasks, skipped = expand_grid(["cutoff"], ps=(4,), ns=(16,))
        assert tasks == []
        assert "cutoff" in skipped and "rcut" in skipped["cutoff"]

    def test_square_p_skipped_per_rank_count(self):
        tasks, skipped = expand_grid(
            ["force_decomposition"], ps=(8, 9), ns=(16,))
        assert all(t["p"] == 9 for t in tasks)
        assert "square rank count" in skipped["force_decomposition"]


class TestRunSweep:
    def test_serial_sweep_produces_records(self):
        report = run_sweep([ALLPAIRS])
        assert report.ok
        (o,) = report.outcomes
        assert o.status == "ok"
        assert o.value["forces"] is not None
        assert o.value["critical_messages"] > 0
        assert "task   0 [ok" in report.summary()

    def test_cold_then_warm_cache_serves_everything(self, tmp_path):
        tasks, _ = expand_grid(["allpairs", "symmetric"], ps=(4,), ns=(16,))
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        cold = run_sweep(tasks, cache=cache)
        assert cold.ok and len(cold.computed) == len(tasks)
        warm = run_sweep(tasks, cache=cache)
        assert warm.ok and not warm.computed
        assert len(warm.cached) == len(tasks)
        assert all(o.attempts == 0 for o in warm.outcomes)
        # served values are the cold run's values, bitwise
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.value == b.value
        assert "cached=2" in warm.summary()

    def test_partial_cache_resumes_only_misses(self, tmp_path):
        tasks, _ = expand_grid(["allpairs", "symmetric"], ps=(4,), ns=(16,))
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        run_sweep([tasks[0]], cache=cache)  # pre-warm the first point only
        report = run_sweep(tasks, cache=cache)
        assert [o.status for o in report.outcomes] == ["cached", "ok"]
        assert [o.index for o in report.outcomes] == [0, 1]

    def test_corrupt_cache_entry_recomputed_not_served(self, tmp_path):
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        cold = run_sweep([ALLPAIRS], cache=cache)
        path = cache.path_for(task_fingerprint(ALLPAIRS))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 7])  # torn write
        again = run_sweep([ALLPAIRS], cache=cache)
        assert again.outcomes[0].status == "ok"  # recomputed, not cached
        assert cache.stats.evictions == 1
        assert again.outcomes[0].value == cold.outcomes[0].value

    def test_failed_tasks_quarantined_and_replayable(self, tmp_path):
        qpath = str(tmp_path / "quarantine.json")
        bad = dict(ALLPAIRS, algorithm="no_such_algorithm")
        report = run_sweep([ALLPAIRS, bad],
                           retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                           quarantine=qpath)
        assert not report.ok
        assert report.quarantine == qpath
        assert report.outcomes[1].quarantined
        assert report.outcomes[1].attempts == 2
        # replay exactly the poisoned unit (fixed to a real algorithm it
        # would succeed; here it must fail again, proving the unit is
        # fed back unchanged)
        replayed = replay_quarantine(qpath)
        assert len(replayed.tasks) == 1
        assert replayed.tasks[0]["algorithm"] == "no_such_algorithm"
        assert not replayed.ok

    def test_sweep_never_raises_on_task_failure(self):
        report = run_sweep([dict(ALLPAIRS, algorithm="no_such_algorithm")])
        assert not report.ok
        assert report.outcomes[0].status == "failed"
        assert "no_such_algorithm" in report.outcomes[0].error
        assert "failed" in report.describe_task(0)


class TestCacheAccounting:
    """Locks the CacheStats contract: one lookup and at most one store
    per unique fingerprint, and a freshly stored entry is never re-read
    to serve its own batch (which would double-count it as a hit)."""

    DUP_BATCH = [ALLPAIRS, dict(ALLPAIRS), {"algorithm": "symmetric",
                                            "p": 4, "n": 16}]

    def test_cold_batch_with_duplicates_single_flights(self, tmp_path):
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        report = run_sweep(self.DUP_BATCH, cache=cache)
        assert [o.status for o in report.outcomes] == [
            "ok", "coalesced", "ok"]
        # 2 unique fingerprints: exactly 2 lookups (all misses), 2
        # stores, and crucially ZERO hits — the duplicate was served
        # from the leader's in-memory result, not by re-reading the
        # entry the leader just stored.
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert cache.stats.stores == 2
        # single-flight shares the value bitwise and consumes no attempt
        assert report.outcomes[1].value == report.outcomes[0].value
        assert report.outcomes[1].attempts == 0
        assert report.outcomes[1].ok
        assert len(report.coalesced) == 1

    def test_warm_batch_with_duplicates_one_lookup_per_unique(self, tmp_path):
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        run_sweep(self.DUP_BATCH, cache=cache)
        warm_cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        warm = run_sweep(self.DUP_BATCH, cache=warm_cache)
        assert [o.status for o in warm.outcomes] == [
            "cached", "coalesced", "cached"]
        assert warm_cache.stats.hits == 2
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.stores == 0
        assert warm_cache.stats.hit_rate == 1.0
        assert warm.outcomes[1].value == warm.outcomes[0].value

    def test_duplicates_coalesce_without_a_cache_too(self):
        report = run_sweep([ALLPAIRS, dict(ALLPAIRS)])
        assert [o.status for o in report.outcomes] == ["ok", "coalesced"]
        assert report.outcomes[1].value == report.outcomes[0].value

    def test_failed_leader_fails_its_followers(self):
        bad = dict(ALLPAIRS, algorithm="no_such_algorithm")
        report = run_sweep([bad, dict(bad)])
        assert [o.status for o in report.outcomes] == ["failed", "failed"]
        assert report.outcomes[1].attempts == 0  # no second computation
        assert report.outcomes[1].error == report.outcomes[0].error

    def test_stats_surface_lookups_and_to_dict(self, tmp_path):
        cache = RunCache(str(tmp_path), namespace=SWEEP_NAMESPACE)
        run_sweep([ALLPAIRS], cache=cache)
        run_sweep([ALLPAIRS], cache=cache)
        snap = cache.stats.to_dict()
        assert snap == {"hits": 1, "misses": 1, "stores": 1,
                        "evictions": 0, "hit_rate": 0.5}
        assert cache.stats.lookups == 2


class TestCliSweep:
    def test_cold_then_expect_cached(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        base = ["sweep", "--algorithms", "allpairs", "--ranks", "4",
                "--particles", "16", "--cache", cache]
        assert main(base) == 0
        assert main(base + ["--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "cached" in out

    def test_expect_cached_fails_cold(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--algorithms", "allpairs", "--ranks", "4",
                     "--particles", "16",
                     "--cache", str(tmp_path / "cache"),
                     "--expect-cached"]) == 1
        assert "NOT FULLY CACHED" in capsys.readouterr().err

    def test_out_json_and_skips(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out_path = str(tmp_path / "records.json")
        assert main(["sweep", "--algorithms", "allpairs,cutoff",
                     "--ranks", "4", "--particles", "16",
                     "--out", out_path]) == 0
        data = json.load(open(out_path))
        assert data["format"] == "repro-sweep-v1"
        assert len(data["records"]) == 1
        assert data["records"][0]["status"] == "ok"
        assert data["records"][0]["critical_messages"] > 0
        assert "skipped cutoff" in capsys.readouterr().out

    def test_unknown_algorithm_exits_2(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--algorithms", "not_an_algorithm"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_expect_cached_without_cache_exits_2(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--algorithms", "allpairs", "--ranks", "4",
                     "--particles", "16", "--expect-cached"]) == 2
        assert "--expect-cached needs --cache" in capsys.readouterr().err
