"""End-to-end tests for ``repro.service`` over real HTTP.

Every test boots a live :class:`ServiceThread` (its own event loop on a
daemon thread, ephemeral port) and drives it through
:class:`ServiceClient` — the same stdlib-urllib path an external caller
uses — so the wire format, the routing, and the queue semantics are all
exercised together.  The assertions mirror the service's contract:

* submit -> poll -> record round trip, with the record **bitwise
  identical** to a direct in-process :func:`sweep_task` call;
* cache-hit short-circuit, both in-memory (resubmission to a live
  service) and durable (a fresh service over a pre-warmed cache dir);
* single-flight coalescing: N identical descriptors in one batch cost
  exactly one computation;
* quarantine surfacing for poisoned jobs, replayable via
  :func:`repro.experiments.sweep.replay_quarantine`;
* the counter partition: submitted == cache_hits + coalesced +
  computed + failed (+ still-pending heads, of which these tests leave
  none).
"""

import pytest

from repro.core.runcache import RunCache
from repro.experiments.sweep import (
    SWEEP_NAMESPACE, normalize_task, replay_quarantine, sweep_task,
    task_fingerprint,
)
from repro.service import ServiceClient, ServiceError, ServiceThread, job_id

ALLPAIRS = {"algorithm": "allpairs", "p": 4, "c": 2, "n": 16}
RING = {"algorithm": "particle_ring", "p": 4, "n": 16}
POISON = {"algorithm": "no_such_algorithm", "p": 4, "n": 16}

WAIT = 120.0


@pytest.fixture
def service(tmp_path):
    """A live service (durable cache + quarantine) and its client."""
    with ServiceThread(cache=str(tmp_path / "cache"),
                       quarantine=str(tmp_path / "quarantine.json")) as st:
        yield st, ServiceClient(st.base_url)


def _counters(client) -> dict:
    """The unlabeled service counters, short names."""
    snap = client.stats()["service"]
    return {name.rsplit(".", 1)[1]: snap[name] for name in snap}


class TestRoundTrip:
    def test_submit_poll_record(self, service):
        st, client = service
        assert client.health() == {"ok": True}
        (entry,) = client.submit([ALLPAIRS])
        assert entry["status"] == "queued"
        assert not entry["cached"] and not entry["coalesced"]
        assert entry["id"] == job_id(task_fingerprint(ALLPAIRS))

        snap = client.wait(entry["id"], timeout=WAIT)
        assert snap["status"] == "done"
        assert snap["source"] == "computed"
        assert snap["task"] == normalize_task(ALLPAIRS)
        assert snap["result"]["critical_messages"] > 0

        served = client.record(entry["id"])["record"]
        direct = sweep_task(normalize_task(ALLPAIRS))
        assert served == direct  # bitwise: bytes fields compare equal

    def test_job_listing_in_submission_order(self, service):
        st, client = service
        entries = client.submit([ALLPAIRS, RING])
        for e in entries:
            client.wait(e["id"], timeout=WAIT)
        listed = client.jobs()
        assert [j["id"] for j in listed] == [e["id"] for e in entries]

    def test_error_paths(self, service):
        st, client = service
        with pytest.raises(ServiceError) as exc:
            client.submit([{"algorithm": "allpairs", "bogus": 1}])
        assert exc.value.status == 400
        # malformed field values are a 400 too, never a 500 traceback
        for bad in ({"n": [1]}, {"p": 16.7}, {"p": None}, {"n": -5}):
            with pytest.raises(ServiceError) as exc:
                client.submit([{"algorithm": "allpairs", **bad}])
            assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.job("0" * 16)
        assert exc.value.status == 404
        # a record for an unfinished/unknown state is a 409
        (entry,) = client.submit([POISON])
        client.wait(entry["id"], timeout=WAIT)
        with pytest.raises(ServiceError) as exc:
            client.record(entry["id"])
        assert exc.value.status == 409


class TestCacheDedup:
    def test_resubmission_served_from_memory_not_the_store(self, service):
        st, client = service
        (entry,) = client.submit([ALLPAIRS])
        client.wait(entry["id"], timeout=WAIT)
        before = _counters(client)
        cache_before = client.stats()["cache"]
        assert before["computed"] == 1

        (again,) = client.submit([ALLPAIRS])
        assert again["cached"] is True
        assert again["status"] == "done"
        after = _counters(client)
        assert after["computed"] == 1  # nothing recomputed
        assert after["cache_hits"] == before["cache_hits"] + 1
        # the durable store was NOT re-read to serve the duplicate — the
        # double-count regression ``CacheStats`` documents
        assert client.stats()["cache"] == cache_before

    def test_durable_cache_survives_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ServiceThread(cache=cache_dir) as st:
            client = ServiceClient(st.base_url)
            (entry,) = client.submit([ALLPAIRS])
            cold = client.wait(entry["id"], timeout=WAIT)
            assert cold["source"] == "computed"
        with ServiceThread(cache=cache_dir) as st:
            client = ServiceClient(st.base_url)
            (entry,) = client.submit([ALLPAIRS])
            assert entry["cached"] is True
            warm = client.job(entry["id"])
            assert warm["status"] == "done" and warm["source"] == "cache"
            stats = client.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["misses"] == 0
            assert _counters(client)["computed"] == 0

    def test_prewarmed_by_run_sweep(self, tmp_path):
        # repro sweep and repro serve share the cache namespace: a sweep
        # warms the service.
        from repro.experiments.sweep import run_sweep

        cache_dir = str(tmp_path / "cache")
        swept = run_sweep([ALLPAIRS],
                          cache=RunCache(cache_dir,
                                         namespace=SWEEP_NAMESPACE))
        with ServiceThread(cache=cache_dir) as st:
            client = ServiceClient(st.base_url)
            (entry,) = client.submit([ALLPAIRS])
            assert entry["cached"] is True
            record = client.record(entry["id"])["record"]
            assert record == swept.outcomes[0].value


class TestCoalescing:
    def test_identical_batch_costs_one_computation(self, service):
        st, client = service
        n = 5
        entries = client.submit([dict(ALLPAIRS)] * n)
        assert len({e["id"] for e in entries}) == 1
        assert [e["coalesced"] for e in entries] == [False] + [True] * (n - 1)
        client.wait(entries[0]["id"], timeout=WAIT)
        counters = _counters(client)
        assert counters["submitted"] == n
        assert counters["computed"] == 1
        assert counters["coalesced"] == n - 1
        assert counters["cache_hits"] == 0
        # the one job records every submission
        assert client.job(entries[0]["id"])["submissions"] == n

    def test_counters_partition_submissions(self, service):
        st, client = service
        batch = [ALLPAIRS, dict(ALLPAIRS), RING, POISON]
        entries = client.submit(batch)
        for e in entries:
            client.wait(e["id"], timeout=WAIT)
        client.submit([RING])  # a cache hit on the completed job
        counters = _counters(client)
        assert counters["submitted"] == 5
        assert (counters["cache_hits"] + counters["coalesced"]
                + counters["computed"] + counters["failed"]) == 5
        assert counters["failed"] == 1
        assert client.stats()["jobs"]["failed"] == 1


class TestBitwiseParity:
    def test_cold_cached_coalesced_serve_identical_bits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ServiceThread(cache=cache_dir) as st:
            client = ServiceClient(st.base_url)
            first, dup = client.submit([dict(ALLPAIRS), dict(ALLPAIRS)])
            client.wait(first["id"], timeout=WAIT)
            cold = client.record(first["id"])
            assert cold["source"] == "computed"
            assert dup["id"] == first["id"]  # coalesced onto the same job
        with ServiceThread(cache=cache_dir) as st:
            client = ServiceClient(st.base_url)
            (entry,) = client.submit([ALLPAIRS])
            cached = client.record(entry["id"])
            assert cached["source"] == "cache"
        direct = sweep_task(normalize_task(ALLPAIRS))
        assert cold["record"] == direct
        assert cached["record"] == direct
        assert cold["record"]["forces"] == cached["record"]["forces"]

    def test_summary_digests_match_record_bytes(self, service):
        import hashlib

        st, client = service
        (entry,) = client.submit([ALLPAIRS])
        snap = client.wait(entry["id"], timeout=WAIT)
        record = client.record(entry["id"])["record"]
        assert (snap["result"]["forces_sha256"]
                == hashlib.sha256(record["forces"]).hexdigest())
        assert (snap["result"]["ids_sha256"]
                == hashlib.sha256(record["ids"]).hexdigest())


class TestQuarantine:
    def test_poisoned_job_surfaces_and_replays(self, service, tmp_path):
        st, client = service
        (entry,) = client.submit([POISON])
        snap = client.wait(entry["id"], timeout=WAIT)
        assert snap["status"] == "failed"
        assert snap["failure"] == "failed"
        assert snap["quarantined"] is True
        assert "no_such_algorithm" in snap["error"]
        assert _counters(client)["failed"] == 1
        # the artifact replays exactly the poisoned descriptor
        qpath = str(tmp_path / "quarantine.json")
        replayed = replay_quarantine(qpath)
        assert len(replayed.tasks) == 1
        assert replayed.tasks[0]["algorithm"] == "no_such_algorithm"
        assert not replayed.ok

    def test_failed_job_resubmission_requeues(self, service):
        st, client = service
        (entry,) = client.submit([POISON])
        client.wait(entry["id"], timeout=WAIT)
        (again,) = client.submit([POISON])
        assert again["status"] == "queued"
        assert not again["cached"] and not again["coalesced"]
        snap = client.wait(again["id"], timeout=WAIT)
        assert snap["status"] == "failed"  # still poisoned, fails again
        assert _counters(client)["failed"] == 2


class TestDashboard:
    def test_dashboard_renders_live_state(self, service):
        st, client = service
        entries = client.submit([ALLPAIRS, dict(ALLPAIRS), RING, POISON])
        for e in entries:
            client.wait(e["id"], timeout=WAIT)
        html = client.dashboard()
        assert html.startswith("<!doctype html>")
        assert "served without compute" in html
        assert "allpairs" in html and "particle_ring" in html
        assert "✕ failed" in html and "(quarantined)" in html
        assert "Completed jobs by algorithm" in html
        # self-contained: no external fetches, no scripts
        assert "<script" not in html and "http://" not in html.replace(
            st.base_url, "")
