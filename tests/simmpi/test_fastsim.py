"""The heuristic engine tier's agreement contract with the event engine.

``engine_tier="heuristic"`` (:mod:`repro.simmpi.fastsim`) batch-advances
whole phases with vectorized timestamp math instead of replaying every
message.  Its contract, pinned here:

* **traffic is exact** — per rank, per phase label, messages and bytes
  (sent and received) equal the event engine's to the integer, across
  the whole registry and off-pin configurations (replication, non-power-
  of-two team counts, torus machines, hardware collectives);
* **volumes match the committed lock** — the same
  ``benchmarks/METRICS_LOCK.json`` totals the event engine is gated on;
* **makespan is approximate but banded** — within a small constant
  factor of the event engine's virtual elapsed time;
* **metrics flow through the same projection** — including the
  ``kernel.pairs`` flop proxy;
* **incompatible features fail loudly** — faults, schedule perturbation,
  engine options name every problem and the fix;
* **it scales** — a p=1000 run completes as a smoke here (p=10^4 is
  locked via the committed benchmark artifact in
  ``tests/integration/test_bench_artifacts.py``).
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import RunSpec, get_algorithm, list_algorithms, run
from repro.experiments.schedfuzz import PHANTOM_UNITS
from repro.machines import GenericMachine, Hopper, Intrepid
from repro.metrics.registry import MetricsRegistry
from repro.physics import PhantomSet
from repro.simmpi.fastsim import heuristic_algorithms

PINNED = {"p": 16, "n": 64, "c": 2, "rcut": 0.3, "seed": 0}
LOCK_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "METRICS_LOCK.json"


def _spec(name, machine=None, **overrides):
    """Pinned spec for a registry name or a phantom unit (``*_phantom``)."""
    name, phantom_dim = PHANTOM_UNITS.get(name, (name, None))
    alg = get_algorithm(name)
    n = overrides.pop("n", PINNED["n"])
    kw = dict(
        machine=machine or GenericMachine(nranks=PINNED["p"]),
        algorithm=name,
        n=n,
        particles=None if phantom_dim is None else PhantomSet(n, phantom_dim),
        c=(overrides.pop("c", PINNED["c"]) if alg.supports_c else 1),
        rcut=(overrides.pop("rcut", PINNED["rcut"])
              if alg.needs_rcut else None),
        seed=PINNED["seed"],
    )
    kw.update(overrides)
    return RunSpec(**kw)


def _traffic(report):
    """(rank, phase) -> (msgs sent, bytes sent, msgs recv, bytes recv)."""
    out = {}
    for tr in report.traces:
        for label, tot in tr.phases.items():
            out[(tr.rank, label)] = (
                tot.messages_sent, tot.bytes_sent,
                tot.messages_received, tot.bytes_received)
    return out


def _assert_tiers_agree(spec):
    event = run(spec)
    heur = run(replace(spec, engine_tier="heuristic"))
    assert _traffic(event.report) == _traffic(heur.report)
    if event.run.elapsed > 0:
        ratio = heur.run.elapsed / event.run.elapsed
        assert 1 / 3 <= ratio <= 3, f"makespan ratio {ratio} out of band"
    return event, heur


class TestTrafficParity:
    @pytest.mark.parametrize("name",
                             sorted([*list_algorithms(), *PHANTOM_UNITS]))
    def test_pinned_config(self, name):
        _assert_tiers_agree(_spec(name))

    @pytest.mark.parametrize("name, kw", [
        ("allpairs", {"c": 4}),
        ("symmetric", {"machine": GenericMachine(nranks=10), "c": 2}),
        ("symmetric", {"machine": GenericMachine(nranks=12), "c": 3}),
        ("allpairs", {"layout": "teams"}),
        ("cutoff", {"machine": GenericMachine(nranks=12), "c": 3}),
        ("particle_allgather", {"machine": GenericMachine(nranks=12)}),
        ("particle_ring", {"machine": GenericMachine(nranks=12)}),
        ("allpairs", {"machine": Hopper(16, cores_per_node=4)}),
        ("midpoint", {"machine": GenericMachine(nranks=9), "n": 128,
                      "rcut": 0.2}),
        ("spatial", {"machine": GenericMachine(nranks=9), "n": 128,
                     "rcut": 0.2}),
        ("cutoff", {"c": 2, "dim": 2}),
        ("cutoff", {"machine": GenericMachine(nranks=27), "n": 81,
                    "c": 1, "dim": 3}),
        ("systolic_ring", {"machine": GenericMachine(nranks=10), "c": 1}),
        ("half_systolic", {"machine": GenericMachine(nranks=9), "c": 1}),
        ("hyper_systolic", {"machine": GenericMachine(nranks=12), "c": 1,
                            "hyper_k": 6}),
    ])
    def test_off_pin_configs(self, name, kw):
        _assert_tiers_agree(_spec(name, **kw))

    def test_hardware_collectives(self):
        _assert_tiers_agree(_spec(
            "particle_allgather", machine=Intrepid(16, cores_per_node=4),
            use_tree=True))

    def test_every_registry_algorithm_has_a_builder(self):
        assert set(heuristic_algorithms()) == set(list_algorithms())


class TestLockVolumes:
    def test_heuristic_volumes_match_committed_lock(self):
        lock = json.loads(LOCK_PATH.read_text())
        assert lock["config"] == PINNED
        for name, want in sorted(lock["algorithms"].items()):
            report = run(_spec(name, engine_tier="heuristic")).report
            total_msgs = total_bytes = 0
            for tr in report.traces:
                for tot in tr.phases.values():
                    total_msgs += tot.messages_sent
                    total_bytes += tot.bytes_sent
            got = {
                "critical_messages": int(report.critical_messages()),
                "critical_bytes": int(report.critical_bytes()),
                "total_messages": int(total_msgs),
                "total_bytes": int(total_bytes),
            }
            assert got == want, f"{name} heuristic volume off the lock"


class TestMetricsProjection:
    @pytest.mark.parametrize("name", ["allpairs", "cutoff"])
    def test_kernel_pairs_matches_event_tier(self, name):
        vals = {}
        for tier in ("event", "heuristic"):
            metrics = MetricsRegistry()
            run(_spec(name, metrics=metrics, engine_tier=tier))
            vals[tier] = int(metrics.value("kernel.pairs"))
        assert vals["heuristic"] == vals["event"] > 0

    @pytest.mark.parametrize("name", sorted(PHANTOM_UNITS))
    def test_phantom_records_no_kernel_pairs(self, name):
        """A phantom workload evaluates no pairs, so neither tier counts any."""
        for tier in ("event", "heuristic"):
            metrics = MetricsRegistry()
            run(_spec(name, metrics=metrics, engine_tier=tier))
            assert metrics.value("kernel.pairs") == 0

    def test_comm_series_match_event_tier(self):
        series = {}
        for tier in ("event", "heuristic"):
            metrics = MetricsRegistry()
            run(_spec("allpairs", metrics=metrics, engine_tier=tier))
            series[tier] = {
                name: metrics.value(name)
                for name in ("comm.messages_sent", "comm.bytes_sent")
            }
        assert series["heuristic"] == series["event"]

    def test_no_ids_or_forces(self):
        out = run(_spec("allpairs", engine_tier="heuristic"))
        assert out.ids is None and out.forces is None


class TestLoudErrors:
    def test_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown engine_tier"):
            run(_spec("allpairs", engine_tier="warp"))

    def test_schedule_perturbation_refused(self):
        with pytest.raises(ValueError) as err:
            run(_spec("allpairs", engine_tier="heuristic",
                      schedule="adversarial"))
        msg = str(err.value)
        assert "schedule=" in msg and "engine_tier='event'" in msg
        assert "docs/performance.md" in msg

    def test_engine_opts_refused(self):
        with pytest.raises(ValueError, match="engine_opts="):
            run(_spec("allpairs", engine_tier="heuristic",
                      engine_opts={"record_events": True}))

    def test_all_problems_listed_at_once(self):
        with pytest.raises(ValueError) as err:
            run(_spec("allpairs", engine_tier="heuristic",
                      schedule="random:1",
                      engine_opts={"record_events": True}))
        msg = str(err.value)
        assert "schedule=" in msg and "engine_opts=" in msg


class TestScale:
    def test_p_1000_completes(self):
        out = run(RunSpec(machine=GenericMachine(nranks=1000),
                          algorithm="allpairs", n=2000, c=4, seed=0,
                          engine_tier="heuristic"))
        assert len(out.run.clocks) == 1000
        assert out.run.elapsed > 0
        assert np.isfinite(out.run.elapsed)
