"""The algorithm registry and the single run pipeline.

The centerpiece is the cross-algorithm equivalence matrix: every
registered algorithm, on both a uniform and a clustered
workload, must reproduce the serial reference forces and the exactly-once
pair-coverage invariant through the pipeline.  The matrix is parametrized
off the registry itself, so a newly registered algorithm is tested for
free (and a broken registration fails loudly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Run,
    RunSpec,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    run,
)
from repro.core.runner import _REGISTRY
from repro.machines import GenericMachine
from repro.physics import ForceLaw, ParticleSet, PhantomSet
from repro.physics.reference import reference_forces, reference_pair_matrix
from repro.physics.workloads import gaussian_clusters
from repro.simmpi.faults import DropTransfer, FaultSchedule, KillRank

from ..conftest import assert_forces_close

RCUT = 0.3
P = 16


def _workload(kind: str, n: int = 96) -> ParticleSet:
    if kind == "uniform":
        return ParticleSet.uniform_random(n, 2, 1.0, max_speed=0.1, seed=1234)
    return gaussian_clusters(n, 2, 1.0, nclusters=4, spread=0.08, seed=99)


def _spec(machine, name, particles, **overrides) -> RunSpec:
    """A spec meeting the algorithm's declared requirements."""
    alg = get_algorithm(name)
    kw = dict(
        machine=machine, algorithm=name, particles=particles,
        c=2 if alg.supports_c else 1,
        pair_counter=np.zeros((len(particles), len(particles)),
                              dtype=np.int64),
    )
    if alg.needs_rcut:
        kw.update(rcut=RCUT, box_length=1.0)
    kw.update(overrides)
    return RunSpec(**kw)


def _reference_law(name) -> ForceLaw:
    return ForceLaw().with_rcut(RCUT) if get_algorithm(name).needs_rcut \
        else ForceLaw()


ALGORITHMS = list_algorithms()
#: The algorithms with a modeled mode over a PhantomSet workload.
PHANTOM_CAPABLE = ("allpairs", "cutoff", "symmetric")


# ---------------------------------------------------------------------------
# The equivalence matrix.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["uniform", "clustered"])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_equivalence_matrix(name, workload):
    """Every algorithm x workload: reference forces + coverage."""
    particles = _workload(workload)
    spec = _spec(GenericMachine(nranks=P), name, particles)
    out = run(spec)

    assert isinstance(out, Run)
    assert out.algorithm == name
    assert out.spec is spec
    np.testing.assert_array_equal(out.ids, np.sort(particles.ids))

    law = _reference_law(name)
    order = np.argsort(particles.ids, kind="stable")
    assert_forces_close(out.forces, reference_forces(law, particles)[order])

    # Exactly-once: in-cutoff ordered pairs accumulated exactly once, and
    # with a cutoff no out-of-range pair ever contributes more than a scan.
    expected = reference_pair_matrix(law, particles)
    counted = spec.pair_counter
    assert (counted[expected == 1] == 1).all()
    assert (counted[np.eye(len(particles), dtype=bool)] == 0).all()
    if law.rcut is None:
        np.testing.assert_array_equal(counted, expected)


@pytest.mark.parametrize("name", PHANTOM_CAPABLE)
def test_phantom_workload_runs(name):
    """A PhantomSet workload runs through the pipeline: a report, no forces."""
    kw = dict(machine=GenericMachine(nranks=P), algorithm=name,
              particles=PhantomSet(96), c=2)
    if get_algorithm(name).needs_rcut:
        kw.update(rcut=RCUT, box_length=1.0)
    out = run(RunSpec(**kw))
    assert out.ids is None and out.forces is None
    assert out.run.elapsed > 0
    assert out.report.phase_labels()


@pytest.mark.parametrize("tier", ["event", "heuristic"])
@pytest.mark.parametrize("name", [n for n in ALGORITHMS
                                  if n not in PHANTOM_CAPABLE])
def test_phantom_workload_rejected_elsewhere(name, tier):
    """Adapters without a modeled mode refuse a PhantomSet, naming themselves."""
    alg = get_algorithm(name)
    spec = RunSpec(machine=GenericMachine(nranks=P), algorithm=name,
                   particles=PhantomSet(96), engine_tier=tier,
                   rcut=RCUT if alg.needs_rcut else None)
    with pytest.raises(ValueError, match=f"algorithm {name!r} has no phantom"):
        run(spec)


# ---------------------------------------------------------------------------
# Uniform knob threading: faults, engine_opts, scratch for EVERY
# algorithm (the PR-1/PR-2 coverage gap this layer closes).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALGORITHMS)
def test_transient_faults_accepted_everywhere(name, particles_2d):
    """A kill-free schedule (dropped transfer -> engine retry) is accepted
    by every algorithm and leaves forces correct."""
    faults = FaultSchedule(events=(DropTransfer(0, 1),), seed=3)
    spec = _spec(GenericMachine(nranks=P), name, particles_2d,
                 pair_counter=None, faults=faults)
    out = run(spec)
    law = _reference_law(name)
    order = np.argsort(particles_2d.ids, kind="stable")
    assert_forces_close(out.forces,
                        reference_forces(law, particles_2d)[order])


@pytest.mark.parametrize("name", ALGORITHMS)
def test_engine_opts_and_scratch_everywhere(name, particles_2d):
    """fast_path=False + scratch=False reproduce the default-path forces
    bitwise for every algorithm."""
    machine = GenericMachine(nranks=P)
    fast = run(_spec(machine, name, particles_2d, pair_counter=None))
    ref = run(_spec(machine, name, particles_2d, pair_counter=None,
                    scratch=False, engine_opts={"fast_path": False}))
    np.testing.assert_array_equal(fast.forces, ref.forces)
    assert fast.run.elapsed == ref.run.elapsed


@pytest.mark.parametrize("name", [n for n in ALGORITHMS
                                  if get_algorithm(n).fault_mode != "kills"])
def test_kills_rejected_without_recovery_path(name, particles_2d):
    """Kill schedules are rejected up front by non-resilient algorithms."""
    faults = FaultSchedule(events=(KillRank(3, after_ops=5),))
    spec = _spec(GenericMachine(nranks=P), name, particles_2d,
                 pair_counter=None, faults=faults)
    with pytest.raises(ValueError, match="no kill-recovery path"):
        run(spec)


def test_kills_require_replication(particles_2d):
    faults = FaultSchedule(events=(KillRank(3, after_ops=5),))
    spec = RunSpec(machine=GenericMachine(nranks=P), algorithm="allpairs",
                   particles=particles_2d, c=1, faults=faults)
    with pytest.raises(ValueError, match="c >= 2"):
        run(spec)


# ---------------------------------------------------------------------------
# Registry mechanics and spec validation.
# ---------------------------------------------------------------------------


def test_unknown_algorithm_lists_known():
    with pytest.raises(KeyError, match="allpairs"):
        run(RunSpec(machine=GenericMachine(nranks=4), algorithm="nope",
                    n=8))


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        register_algorithm("allpairs")(lambda spec: None)


def test_register_and_run_custom_algorithm():
    """A third-party registration flows through the whole pipeline."""
    name = "_test_custom"

    @register_algorithm(name, supports_c=False, summary="test-only")
    def _prepare(spec):
        from repro.core import Prepared

        def program(comm):
            yield from comm.barrier()
            return (np.array([comm.rank]), np.zeros((1, 2)))

        return Prepared(program=program,
                        collect=lambda r: (np.arange(comm_size),
                                           np.zeros((comm_size, 2))))

    comm_size = 4
    try:
        out = run(RunSpec(machine=GenericMachine(nranks=comm_size),
                          algorithm=name, n=4))
        assert out.algorithm == name
        assert len(out.ids) == comm_size
        assert name in list_algorithms()
    finally:
        _REGISTRY.pop(name, None)


def test_c_rejected_where_unsupported(particles_2d):
    spec = RunSpec(machine=GenericMachine(nranks=P),
                   algorithm="particle_ring", particles=particles_2d, c=2)
    with pytest.raises(ValueError, match="no replication knob"):
        run(spec)


def test_rcut_required_where_declared(particles_2d):
    spec = RunSpec(machine=GenericMachine(nranks=P), algorithm="spatial",
                   particles=particles_2d)
    with pytest.raises(ValueError, match="cutoff radius"):
        run(spec)


def test_square_p_required_for_force_decomposition(particles_2d):
    spec = RunSpec(machine=GenericMachine(nranks=8),
                   algorithm="force_decomposition", particles=particles_2d)
    with pytest.raises(ValueError, match="square rank count"):
        run(spec)


def test_workload_synthesis_from_n_and_seed():
    """particles may be omitted: n (+ seed) synthesizes the workload."""
    machine = GenericMachine(nranks=8)
    a = run(RunSpec(machine=machine, algorithm="particle_ring", n=64,
                    seed=5))
    b = run(RunSpec(machine=machine, algorithm="particle_ring", n=64,
                    seed=5))
    np.testing.assert_array_equal(a.forces, b.forces)
    c = run(RunSpec(machine=machine, algorithm="particle_ring", n=64,
                    seed=6))
    assert np.abs(a.forces - c.forces).max() > 0


def test_missing_workload_is_an_error():
    with pytest.raises(ValueError, match="needs particles"):
        run(RunSpec(machine=GenericMachine(nranks=8),
                    algorithm="particle_ring"))


def test_run_surface(particles_2d):
    """The uniform Run result carries report/trace/coverage/elapsed."""
    counter = np.zeros((96, 96), dtype=np.int64)
    out = run(RunSpec(machine=GenericMachine(nranks=P),
                      algorithm="allpairs", particles=particles_2d, c=2,
                      pair_counter=counter,
                      engine_opts={"record_events": True}))
    assert out.report is out.run.report
    assert out.trace, "record_events should surface timeline events"
    assert out.coverage is counter
    assert out.elapsed == out.run.elapsed


def test_every_core_runner_is_registered_or_exempt(tmp_path):
    """The CI gate's invariant, enforced from the suite as well: ``run()``
    is the only entry point of a registered algorithm, so ``repro.core``
    exports no ``run_*`` beyond the exempt multi-step drivers and no
    module defines a per-algorithm ``run_<name>``."""
    import repro.core as core
    import sys
    from pathlib import Path

    tools = Path(__file__).resolve().parents[2] / "tools"
    sys.path.insert(0, str(tools))
    try:
        import check_registry
    finally:
        sys.path.remove(str(tools))
    runners = {n for n in core.__all__ if n.startswith("run_")}
    assert runners == set(check_registry.EXEMPT)
    assert check_registry.problems() == []

    # The gate bites: a re-added one-line shim is reported.
    shim = tmp_path / "repro" / "core" / "shim.py"
    shim.parent.mkdir(parents=True)
    shim.write_text("def run_allpairs(machine, particles, c): ...\n")
    assert any("run_allpairs" in p
               for p in check_registry.problems(tmp_path))


def test_registry_gate_rejects_virtual_names():
    """The CI gate fails on a registry name ending in ``_virtual``: modeled
    runs are a PhantomSet workload, not a second registration."""
    import sys
    from pathlib import Path

    tools = Path(__file__).resolve().parents[2] / "tools"
    sys.path.insert(0, str(tools))
    try:
        import check_registry
    finally:
        sys.path.remove(str(tools))
    name = "_probe_virtual"
    register_algorithm(name)(lambda spec: None)
    try:
        assert any(repr(name) in p and "_virtual" in p
                   for p in check_registry.problems())
    finally:
        _REGISTRY.pop(name, None)
    assert check_registry.problems() == []
