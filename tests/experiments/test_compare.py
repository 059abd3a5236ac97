"""Cross-algorithm comparison harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    AlgorithmComparison,
    ComparisonResult,
    compare_algorithms,
    render_comparison,
)
from repro.machines import GenericMachine
from repro.physics import ParticleSet


@pytest.fixture
def machine():
    return GenericMachine(nranks=16)


@pytest.fixture
def particles():
    return ParticleSet.uniform_random(64, 2, 1.0, max_speed=0.1, seed=11)


def test_full_functional_sweep(machine, particles):
    result = compare_algorithms(machine, particles, c=2, rcut=0.3)
    assert isinstance(result, ComparisonResult)
    names = [e.algorithm for e in result.entries]
    # Square p and rcut given: every algorithm participates.
    assert set(names) >= {"allpairs", "cutoff", "midpoint", "spatial",
                          "symmetric", "particle_ring",
                          "particle_allgather", "force_decomposition"}
    assert not result.skipped
    for e in result.entries:
        assert isinstance(e, AlgorithmComparison)
        # Each algorithm matches ITS OWN serial reference (cutoff methods
        # against the cutoff law, open methods against the open law).
        assert e.max_abs_dev < 1e-12
        assert e.elapsed > 0
        assert e.critical_messages >= 0
        assert e.phase_table
        for cell in e.phase_table.values():
            assert set(cell) == {"max_s", "mean_s", "max_messages",
                                 "max_bytes", "retries", "redelivered"}


def test_skips_record_reasons(particles):
    machine = GenericMachine(nranks=8)  # not square, and no rcut passed
    result = compare_algorithms(machine, particles)
    skipped = result.skipped
    assert "needs a cutoff radius" in skipped["cutoff"]
    assert "needs a cutoff radius" in skipped["spatial"]
    assert "needs a cutoff radius" in skipped["midpoint"]
    assert "square rank count" in skipped["force_decomposition"]
    ran = {e.algorithm for e in result.entries}
    assert ran == {"allpairs", "symmetric", "particle_ring",
                   "particle_allgather", "systolic_ring",
                   "half_systolic", "hyper_systolic"}


def test_c_adapts_to_capability(machine, particles):
    """c=4 applies where supported and silently drops to 1 elsewhere."""
    result = compare_algorithms(machine, particles, c=4,
                                algorithms=["allpairs", "particle_ring"])
    by_name = {e.algorithm: e for e in result.entries}
    assert by_name["allpairs"].run.spec.c == 4
    assert by_name["particle_ring"].run.spec.c == 1


def test_workload_synthesis(machine):
    result = compare_algorithms(machine, n=48, seed=3,
                                algorithms=["allpairs", "particle_ring"])
    assert len(result.entries) == 2
    a, b = result.entries
    np.testing.assert_array_equal(a.run.forces.shape, b.run.forces.shape)


def test_lost_row_keeps_completed_rows_in_the_cache(
        machine, particles, tmp_path, monkeypatch):
    """A re-run with the same cache resumes from whatever completed."""
    from repro.core.parallel import WorkerError
    from repro.core.runcache import RunCache
    from repro.experiments import compare

    names = ["allpairs", "symmetric", "particle_ring"]
    real_task = compare._compare_task

    def _poisoned(task):
        if task[1] == "symmetric":
            raise RuntimeError("poisoned row")
        return real_task(task)

    monkeypatch.setattr(compare, "_compare_task", _poisoned)
    with pytest.raises(WorkerError) as err:
        compare_algorithms(machine, particles, c=2, algorithms=names,
                           retry=1, cache=str(tmp_path))
    assert err.value.indices == [1]
    assert "poisoned row" in err.value.remote_traceback
    monkeypatch.undo()

    cache = RunCache(str(tmp_path), namespace=compare.COMPARE_NAMESPACE)
    result = compare_algorithms(machine, particles, c=2, algorithms=names,
                                cache=cache)
    assert [e.algorithm for e in result.entries] == names
    assert cache.stats.hits == 2  # the rows that survived the first call
    assert cache.stats.stores == 1  # only the lost row was computed


def test_render_table(machine, particles):
    result = compare_algorithms(machine, particles, c=2,
                                algorithms=["allpairs", "symmetric",
                                            "cutoff"])
    text = render_comparison(result)
    assert "algorithm" in text and "max|dF|" in text
    assert "allpairs" in text and "symmetric" in text
    assert "skipped: needs a cutoff radius" in text  # cutoff without rcut
    assert "phase breakdown" in text


def test_render_empty():
    text = render_comparison(ComparisonResult(entries=[], skipped={}))
    assert "algorithm" in text
