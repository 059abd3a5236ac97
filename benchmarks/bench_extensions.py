"""Benchmarks of the reproduction's extensions beyond the paper.

* **Symmetric forces** — the optimization the paper explicitly skips
  ("we do not apply optimizations to exploit the symmetry"): halves the
  evaluated pairs and shortens the shift loop.
* **Periodic boundaries** — removes the boundary load imbalance the paper
  blames for its cutoff runs' inefficiency; measured directly as the
  disappearance of the per-team work spread and the shift-phase waiting.
"""

import pytest

from benchmarks.conftest import emit
from repro.core import RunSpec, run
from repro.machines import GenericTorus, Hopper
from repro.physics import ForceLaw, ParticleSet, PhantomSet, two_phase


@pytest.mark.benchmark(group="extensions")
def test_symmetric_variant_halves_computation(benchmark):
    m = Hopper(96, cores_per_node=12)
    n = 8192

    def measure():
        std = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(n), c=2))
        sym = run(RunSpec(machine=m, algorithm="symmetric",
                          particles=PhantomSet(n), c=2))
        return std, sym

    std, sym = benchmark.pedantic(measure, rounds=1, iterations=1)
    scans_std = sum(r.npairs for r in std.run.results)
    scans_sym = sum(r.npairs for r in sym.run.results)
    t_std, t_sym = std.elapsed, sym.elapsed
    emit(f"pair evaluations: standard={scans_std}, symmetric={scans_sym} "
         f"({scans_std / scans_sym:.3f}x fewer); simulated step time "
         f"{t_std * 1e3:.3f} -> {t_sym * 1e3:.3f} ms "
         f"({t_std / t_sym:.2f}x)")
    assert scans_sym < 0.51 * scans_std
    assert t_sym < t_std


@pytest.mark.benchmark(group="extensions")
def test_symmetric_at_paper_scale(benchmark):
    """What-if: Figure 2b's workload (Hopper, 24,576 cores, 196,608
    particles) with force symmetry exploited — the optimization the paper
    skipped.  Roughly halves the step; the optimal c stays at 16."""
    from repro.model import allpairs_breakdown, symmetric_breakdown

    m = Hopper(24576)
    n, cs = 196608, (1, 4, 16, 64)

    def run():
        std = {c: allpairs_breakdown(m, n, c) for c in cs}
        sym = {c: symmetric_breakdown(m, n, c) for c in cs}
        return std, sym

    std, sym = benchmark.pedantic(run, rounds=1, iterations=1)
    for c in cs:
        emit(f"c={c:3d}: standard {std[c].total * 1e3:8.2f} ms -> symmetric "
             f"{sym[c].total * 1e3:8.2f} ms "
             f"({std[c].total / sym[c].total:.2f}x)")
    best_std = min(std.values(), key=lambda b: b.total)
    best_sym = min(sym.values(), key=lambda b: b.total)
    emit(f"best step: {best_std.total * 1e3:.2f} -> {best_sym.total * 1e3:.2f} ms "
         f"({best_std.total / best_sym.total:.2f}x end-to-end)")
    assert best_sym.total < 0.65 * best_std.total
    assert min(sym, key=lambda c: sym[c].total) == 16


@pytest.mark.benchmark(group="extensions")
def test_periodic_boundaries_remove_load_imbalance(benchmark):
    m = Hopper(96, cores_per_node=12)
    n = 9216  # divisible by the 96 teams: equal blocks isolate the window effect

    def measure():
        refl = run(RunSpec(machine=m, algorithm="cutoff",
                           particles=PhantomSet(n, 1), c=1,
                           rcut=0.25, box_length=1.0, periodic=False))
        per = run(RunSpec(machine=m, algorithm="cutoff",
                          particles=PhantomSet(n, 1), c=1,
                          rcut=0.25, box_length=1.0, periodic=True))
        return refl, per

    refl, per = benchmark.pedantic(measure, rounds=1, iterations=1)
    spread_refl = max(r.npairs for r in refl.run.results) - min(
        r.npairs for r in refl.run.results
    )
    spread_per = max(r.npairs for r in per.run.results) - min(
        r.npairs for r in per.run.results
    )
    shift_refl = refl.report.max_time("shift")
    shift_per = per.report.max_time("shift")
    emit(f"per-team scan spread: reflective={spread_refl}, periodic="
         f"{spread_per}; max shift phase {shift_refl * 1e3:.3f} -> "
         f"{shift_per * 1e3:.3f} ms")
    assert spread_per == 0
    assert spread_refl > 0
    assert shift_per < shift_refl


@pytest.mark.benchmark(group="extensions")
def test_weighted_decomposition_rebalances_clusters(benchmark):
    """Equal-count (quantile) team boundaries fix the imbalance that
    clustered workloads inflict on the paper's equal-cell decomposition."""
    from repro.physics import weighted_geometry

    m = GenericTorus(nranks=16, cores_per_node=4)
    law = ForceLaw()
    ps = two_phase(800, 1, 1.0, dense_fraction=0.85, dense_extent=0.2, seed=1)

    def measure():
        eq = run(RunSpec(machine=m, algorithm="cutoff", particles=ps, c=1,
                         rcut=0.1, box_length=1.0, law=law))
        g = weighted_geometry(ps, (16,), 1.0)
        wt = run(RunSpec(machine=m, algorithm="cutoff", particles=ps, c=1,
                         rcut=0.1, box_length=1.0, law=law, geometry=g))
        return eq, wt

    eq, wt = benchmark.pedantic(measure, rounds=1, iterations=1)

    def imbalance(r):
        scans = [x.npairs for x in r.run.results]
        return max(scans) / (sum(scans) / len(scans))

    emit(f"scan imbalance: equal cells {imbalance(eq):.2f}x, weighted "
         f"{imbalance(wt):.2f}x; simulated step {eq.run.elapsed * 1e3:.3f} "
         f"-> {wt.run.elapsed * 1e3:.3f} ms")
    assert imbalance(wt) < imbalance(eq) / 2
    assert wt.run.elapsed < eq.run.elapsed


@pytest.mark.benchmark(group="extensions")
def test_nonuniform_distribution_breaks_load_balance(benchmark):
    """The paper keeps the particle distribution 'nearly uniform over
    time'; this quantifies why.  A clustered workload on the same machine
    concentrates the compute on a few teams and the waiting spreads into
    the shift/reduce phases."""
    m = GenericTorus(nranks=16, cores_per_node=4)
    law = ForceLaw()
    n = 1024
    uniform = ParticleSet.uniform_random(n, 2, 1.0, seed=0)
    clustered = two_phase(n, 2, 1.0, dense_fraction=0.85, dense_extent=0.25,
                          seed=0)

    def measure():
        u = run(RunSpec(machine=m, algorithm="cutoff", particles=uniform, c=2,
                        rcut=0.3, box_length=1.0, law=law))
        c = run(RunSpec(machine=m, algorithm="cutoff", particles=clustered,
                        c=2, rcut=0.3, box_length=1.0, law=law))
        return u, c

    u, c = benchmark.pedantic(measure, rounds=1, iterations=1)

    def imbalance(run_result):
        per_rank = [r.npairs for r in run_result.run.results]
        return max(per_rank) / max(1.0, sum(per_rank) / len(per_rank))

    iu, ic = imbalance(u), imbalance(c)
    emit(f"compute imbalance (max/mean scans): uniform={iu:.2f}, "
         f"clustered={ic:.2f}; simulated step {u.run.elapsed * 1e3:.3f} -> "
         f"{c.run.elapsed * 1e3:.3f} ms")
    assert ic > 2 * iu
    assert c.run.elapsed > u.run.elapsed
