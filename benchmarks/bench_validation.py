"""Scaled-down validation: the paper's experiments re-run through the exact
discrete-event simulator (hundreds of ranks, real message passing, phantom
particle blocks).

These confirm, at a size Python can simulate message-by-message, the same
shapes the analytic model produces at 24K-32K cores: communication falling
superlinearly with c, collectives growing, and the cutoff runs' boundary
load imbalance.
"""

import pytest

from benchmarks.conftest import emit
from repro.core import RunSpec, run
from repro.experiments import FIG2, FIG6, render_figure, validate_figure
from repro.machines import Hopper, Intrepid
from repro.physics import PhantomSet


@pytest.mark.benchmark(group="validation")
def test_fig2_shape_event_simulation(benchmark):
    """Fig 2 at 1/96 scale: 256 simulated Hopper cores, 8,192 particles."""
    res = benchmark.pedantic(
        lambda: validate_figure(FIG2["2a"], p=256, n=8192, cs=(1, 2, 4, 8, 16)),
        rounds=1, iterations=1,
    )
    emit(render_figure(res))
    comm = [b.communication for b in res.breakdowns.values()]
    assert all(a > b for a, b in zip(comm[:3], comm[1:4]))
    computes = [b.get("compute") for b in res.breakdowns.values()]
    assert max(computes) <= 1.01 * min(computes)


@pytest.mark.benchmark(group="validation")
def test_fig6_shape_event_simulation(benchmark):
    """Fig 6a at small scale, including the re-assignment phase."""
    res = benchmark.pedantic(
        lambda: validate_figure(FIG6["6a"], p=128, n=8192, cs=(1, 2, 4, 8)),
        rounds=1, iterations=1,
    )
    emit(render_figure(res))
    rows = list(res.breakdowns.values())
    # Shift (point-to-point) time falls with replication; at this tiny
    # scale the collectives' imbalance waits dominate total communication,
    # so the full comm optimum only emerges at larger machines.
    shifts = [b.get("shift") for b in rows]
    assert shifts[2] < shifts[0]
    assert all(b.get("reassign") > 0 for b in rows)


@pytest.mark.benchmark(group="validation")
def test_intrepid_tree_network_event_simulation(benchmark):
    """The c=1 tree/no-tree gap, via actual hardware-collective simulation."""
    from repro.physics import ParticleSet

    ps = ParticleSet.uniform_random(2048, 2, 1.0, seed=0)

    def measure():
        tree = run(RunSpec(machine=Intrepid(64, cores_per_node=4),
                           algorithm="particle_allgather", particles=ps,
                           use_tree=True))
        soft = run(RunSpec(machine=Intrepid(64, cores_per_node=4, tree=False),
                           algorithm="particle_allgather", particles=ps))
        return tree, soft

    tree, soft = benchmark.pedantic(measure, rounds=1, iterations=1)
    t, s = tree.report.max_time("allgather"), soft.report.max_time("allgather")
    emit(f"allgather on 64 Intrepid cores: tree={t * 1e6:.1f}us, "
         f"torus={s * 1e6:.1f}us ({s / t:.1f}x slower)")
    assert t < s


@pytest.mark.benchmark(group="validation")
def test_superlinear_shift_reduction(benchmark):
    """Equation 5's c^2 latency reduction, measured on simulated messages."""
    m = Hopper(192, cores_per_node=12)

    def measure():
        return {
            c: run(RunSpec(machine=m, algorithm="allpairs",
                           particles=PhantomSet(8192),
                           c=c)).report.max_messages("shift")
            for c in (1, 2, 4, 8)
        }

    msgs = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(f"shift messages per rank: {msgs}")
    assert msgs[1] / msgs[4] >= 12  # ~c^2 = 16 with skew slack
    assert msgs[2] / msgs[8] >= 12


@pytest.mark.benchmark(group="validation")
def test_strong_scaling_shape_event_simulation(benchmark):
    """Figure 3's story through exact simulation: fixed n, growing p —
    the replicated configurations hold their efficiency while c=1 decays."""
    n = 8192
    sizes = (32, 64, 128, 256)

    def measure():
        out = {}
        for c in (1, 4):
            series = []
            for p in sizes:
                m = Hopper(p, cores_per_node=8)
                r = run(RunSpec(machine=m, algorithm="allpairs",
                                particles=PhantomSet(n),
                                c=c))
                series.append((p, r.elapsed))
            out[c] = series
        return out

    series = benchmark.pedantic(measure, rounds=1, iterations=1)

    def efficiency(sery):
        p0, t0 = sery[0]
        return [(p, (t0 * p0) / (t * p)) for p, t in sery]

    for c, sery in series.items():
        eff = efficiency(sery)
        emit(f"c={c}: " + "  ".join(f"p={p}:{e:.3f}" for p, e in eff))
    eff1 = dict(efficiency(series[1]))
    eff4 = dict(efficiency(series[4]))
    assert eff4[256] > eff1[256]  # replication preserves scaling
    assert eff1[256] < eff1[32] * 1.01  # c=1 decays (or at best flat)


@pytest.mark.benchmark(group="validation")
def test_cutoff_boundary_imbalance(benchmark):
    """Boundary teams scan fewer pairs — the paper's load-imbalance source."""
    m = Hopper(96, cores_per_node=12)

    def measure():
        return run(RunSpec(machine=m, algorithm="cutoff",
                           particles=PhantomSet(8192, 1), c=1,
                           rcut=0.25, box_length=1.0))

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    pairs = {r.col: r.npairs for r in result.run.results}
    corner, interior = pairs[0], pairs[48]
    emit(f"scanned pairs: corner team={corner}, interior team={interior}")
    assert corner < 0.7 * interior
