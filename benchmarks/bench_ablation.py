"""Ablations of the design choices DESIGN.md calls out.

Each ablation switches off one machine-model ingredient and reports how a
headline result changes — evidence for *why* that ingredient is in the
model:

* ``collective_contention`` — without it, collectives scale almost
  logarithmically and the comm-optimal c drifts to the largest value,
  contradicting the paper's Figure 2b;
* ``route_congestion`` — without it, long-stride collective trees are as
  cheap as neighbor shifts;
* the dedicated tree network — without it, the Intrepid c=1 baseline pays
  the full torus cost (the paper's no-tree bars);
* rendezvous vs. eager protocol in the event engine — eager decouples the
  send side, shrinking the waiting the paper's load-imbalance discussion
  describes.
"""

import dataclasses

import pytest

from benchmarks.conftest import emit
from repro.core import RunSpec, run
from repro.machines import Hopper, Intrepid
from repro.model import allgather_baseline_breakdown, allpairs_breakdown
from repro.physics import PhantomSet


def _comm_optimum(machine, n, cs):
    comm = {c: allpairs_breakdown(machine, n, c).communication for c in cs}
    return min(comm, key=comm.get), comm


@pytest.mark.benchmark(group="ablation")
def test_collective_contention_creates_the_c16_optimum(benchmark):
    cs = (1, 2, 4, 8, 16, 32, 64)

    def run():
        base = Hopper(24576)
        off = dataclasses.replace(base, collective_contention=0.0)
        return _comm_optimum(base, 196608, cs), _comm_optimum(off, 196608, cs)

    (with_c, comm_w), (without_c, comm_wo) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(f"comm-optimal c with collective contention: {with_c}; without: "
         f"{without_c}")
    assert with_c == 16
    assert without_c >= with_c  # never drifts below 16
    # Contention only adds cost at c > 1, and hits the largest c hardest —
    # this is what makes c=64 communication clearly exceed c=16's.
    assert comm_w[1] == comm_wo[1]
    assert comm_w[64] > 1.5 * comm_wo[64]
    assert comm_w[64] > 2 * comm_w[16]


@pytest.mark.benchmark(group="ablation")
def test_route_congestion_prices_long_strides(benchmark):
    def run():
        base = Hopper(24576)
        flat = dataclasses.replace(base, route_congestion=0.0)
        b_base = allpairs_breakdown(base, 196608, 64)
        b_flat = allpairs_breakdown(flat, 196608, 64)
        return b_base, b_flat

    b_base, b_flat = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"c=64 bcast: congested={b_base.get('bcast') * 1e3:.3f}ms, "
         f"flat={b_flat.get('bcast') * 1e3:.3f}ms")
    assert b_base.get("bcast") > 1.5 * b_flat.get("bcast")


@pytest.mark.benchmark(group="ablation")
def test_tree_network_ablation(benchmark):
    def run():
        tree = allgather_baseline_breakdown(
            Intrepid(32768), 262144, use_tree=True
        )
        no_tree = allgather_baseline_breakdown(
            Intrepid(32768, tree=False), 262144, use_tree=False
        )
        return tree, no_tree

    tree, no_tree = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = no_tree.communication / tree.communication
    emit(f"torus allgather is {ratio:.1f}x the tree network's time")
    assert ratio > 3.0


@pytest.mark.benchmark(group="ablation")
def test_rank_layout_tradeoff(benchmark):
    """Mapping team members contiguously ('teams' layout) makes the
    collectives nearly free (intra-node) but stretches every shift; the
    analyzed 'rows' mapping with a tuned c still wins overall."""
    m = Hopper(24576)
    n, cs = 196608, (4, 16, 64)

    def run():
        rows = {c: allpairs_breakdown(m, n, c, layout="rows") for c in cs}
        teams = {c: allpairs_breakdown(m, n, c, layout="teams") for c in cs}
        return rows, teams

    rows, teams = benchmark.pedantic(run, rounds=1, iterations=1)
    for c in cs:
        emit(f"c={c:3d}: rows comm={rows[c].communication * 1e3:8.3f}ms "
             f"(coll {1e3 * (rows[c].get('bcast') + rows[c].get('reduce')):.3f}) | "
             f"teams comm={teams[c].communication * 1e3:8.3f}ms "
             f"(coll {1e3 * (teams[c].get('bcast') + teams[c].get('reduce')):.3f})")
    # Collectives collapse under the teams layout...
    assert teams[16].get("bcast") < rows[16].get("bcast") / 10
    # ...but the best tuned configuration still uses the rows mapping.
    best_rows = min(b.communication for b in rows.values())
    best_teams = min(b.communication for b in teams.values())
    assert best_rows < best_teams


@pytest.mark.benchmark(group="ablation")
def test_eager_protocol_shrinks_imbalance_waits(benchmark):
    """Rendezvous couples ranks tightly; eager buffering absorbs some of
    the boundary teams' waiting in the cutoff shifts."""
    m = Hopper(96, cores_per_node=12)

    def measure():
        rendezvous = run(RunSpec(machine=m, algorithm="cutoff",
                                 particles=PhantomSet(8192, 1),
                                 c=2, rcut=0.25, box_length=1.0,
                                 eager_threshold=0))
        eager = run(RunSpec(machine=m, algorithm="cutoff",
                            particles=PhantomSet(8192, 1), c=2,
                            rcut=0.25, box_length=1.0,
                            eager_threshold=1 << 30))
        return rendezvous, eager

    rdv, eag = benchmark.pedantic(measure, rounds=1, iterations=1)
    s_r = rdv.report.max_time("shift")
    s_e = eag.report.max_time("shift")
    emit(f"max shift phase: rendezvous={s_r * 1e3:.3f}ms, "
         f"eager={s_e * 1e3:.3f}ms")
    assert s_e <= s_r * 1.001
