"""The heuristic engine tier: batch phase-advance instead of event stepping.

The event engine (:mod:`repro.simmpi.engine`) steps every rendezvous of
every rank through a generator-coroutine scheduler — exact, fault-capable,
and O(total ops).  This module is the second tier: it never materializes
rank programs at all.  Each registered algorithm gets a *plan builder*
that replays the program's round structure analytically, advancing all
``p`` rank clocks per phase-round with vectorized numpy timestamp math
(per-round ``max`` over rank clocks plus a link-model cost array) and
accumulating per-rank, per-phase traffic in integer arrays.  The CA,
symmetric and systolic families share one builder core,
:func:`_replay_commsched`, which walks the identical
:class:`~repro.core.commsched.CommSchedule` IR the event-tier executor
runs — the schedule is defined once and both tiers consume it.

Contract with the event engine
------------------------------
* **Traffic is exact.**  Per-rank, per-phase sent/received message and
  byte counts reproduce the event engine bit for bit — the builders
  implement the same binomial broadcast/reduce/gather trees, recursive-
  doubling allgather, shift schedules and halo patterns the simulated
  MPI executes, against the same block decompositions.  The metrics gate
  locks both tiers against ``benchmarks/METRICS_LOCK.json``.
* **Makespan is approximate.**  Clocks advance in bulk-synchronous
  rounds (``max`` over the previous round, plus each rank's modeled
  cost), which ignores pipelining slack between rounds.  Virtual times
  agree with the event engine to within a small factor (band-checked by
  the tests), not bit for bit.
* **The op histogram is approximate** (send/recv/wait counts follow the
  round structure; collectives count one wait per request).
* **No force output.**  The heuristic tier moves no particle data: the
  returned :class:`~repro.core.runner.Run` carries ``ids = forces =
  None``, like an event-tier run over a phantom workload.

Anything the analytic replay cannot honor — fault schedules, scheduler
perturbation, pair-coverage instrumentation, engine options — is refused
loudly up front (:func:`run_heuristic` raises ``ValueError`` naming the
offending field) rather than silently mispredicted.  Checkpointed
multi-step simulation (:func:`~repro.core.driver.run_simulation`) always
uses the event engine.  See ``docs/performance.md`` for the selection
matrix.

Selected via ``RunSpec(engine_tier="heuristic")``; the pipeline
dispatches here before any kernel or engine is built, so a p = 10^4
all-pairs step costs ~10^3 numpy array rounds instead of ~10^7 engine
events.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro.machines.base import PARTICLE_BYTES
from repro.simmpi.engine import RunResult
from repro.simmpi.tracing import PhaseTotals, RankTrace, TraceReport

__all__ = ["heuristic_algorithms", "run_heuristic"]

#: Bytes per force component on the wire (float64), matching the kernels.
_FORCE_BYTES = 8

#: Bytes charged per integer dict key in collective payload accounting.
_KEY_BYTES = 8


# ---------------------------------------------------------------------------
# Collective traffic patterns (exact twins of repro.simmpi.collectives)
# ---------------------------------------------------------------------------


def _pow2_at_least(size: int) -> int:
    m = 1
    while m < size:
        m <<= 1
    return m


@lru_cache(maxsize=None)
def _bcast_counts(size: int) -> tuple[tuple[int, int], ...]:
    """Per-relative-rank ``(sent, received)`` message counts of a binomial
    broadcast over ``size`` ranks (every message carries the full payload)."""
    if size <= 1:
        return ((0, 0),) * max(size, 1)
    top = _pow2_at_least(size)
    out = []
    for rel in range(size):
        recv_mask = (rel & -rel) if rel else top
        nsent = 0
        mask = recv_mask >> 1
        while mask:
            if rel + mask < size:
                nsent += 1
            mask >>= 1
        out.append((nsent, 1 if rel else 0))
    return tuple(out)


@lru_cache(maxsize=None)
def _reduce_counts(size: int) -> tuple[tuple[int, int], ...]:
    """Per-relative-rank ``(sent, received)`` message counts of a binomial
    reduction (every message carries the accumulated-value payload)."""
    if size <= 1:
        return ((0, 0),) * max(size, 1)
    top = _pow2_at_least(size)
    out = []
    for rel in range(size):
        lsb = (rel & -rel) if rel else top
        nrecv = 0
        mask = 1
        while mask < lsb:
            if (rel | mask) < size:
                nrecv += 1
            mask <<= 1
        out.append((1 if rel else 0, nrecv))
    return tuple(out)


def _gather_traffic(size: int, value_bytes: np.ndarray):
    """Per-rank (sent_msgs, sent_bytes, recv_msgs, recv_bytes) of a binomial
    gather to relative rank 0 with dict payloads ({rel: value})."""
    top = _pow2_at_least(size)
    lsb = np.array([(r & -r) if r else top for r in range(size)], np.int64)
    # Subtree dict bytes of rank r: entries rel r .. min(r+lsb, size)-1.
    entry = _KEY_BYTES + np.asarray(value_bytes, np.int64)
    cum = np.concatenate([[0], np.cumsum(entry)])
    hi = np.minimum(np.arange(size) + lsb, size)
    span_bytes = cum[hi] - cum[np.arange(size)]
    sm = np.zeros(size, np.int64)
    sb = np.zeros(size, np.int64)
    rm = np.zeros(size, np.int64)
    rb = np.zeros(size, np.int64)
    for rel in range(size):
        if rel:
            sm[rel] = 1
            sb[rel] = span_bytes[rel]
        mask = 1
        while mask < lsb[rel]:
            q = rel | mask
            if q < size:
                rm[rel] += 1
                rb[rel] += span_bytes[q]
            mask <<= 1
    return sm, sb, rm, rb


# ---------------------------------------------------------------------------
# Vectorized link-model costs
# ---------------------------------------------------------------------------


def _p2p_cost(machine, src, dst, nbytes) -> np.ndarray:
    """``machine.p2p_time`` over parallel src/dst/nbytes arrays."""
    src = np.asarray(src, np.int64)
    dst = np.asarray(dst, np.int64)
    b = np.asarray(nbytes, np.float64)
    local = machine.alpha_local + b * machine.beta_local
    cores = getattr(machine, "cores_per_node", None)
    if cores is None:
        return np.where(src == dst, local, machine.alpha + b * machine.beta)
    node_a = src // cores
    node_b = dst // cores
    dims = np.asarray(machine.torus.dims, np.int64)
    ca = np.stack(np.unravel_index(node_a, dims))
    cb = np.stack(np.unravel_index(node_b, dims))
    delta = np.abs(ca - cb)
    hops = np.minimum(delta, dims[:, None] - delta).sum(axis=0)
    share = cores * np.maximum(1.0, hops * machine.route_congestion)
    internode = machine.alpha + hops * machine.alpha_hop + b * machine.beta * share
    intranode = machine.alpha_node + b * machine.beta_node
    out = np.where(node_a == node_b, intranode, internode)
    return np.where(src == dst, local, out)


def _coll_rounds(size: int) -> int:
    """Modeled round count of a log-tree collective over ``size`` ranks."""
    return max(0, math.ceil(math.log2(size))) if size > 1 else 0


# ---------------------------------------------------------------------------
# The phase-advance accumulator
# ---------------------------------------------------------------------------


class _Sim:
    """Vectorized clocks + exact per-rank, per-phase traffic accumulator."""

    def __init__(self, machine):
        self.machine = machine
        self.p = machine.nranks
        self.clocks = np.zeros(self.p)
        # label -> {"secs"/"sm"/"sb"/"rm"/"rb": (p,) arrays}; insertion
        # order is the program's phase order (drives phase_labels()).
        self.phases: dict[str, dict[str, np.ndarray]] = {}
        self.ops: dict[str, int] = {}
        self.npairs = 0

    def _entry(self, label: str) -> dict[str, np.ndarray]:
        e = self.phases.get(label)
        if e is None:
            e = self.phases[label] = {
                "secs": np.zeros(self.p),
                "sm": np.zeros(self.p, np.int64),
                "sb": np.zeros(self.p, np.int64),
                "rm": np.zeros(self.p, np.int64),
                "rb": np.zeros(self.p, np.int64),
            }
        return e

    def op(self, kind: str, count) -> None:
        count = int(count)
        if count:
            self.ops[kind] = self.ops.get(kind, 0) + count

    def traffic(self, label, sent_msgs, sent_bytes, recv_msgs, recv_bytes):
        """Add one round's exact traffic ((p,) arrays or scalars)."""
        e = self._entry(label)
        e["sm"] += np.asarray(sent_msgs, np.int64)
        e["sb"] += np.asarray(sent_bytes, np.int64)
        e["rm"] += np.asarray(recv_msgs, np.int64)
        e["rb"] += np.asarray(recv_bytes, np.int64)
        self.op("isend", np.sum(sent_msgs))
        self.op("irecv", np.sum(recv_msgs))

    def advance(self, label: str, cost, active=None) -> None:
        """One bulk-synchronous round: sync to the slowest rank, then each
        rank pays its own ``cost`` (scalar or (p,)), charged to ``label``.

        ``active`` (boolean (p,) mask) limits which ranks the seconds are
        charged to: the event programs skip a phase block entirely on
        ranks with nothing to do there, so those ranks must not grow a
        phase row out of bare synchronization wait.  Their clocks still
        move to the barrier either way.
        """
        old = self.clocks
        new = (old.max() if self.p else 0.0) + np.asarray(cost, np.float64)
        new = np.broadcast_to(new, (self.p,)).astype(np.float64, copy=True)
        delta = new - old
        if active is not None:
            delta = np.where(active, delta, 0.0)
        self._entry(label)["secs"] += delta
        self.clocks = new

    def finish(self) -> RunResult:
        traces = []
        order = list(self.phases.items())
        for r in range(self.p):
            phases = {}
            for label, e in order:
                if e["secs"][r] or e["sm"][r] or e["rm"][r]:
                    phases[label] = PhaseTotals(
                        seconds=float(e["secs"][r]),
                        messages_sent=int(e["sm"][r]),
                        messages_received=int(e["rm"][r]),
                        bytes_sent=int(e["sb"][r]),
                        bytes_received=int(e["rb"][r]),
                    )
            traces.append(RankTrace(rank=r, phases=phases))
        return RunResult(
            results=[None] * self.p,
            report=TraceReport(traces),
            elapsed=float(self.clocks.max()) if self.p else 0.0,
            nops=int(sum(self.ops.values())),
            clocks=[float(x) for x in self.clocks],
        )


# ---------------------------------------------------------------------------
# Shared helpers for the plan builders
# ---------------------------------------------------------------------------


def _even_counts(n: int, k: int) -> np.ndarray:
    """Block sizes of the even contiguous split (team_blocks_even twin)."""
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    return sizes


def _workload_info(spec) -> tuple[int, int]:
    """(particle count, particle dimension) of the real workload without
    synthesizing it when only sizes are needed."""
    if spec.particles is None:
        return spec.count(), 2 if spec.dim is None else spec.dim
    particles = spec.workload()
    return len(particles), particles.dim


def _collective(sim, label, rel, counts_table, payload_bytes, partner):
    """One tree collective: exact per-rank traffic, log-round cost model.

    ``rel`` is each rank's relative position in its group, ``counts_table``
    a ``_bcast_counts``/``_reduce_counts`` table for the group size,
    ``payload_bytes`` the per-rank message size and ``partner`` a
    representative peer rank for the link-cost estimate.
    """
    table = np.asarray(counts_table, np.int64)
    nsent = table[rel, 0]
    nrecv = table[rel, 1]
    payload_bytes = np.broadcast_to(
        np.asarray(payload_bytes, np.int64), nsent.shape)
    sim.traffic(label, nsent, nsent * payload_bytes,
                nrecv, nrecv * payload_bytes)
    sim.op("wait", np.sum(nsent + nrecv))
    size = len(table)
    if size > 1:
        ranks = np.arange(sim.p)
        cost = _coll_rounds(size) * _p2p_cost(
            sim.machine, partner, ranks, payload_bytes)
        sim.advance(label, cost)


# ---------------------------------------------------------------------------
# The generic CommSchedule replayer (CA family + systolic family)
# ---------------------------------------------------------------------------


class _Geometry:
    """Vectorized rank/team arithmetic for one replicated grid."""

    def __init__(self, grid, team_dims, p: int):
        self.grid = grid
        self.T = grid.nteams
        self.c = grid.c
        ranks = np.arange(p)
        if grid.layout == "rows":
            self.row = ranks // self.T
            self.col = ranks % self.T
        else:
            self.row = ranks % self.c
            self.col = ranks // self.c
        self.dims = np.asarray(team_dims, np.int64)
        self.col_mi = np.stack(
            np.unravel_index(self.col, self.dims))  # (ndim, p)

    def rank_of(self, row, col):
        if self.grid.layout == "rows":
            return row * self.T + col
        return col * self.c + row

    def displaced(self, moves_by_row) -> np.ndarray:
        """Team each rank's column maps to under its row's move vector."""
        mv = np.asarray(moves_by_row, np.int64)[self.row].T  # (ndim, p)
        return np.ravel_multi_index((self.col_mi + mv) % self.dims[:, None],
                                    tuple(self.dims))


def _reachable(cfg, geo, vis) -> np.ndarray:
    """Which ranks' (home team, visitor team) pairs pass the cutoff test."""
    if cfg.rcut is None:
        return np.ones(len(vis), bool)
    return cfg.reach(geo.col, vis)


def _replay_commsched(sim, cs, grid, counts, *, fdim, cfg=None):
    """Replay one :class:`~repro.core.commsched.CommSchedule` analytically.

    The heuristic-tier twin of :func:`repro.core.commsched.scheduled_step`:
    the identical IR the event engine executes is walked round by round,
    charging exact per-rank traffic (same sendrecv skip conditions, same
    buffer-content bookkeeping, same payload wire sizes) and one
    bulk-synchronous clock advance per round.  ``cfg`` supplies the
    cutoff reachability predicate for ``gated`` updates (CA family only).
    """
    from repro.core.commsched import HOME, Shift

    machine = sim.machine
    p = sim.p
    geo = _Geometry(grid, cs.team_dims, p)
    ranks = np.arange(p)

    block_wire = PARTICLE_BYTES * counts
    force_wire = _FORCE_BYTES * fdim * counts
    # Wire bytes of each buffer sent as a travel payload: block_sym also
    # carries the reaction accumulator; registers travel without forces.
    buf_wire = [block_wire + force_wire if kind == "block_sym"
                else block_wire for kind in cs.buffers]
    # vis[b][rank] = team whose block buffer b holds (registers start empty).
    vis = [geo.col.copy() if kind != "register" else None
           for kind in cs.buffers]

    def content_of(idx):
        return geo.col if idx == HOME else vis[idx]

    def wire_of(idx):
        return block_wire if idx == HOME else buf_wire[idx]

    if cs.team_bcast or cs.team_reduce:
        leader = geo.rank_of(np.zeros(p, np.int64), geo.col)
        second = geo.rank_of(
            np.full(p, 1 if geo.c > 1 else 0, np.int64), geo.col)
        partner = np.where(geo.row == 0, second, leader)
    if cs.team_bcast:
        _collective(sim, "bcast", geo.row, _bcast_counts(geo.c),
                    block_wire[geo.col], partner)

    for rnd in cs.rounds:
        if isinstance(rnd, Shift):
            moves = np.asarray(rnd.moves, np.int64)
            if rnd.wrap_skip:
                active = geo.displaced(moves) != geo.col
            else:
                active = np.any(moves != 0, axis=1)[geo.row]
            nact = active.astype(np.int64)
            if rnd.payload == "forces":
                sent_b = np.where(active, force_wire[content_of(rnd.src)], 0)
                recv_b = np.where(active, force_wire[content_of(rnd.dst)], 0)
            else:
                src_wire = wire_of(rnd.src)
                sent_b = np.where(active, src_wire[content_of(rnd.src)], 0)
                vis_new = geo.displaced(np.asarray(rnd.content, np.int64))
                recv_b = np.where(active, src_wire[vis_new], 0)
                if rnd.dst != HOME:
                    vis[rnd.dst] = vis_new
            sim.traffic(rnd.phase, nact, sent_b, nact, recv_b)
            sim.op("wait", nact.sum())
            src = geo.rank_of(geo.row, geo.displaced(-moves))
            cost = np.where(active,
                            _p2p_cost(machine, src, ranks, recv_b), 0.0)
            sim.advance(rnd.phase, cost, active=active)
        else:  # Interact
            npairs = np.zeros(p, np.int64)
            computing = np.zeros(p, bool)
            for k, up in enumerate(rnd.updates):
                if up is None:
                    continue
                mask = geo.row == k
                src_team = content_of(up.source)
                if up.gated:
                    mask = mask & _reachable(cfg, geo, src_team)
                if up.half_pair:
                    mask = mask & (geo.col < src_team)
                tgt_team = content_of(up.target)
                if up.mode == "self_half":
                    nk = counts[tgt_team] * (counts[tgt_team] - 1) // 2
                else:
                    nk = counts[tgt_team] * counts[src_team]
                npairs = np.where(mask, nk, npairs)
                computing |= mask
            sim.npairs += int(npairs.sum())
            sim.op("compute", computing.sum())
            sim.advance(rnd.phase, machine.interactions_time(npairs),
                        active=computing)

    if cs.team_reduce:
        _collective(sim, "reduce", geo.row, _reduce_counts(geo.c),
                    force_wire[geo.col], partner)


def _build_ca(sim, spec) -> None:
    """Plan for allpairs / cutoff / symmetric (real or phantom workload):
    replay the lowered IR the event tier executes (the half ring for
    symmetric) over the blocks :func:`~repro.core.runner.team_setup`
    builds."""
    from repro.core.allpairs import allpairs_config
    from repro.core.commsched import rounds_for_schedule
    from repro.core.cutoff import cutoff_config_for
    from repro.core.runner import team_setup
    from repro.core.symmetric import symmetric_config
    from repro.physics.particles import PhantomSet

    p, name = spec.machine.nranks, spec.algorithm
    if name == "cutoff":
        cfg = cutoff_config_for(spec)
    elif name == "symmetric":
        cfg = symmetric_config(p, spec.c)
    else:
        cfg = allpairs_config(p, spec.c, layout=spec.layout)
    if spec.particles is None and cfg.geometry is None:
        # An even split of a workload still to be drawn depends only on
        # its size: plan the phantom twin (identical traffic, no draw).
        spec = replace(spec, particles=PhantomSet(*_workload_info(spec)))
    workload, blocks, _, _ = team_setup(spec, cfg)
    counts = np.array([len(b) for b in blocks], np.int64)
    cs = rounds_for_schedule(cfg.schedule, symmetric=name == "symmetric")
    _replay_commsched(sim, cs, cfg.grid, counts, fdim=workload.dim, cfg=cfg)


def _build_systolic(sim, spec, *, variant: str) -> None:
    """Plan for the systolic family: replay the same IR the event tier
    executes (full ring / half ring / hyper-systolic register cascades)."""
    from repro.core.commsched import (
        half_systolic_rounds,
        hyper_systolic_rounds,
        systolic_ring_rounds,
    )
    from repro.simmpi.topology import ReplicatedGrid

    p = spec.machine.nranks
    n_total, fdim = _workload_info(spec)
    counts = _even_counts(n_total, p)
    if variant == "ring":
        cs = systolic_ring_rounds(p)
    elif variant == "half":
        cs = half_systolic_rounds(p)
    else:
        cs = hyper_systolic_rounds(p, spec.hyper_k)
    _replay_commsched(sim, cs, ReplicatedGrid(p=p, c=1), counts, fdim=fdim)


# ---------------------------------------------------------------------------
# Baseline decompositions
# ---------------------------------------------------------------------------


def _build_particle_allgather(sim, spec) -> None:
    """Plan for the naive particle decomposition (allgather baseline)."""
    machine = spec.machine
    p = machine.nranks
    n_total, _ = _workload_info(spec)
    counts = _even_counts(n_total, p)
    wire = PARTICLE_BYTES * counts
    ranks = np.arange(p)

    if spec.use_tree:
        if not machine.has_hw_collectives:
            raise ValueError(
                f"use_tree=True needs a machine with hardware collectives; "
                f"{machine.name!r} has none (run without use_tree, or on "
                "e.g. machines.Intrepid)")
        sim._entry("allgather")
        sim.op("hwcoll", p)
        sim.advance("allgather", machine.hw_collective_time(
            "allgather", int(wire.max()), p))
    elif p & (p - 1) == 0 and p > 1:
        # Recursive doubling: log2(p) sendrecv rounds of doubling subcubes.
        entry = _KEY_BYTES + wire
        cum = np.concatenate([[0], np.cumsum(entry)])
        mask = 1
        while mask < p:
            base = ranks & ~(mask - 1)
            partner_base = base ^ mask
            sent_b = cum[base + mask] - cum[base]
            recv_b = cum[partner_base + mask] - cum[partner_base]
            ones = np.ones(p, np.int64)
            sim.traffic("allgather", ones, sent_b, ones, recv_b)
            sim.op("wait", p)
            sim.advance("allgather",
                        _p2p_cost(machine, ranks ^ mask, ranks, recv_b))
            mask <<= 1
    elif p > 1:
        # Non-power-of-two: binomial gather to rank 0, then broadcast the
        # full rank-ordered block list (list payload: no dict keys).
        sm, sb, rm, rb = _gather_traffic(p, wire)
        sim.traffic("allgather", sm, sb, rm, rb)
        sim.op("wait", int(sm.sum() + rm.sum()))
        sim.advance("allgather", _coll_rounds(p) * _p2p_cost(
            machine, (ranks + 1) % p, ranks, np.maximum(sb, rb)))
        full = int(wire.sum())
        _collective(sim, "allgather", ranks, _bcast_counts(p), full,
                    (ranks + 1) % p)
    else:
        sim._entry("allgather")

    npairs = counts * int(counts.sum())
    sim.npairs += int(npairs.sum())
    sim.op("compute", p)
    sim.advance("compute", machine.interactions_time(npairs))


def _build_particle_ring(sim, spec) -> None:
    """Plan for the systolic-ring particle decomposition (CA at c=1)."""
    machine = spec.machine
    p = machine.nranks
    n_total, _ = _workload_info(spec)
    counts = _even_counts(n_total, p)
    wire = PARTICLE_BYTES * counts
    ranks = np.arange(p)
    left = (ranks - 1) % p
    ones = np.ones(p, np.int64)
    for k in range(p):
        sent_b = wire[(ranks - k) % p]
        recv_team = (ranks - k - 1) % p
        recv_b = wire[recv_team]
        sim.traffic("shift", ones, sent_b, ones, recv_b)
        sim.op("wait", p)
        sim.advance("shift", _p2p_cost(machine, left, ranks, recv_b))
        npairs = counts * counts[recv_team]
        sim.npairs += int(npairs.sum())
        sim.op("compute", p)
        sim.advance("compute", machine.interactions_time(npairs))


def _build_force_decomposition(sim, spec) -> None:
    """Plan for Plimpton's force decomposition on a sqrt(p) grid."""
    machine = spec.machine
    p = machine.nranks
    q = int(round(p ** 0.5))
    n_total, fdim = _workload_info(spec)
    counts = _even_counts(n_total, q)
    wire = PARTICLE_BYTES * counts
    ranks = np.arange(p)
    i, j = ranks // q, ranks % q

    # Block i along grid row i (root = diagonal position), then block j
    # along grid column j.
    row_next = i * q + (j + 1) % q
    col_next = ((i + 1) % q) * q + j
    _collective(sim, "bcast", (j - i) % q, _bcast_counts(q), wire[i], row_next)
    _collective(sim, "bcast", (i - j) % q, _bcast_counts(q), wire[j], col_next)

    npairs = counts[i] * counts[j]
    sim.npairs += int(npairs.sum())
    sim.op("compute", p)
    sim.advance("compute", machine.interactions_time(npairs))

    _collective(sim, "reduce", (j - i) % q, _reduce_counts(q),
                _FORCE_BYTES * fdim * counts[i], row_next)


def _spatial_setup(spec, reach_scale: float):
    """Region counts + neighbor lists shared by spatial and midpoint."""
    from repro.machines.torus import balanced_dims
    from repro.physics.domain import TeamGeometry, team_of_positions

    p = spec.machine.nranks
    particles = spec.workload()
    dim = particles.dim if spec.dim is None else spec.dim
    geometry = TeamGeometry(box_length=spec.box_length,
                            team_dims=balanced_dims(p, dim))
    counts = np.bincount(team_of_positions(particles.pos, geometry),
                         minlength=p).astype(np.int64)
    return counts, geometry.neighbors(spec.rcut * reach_scale), particles.dim


def _halo_exchange(sim, label, counts, neighbors, send_bytes, recv_bytes):
    """Pairwise isend/irecv exchange with every neighbor, one wait."""
    machine = sim.machine
    p = sim.p
    sm = np.array([len(nb) for nb in neighbors], np.int64)
    sb = np.array([len(nb) * send_bytes[a] for a, nb in enumerate(neighbors)],
                  np.int64)
    rb = np.array([sum(int(recv_bytes[b]) for b in nb)
                   for nb in neighbors], np.int64)
    sim.traffic(label, sm, sb, sm, rb)
    sim.op("wait", p)
    cost = np.array([
        max((machine.p2p_time(b, a, int(recv_bytes[b])) for b in nb),
            default=0.0)
        for a, nb in enumerate(neighbors)
    ])
    sim.advance(label, cost)


def _build_spatial(sim, spec) -> None:
    """Plan for the spatial decomposition: cutoff halo + local compute."""
    counts, neighbors, _ = _spatial_setup(spec, 1.0)
    wire = PARTICLE_BYTES * counts
    _halo_exchange(sim, "halo", counts, neighbors, wire, wire)
    npairs = np.array([
        int(counts[a]) ** 2
        + int(counts[a]) * sum(int(counts[b]) for b in nb)
        for a, nb in enumerate(neighbors)
    ], np.int64)
    sim.npairs += int(npairs.sum())
    sim.op("compute", sim.p)
    sim.advance("compute", spec.machine.interactions_time(npairs))


def _build_midpoint(sim, spec) -> None:
    """Plan for the midpoint method: rcut/2 halo, owned-pair triangle,
    force-return exchange."""
    counts, neighbors, d = _spatial_setup(spec, 0.5)
    wire = PARTICLE_BYTES * counts
    _halo_exchange(sim, "halo", counts, neighbors, wire, wire)
    imported = np.array([
        int(counts[a]) + sum(int(counts[b]) for b in nb)
        for a, nb in enumerate(neighbors)
    ], np.int64)
    npairs = imported * (imported - 1) // 2
    sim.npairs += int(npairs.sum())
    sim.op("compute", sim.p)
    sim.advance("compute", spec.machine.interactions_time(npairs))
    # Return (ids, forces) contributions: each rank sends every imported
    # neighbor block's accumulation back and receives its own block's
    # contributions from each neighbor.
    ret = _FORCE_BYTES * (1 + d) * counts
    sm = np.array([len(nb) for nb in neighbors], np.int64)
    sb = np.array([sum(int(ret[b]) for b in nb) for nb in neighbors],
                  np.int64)
    sim.traffic("return", sm, sb, sm, sm * ret)
    sim.op("wait", sim.p)
    machine = spec.machine
    cost = np.array([
        max((machine.p2p_time(b, a, int(ret[a])) for b in nb), default=0.0)
        for a, nb in enumerate(neighbors)
    ])
    sim.advance("return", cost)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


_BUILDERS = {
    "allpairs": _build_ca,
    "cutoff": _build_ca,
    "symmetric": _build_ca,
    "systolic_ring": lambda sim, spec: _build_systolic(
        sim, spec, variant="ring"),
    "half_systolic": lambda sim, spec: _build_systolic(
        sim, spec, variant="half"),
    "hyper_systolic": lambda sim, spec: _build_systolic(
        sim, spec, variant="hyper"),
    "particle_allgather": _build_particle_allgather,
    "particle_ring": _build_particle_ring,
    "force_decomposition": _build_force_decomposition,
    "spatial": _build_spatial,
    "midpoint": _build_midpoint,
}


def heuristic_algorithms() -> list[str]:
    """Registry names the heuristic tier has a plan builder for."""
    return sorted(_BUILDERS)


def _check_spec(spec, alg) -> None:
    """Refuse spec features the analytic replay cannot honor — loudly."""
    problems = []
    if spec.faults is not None:
        problems.append(
            "faults= (fault injection needs the event engine's "
            "retry/recovery protocol)")
    if spec.schedule is not None:
        problems.append(
            "schedule= (scheduler perturbation only exists in the event "
            "engine; the heuristic tier has no interleaving freedom)")
    if spec.pair_counter is not None:
        problems.append(
            "pair_counter= (pair coverage needs the real force kernel)")
    if spec.engine_opts:
        problems.append(
            "engine_opts= (event-engine construction knobs, e.g. "
            "record_events/fast_path, do not apply)")
    if spec.eager_threshold:
        problems.append(
            "eager_threshold= (the eager/rendezvous protocol switch is an "
            "event-engine timing knob)")
    if problems:
        raise ValueError(
            f"engine_tier='heuristic' cannot honor: {'; '.join(problems)}. "
            "Rerun with engine_tier='event' (the default) for these "
            "features — see docs/performance.md (engine-tier selection "
            "matrix).")
    if alg.name not in _BUILDERS:
        known = ", ".join(heuristic_algorithms())
        raise ValueError(
            f"algorithm {alg.name!r} has no heuristic-tier plan builder "
            f"(available: {known}); rerun with engine_tier='event'.")


def run_heuristic(spec, alg=None):
    """Run one :class:`~repro.core.runner.RunSpec` on the heuristic tier.

    Called by the run pipeline when ``spec.engine_tier == "heuristic"``;
    returns a :class:`~repro.core.runner.Run` whose ``run`` carries the
    usual :class:`~repro.simmpi.engine.RunResult` schema (exact per-rank,
    per-phase traffic; approximate clocks/makespan; ``ids = forces =
    None``).  Metrics, when a registry is attached to the spec, are
    recorded through the same :func:`~repro.metrics.collect.
    record_engine_run` projection as the event engine, including the
    ``kernel.pairs`` flop proxy for real (non-phantom) workloads.
    """
    from repro.core.runner import Run, get_algorithm
    from repro.metrics.collect import record_engine_run
    from repro.physics.particles import PhantomSet

    t0 = time.perf_counter()
    if alg is None:
        alg = get_algorithm(spec.algorithm)
    _check_spec(spec, alg)
    sim = _Sim(spec.machine)
    _BUILDERS[alg.name](sim, spec)
    result = sim.finish()
    if spec.metrics is not None:
        record_engine_run(spec.metrics, result, op_histogram=sim.ops,
                          wall_s=time.perf_counter() - t0)
        if sim.npairs and not isinstance(spec.particles, PhantomSet):
            spec.metrics.counter("kernel.pairs").inc(int(sim.npairs))
    return Run(algorithm=alg.name, ids=None, forces=None, run=result,
               spec=spec)
