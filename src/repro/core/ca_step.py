"""The communication-avoiding interaction step (Algorithms 1 and 2).

One generator program, :func:`ca_interaction_step`, implements both of the
paper's algorithms; they differ only in the :class:`~repro.core.window.
ShiftSchedule` (full ring vs cutoff window) and in whether a cutoff
reachability test prunes physically-impossible block pairs.

Per the paper's pseudocode, a step is:

1. **broadcast** — the team leader broadcasts its block ``S_t`` to the
   ``c`` team members (phase ``bcast``);
2. **skew** — each row-``k`` processor shifts its exchange buffer by ``k``
   along the row (charged to phase ``shift``);
3. **shift loop** — ``w/c`` iterations of: shift the exchange buffer by
   ``c`` (phase ``shift``), then accumulate the visiting block's effect on
   the home block (phase ``compute``);
4. **reduce** — sum-reduce the per-row partial forces within the team down
   to the leader (phase ``reduce``).

The program asserts the structural invariant that the block arriving at
each update is exactly the one the schedule predicts, and counts scanned
pairs so the machine model can charge computation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.commsched import (
    StepResult,
    rounds_for_schedule,
    scheduled_step,
)
from repro.core.window import ShiftSchedule
from repro.physics.domain import Reachability, TeamGeometry
from repro.simmpi.collectives import binomial_fold
from repro.simmpi.errors import RecoveredRankEvent, SimMPIError
from repro.simmpi.faults import Tombstone
from repro.simmpi.topology import ReplicatedGrid
from repro.simmpi.tracing import RECOVER_PHASE

__all__ = ["CAConfig", "CAStepResult", "acting_leader_of",
           "ca_interaction_step", "ca_interaction_step_resilient",
           "ca_program", "check_fault_replication"]

#: User tag for exchange-buffer traffic.
SHIFT_TAG = 7

#: User tags for the recovery round (hole-map circulation, block re-fetch,
#: degraded in-team reduction).
RECOVER_SYNC_TAG = 11
RECOVER_FETCH_TAG = 12
RECOVER_REDUCE_TAG = 13


@dataclass(frozen=True)
class CAConfig:
    """Static configuration of a CA N-body run.

    Attributes
    ----------
    grid:
        The ``c x (p/c)`` replicated processor grid.
    schedule:
        Shift schedule (all-pairs ring or cutoff window).
    rcut:
        Cutoff radius; ``None`` for all-pairs interactions.
    geometry:
        Spatial team decomposition; required when ``rcut`` is set (the
        reachability pruning needs team regions).
    reach:
        Derived: with ``rcut``, the geometry's
        :class:`~repro.physics.domain.Reachability`, built once; every
        reachability test reads it.  ``None`` without a cutoff.
    """

    grid: ReplicatedGrid
    schedule: ShiftSchedule
    rcut: float | None = None
    geometry: TeamGeometry | None = None
    reach: Reachability | None = field(default=None, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        if self.grid.nteams != self.schedule.nteams:
            raise ValueError(
                f"grid has {self.grid.nteams} teams but schedule covers "
                f"{self.schedule.nteams}"
            )
        if self.grid.c != self.schedule.c:
            raise ValueError(
                f"grid c={self.grid.c} but schedule c={self.schedule.c}"
            )
        if self.rcut is not None and self.geometry is None:
            raise ValueError("cutoff runs need a TeamGeometry for reachability")
        if self.geometry is not None and self.geometry.nteams != self.grid.nteams:
            raise ValueError(
                f"geometry has {self.geometry.nteams} teams, grid has "
                f"{self.grid.nteams}"
            )
        if self.rcut is not None:
            object.__setattr__(self, "reach",
                               self.geometry.reachability(self.rcut))

    def reachable(self, col: int, visitor_team: int) -> bool:
        """Can blocks of teams ``col`` and ``visitor_team`` interact?"""
        if self.rcut is None:
            return True
        return bool(self.reach(col, visitor_team))


#: Per-rank outcome of one interaction step — the shared scheduled-step
#: result (:class:`repro.core.commsched.StepResult`) under its historic
#: name.  ``memory_bytes`` is the algorithm's peak buffer residency,
#: Equation 4's M = O(c n / p); the resilient step below fills
#: ``recovered`` on replacement ranks.
CAStepResult = StepResult


def _shift(comm, grid: ReplicatedGrid, sched: ShiftSchedule, row: int,
           col: int, travel, move: tuple[int, ...]):
    """Uniform exchange-buffer move by ``move`` columns within the row."""
    if not any(move):
        return travel
    dest_col = sched.displace(col, move)
    src_col = sched.displace(col, tuple(-x for x in move))
    dest = grid.rank_at(row, dest_col)
    src = grid.rank_at(row, src_col)
    received = yield from comm.sendrecv(dest, travel, src, SHIFT_TAG)
    return received


def ca_interaction_step(comm, cfg: CAConfig, kernel, leader_block):
    """One CA interaction step; generator program for the simulated MPI.

    Parameters
    ----------
    comm:
        World communicator (``comm.size`` must equal ``cfg.grid.p``).
    cfg:
        Algorithm configuration.
    kernel:
        Interaction kernel (:class:`~repro.physics.kernels.RealKernel` or
        :class:`~repro.physics.kernels.VirtualKernel`).
    leader_block:
        On team leaders (row 0): this team's particle block
        (:class:`~repro.physics.particles.ParticleSet` or
        :class:`~repro.physics.particles.VirtualBlock`).  Ignored elsewhere.

    Returns
    -------
    CAStepResult
        Leaders carry the home block with the reduced forces installed.

    The schedule is lowered once (cached) into the shared communication-
    schedule IR — :func:`repro.core.commsched.rounds_for_schedule` — and
    executed by the generic :func:`repro.core.commsched.scheduled_step`;
    cutoff reachability stays a runtime gate supplied by ``cfg``.
    """
    cs = rounds_for_schedule(cfg.schedule)
    result = yield from scheduled_step(comm, cfg.grid, cs, kernel,
                                       leader_block,
                                       reachable=cfg.reachable)
    return result


def ca_program(cfg: CAConfig, kernel, blocks, *, resilient: bool = False):
    """Rank-program factory for one CA step over pre-distributed blocks.

    ``blocks[col]`` is team ``col``'s leader block (a
    :class:`~repro.physics.particles.ParticleSet` or
    :class:`~repro.physics.particles.VirtualBlock`); every non-leader rank
    starts empty and receives its copy in the broadcast phase.
    ``resilient=True`` selects the fault-tolerant step variant
    (:func:`ca_interaction_step_resilient`), which absorbs rank deaths via
    replication-aware recovery.

    The all-pairs, cutoff and virtual runners all execute exactly this
    program — only their configurations and block distributions differ.
    """
    grid = cfg.grid

    def program(comm):
        col = grid.col_of(comm.rank)
        leader_block = blocks[col] if grid.row_of(comm.rank) == 0 else None
        if resilient:
            result, _ = yield from ca_interaction_step_resilient(
                comm, cfg, kernel, leader_block
            )
        else:
            result = yield from ca_interaction_step(comm, cfg, kernel,
                                                    leader_block)
        return result

    return program


# ---------------------------------------------------------------------------
# Replication-aware recovery (the fault-tolerant step variant).
# ---------------------------------------------------------------------------


def check_fault_replication(faults, c: int, grid: ReplicatedGrid | None = None) -> None:
    """Reject rank-kill schedules that replication cannot absorb.

    Recovery sources every lost block and every lost partial sum from a
    surviving team member, so a schedule containing kills needs ``c >= 2``
    (at ``c = 1`` each block has exactly one copy and a death is
    unrecoverable data loss).  With the ``grid`` the check is sharper: the
    kills are mapped onto teams upfront, and a schedule that would wipe out
    *every* member of some team is refused before the run starts instead of
    failing mid-recovery.
    """
    if faults is None or not faults.has_kills:
        return
    if c < 2:
        raise ValueError(
            "fault schedules that kill ranks need replication c >= 2; "
            f"c={c} leaves no surviving copy of a dead rank's block"
        )
    if grid is not None:
        victims_per_team: dict[int, list[int]] = {}
        for rank in faults.killed_ranks:
            if 0 <= rank < grid.p:
                victims_per_team.setdefault(grid.col_of(rank), []).append(rank)
        for col, victims in sorted(victims_per_team.items()):
            if len(victims) >= grid.c:
                raise ValueError(
                    f"fault schedule kills every member of team {col} "
                    f"(ranks {victims}); replication c={grid.c} cannot "
                    "recover a team with no survivors"
                )


def acting_leader_of(grid: ReplicatedGrid, col: int, dead) -> int:
    """World rank of team ``col``'s acting leader: its lowest surviving row.

    With no deaths this is :meth:`~repro.simmpi.topology.ReplicatedGrid.
    leader_of`; when the leader died, leadership falls to the next
    replication layer — possible precisely because the broadcast left every
    surviving teammate a full copy of the block.
    """
    for r in range(grid.c):
        rank = grid.rank_at(r, col)
        if rank not in dead:
            return rank
    raise ValueError(f"team {col} lost all {grid.c} members; unrecoverable")


def _alive_team_ranks(grid: ReplicatedGrid, col: int, dead) -> list[int]:
    return [r for r in grid.team_ranks(col) if r not in dead]


def _survivor_ring_allgather(comm, alive: list[int], value):
    """Allgather ``value`` over the sorted survivor list via a plain ring.

    Collectives over the full communicator would route through dead ranks;
    this O(len(alive)) ring touches only survivors, which is acceptable for
    the (rare) recovery path.  Returns ``{world_rank: value}``.
    """
    k = len(alive)
    held = {comm.rank: value}
    if k == 1:
        return held
    idx = alive.index(comm.rank)
    nxt = alive[(idx + 1) % k]
    prv = alive[(idx - 1) % k]
    carry = (comm.rank, value)
    for _ in range(k - 1):
        carry = yield from comm.sendrecv(nxt, carry, prv, RECOVER_SYNC_TAG)
        if isinstance(carry, Tombstone):
            # A survivor died *during* recovery — after the failure-sync
            # point, so no replacement was arranged for it this step.
            raise RuntimeError(
                f"rank {carry.rank} died during recovery (inside the "
                "survivor ring), after the failure-sync point — "
                "unrecoverable this step; see docs/fault-model.md"
            )
        held[carry[0]] = carry[1]
    return held


def _replay_steps(cfg: CAConfig, row: int, col: int) -> list[int]:
    """All update steps rank ``(row, col)`` must execute (non-skip,
    reachable), in schedule order — the full workload a replacement rank
    recomputes for a dead teammate."""
    sched = cfg.schedule
    out = []
    for i in range(sched.steps):
        u = sched.update_position(row, i)
        if sched.skip[u]:
            continue
        if not cfg.reachable(col, sched.visitor_of(col, u)):
            continue
        out.append(i)
    return out


def ca_interaction_step_resilient(comm, cfg: CAConfig, kernel, leader_block,
                                  known_dead: frozenset = frozenset()):
    """One CA interaction step that survives rank deaths via replication.

    The optimistic path mirrors :func:`ca_interaction_step`; the
    differences are all on the failure path:

    * team collectives run over the *surviving* team members (the block
      broadcast roots at the acting leader — the lowest surviving row);
    * a shift ``sendrecv`` whose peer died delivers a
      :class:`~repro.simmpi.faults.Tombstone`; the affected rank records
      the missed updates (*holes*) and keeps shifting so the rest of the
      row stays in lockstep;
    * after the shift loop all survivors agree on the failure set
      (:meth:`~repro.simmpi.comm.Comm.sync_failures`), circulate their
      hole maps, re-fetch the lost visitor blocks from surviving copies
      (any teammate of the block's team holds it, by construction of the
      ``c x p/c`` grid), and **replay** the missed updates in schedule
      order — so every accumulator ends bitwise-identical to the
      fault-free run;
    * a team that lost a member reduces degraded: survivors ship their
      accumulators (plus the replacement's recomputed dead-slot
      accumulator) to the acting leader, which folds all ``c`` logical
      slots locally in the exact association order of the fault-free
      binomial reduction (:func:`~repro.simmpi.collectives.binomial_fold`).

    All recovery time and traffic is charged to the ``recover`` phase.
    Limitations: a rank that dies *before* finishing the team broadcast is
    unrecoverable (its teammates have no copy yet); deaths must leave every
    team at least one survivor.

    Parameters are those of :func:`ca_interaction_step` plus ``known_dead``
    (world ranks already dead when the step starts — multi-step drivers
    thread the set through).  Returns ``(CAStepResult, dead)`` where
    ``dead`` is the failure set agreed at the end of the step.
    """
    grid = cfg.grid
    sched = cfg.schedule
    if comm.size != grid.p:
        raise ValueError(f"program needs {grid.p} ranks, engine has {comm.size}")
    row = grid.row_of(comm.rank)
    col = grid.col_of(comm.rank)
    machine = comm.engine.machine
    team_alive = comm.sub(_alive_team_ranks(grid, col, known_dead))

    # 1. Broadcast from the acting leader (lowest surviving row).
    with comm.phase("bcast"):
        block = yield from team_alive.bcast(leader_block, root=0)
    if isinstance(block, Tombstone):
        raise SimMPIError(
            f"team {col}'s block lost: rank {block.rank} died during the "
            f"team broadcast, before replication completed"
        )
    home = kernel.home_of(block)

    # 2. Skew.  A tombstone here costs the whole shift sequence (recorded
    # as holes below); keep moving so the row stays uniform.
    travel = kernel.travel_of(home, col)
    memory_bytes = home.wire_nbytes + travel.wire_nbytes
    with comm.phase("shift"):
        travel = yield from _shift(comm, grid, sched, row, col, travel,
                                   sched.skew_move(row))

    # 3. Shift-and-update loop; missed updates become holes.
    npairs_total = 0
    updates = 0
    holes: list[int] = []
    for i in range(sched.steps):
        with comm.phase("shift"):
            travel = yield from _shift(comm, grid, sched, row, col, travel,
                                       sched.step_move(row, i))
        u = sched.update_position(row, i)
        expected = sched.visitor_of(col, u)
        if isinstance(travel, Tombstone):
            if not sched.skip[u] and cfg.reachable(col, expected):
                holes.append(i)
            continue
        memory_bytes = max(memory_bytes,
                           home.wire_nbytes + travel.wire_nbytes)
        if travel.team != expected:
            raise AssertionError(
                f"rank {comm.rank} (row {row}, col {col}) step {i}: schedule "
                f"predicts visitor {expected}, buffer belongs to {travel.team}"
            )
        if sched.skip[u] or not cfg.reachable(col, travel.team):
            continue
        with comm.phase("compute"):
            npairs = kernel.interact(home, travel)
            npairs_total += npairs
            updates += 1
            yield from comm.compute(machine.interactions_time(npairs))

    # 4. Agree on the failure set; recover if anything died.
    with comm.phase(RECOVER_PHASE):
        dead = yield from comm.sync_failures()
    dead = frozenset(dead)
    recovered: tuple = ()

    if dead:
        (npairs_rec, updates_rec, dead_payloads, recovered
         ) = yield from _recover(comm, cfg, kernel, home, col, dead, holes)
        npairs_total += npairs_rec
        updates += updates_rec
    else:
        dead_payloads = {}

    # 5. In-team reduction: degraded for teams that lost a member.
    alive_team = _alive_team_ranks(grid, col, dead)
    acting = alive_team[0]
    if any(grid.col_of(d) == col for d in dead):
        reduced = yield from _degraded_reduce(
            comm, grid, kernel, home, col, dead, dead_payloads, alive_team
        )
    else:
        team_now = comm.sub(alive_team)
        with comm.phase("reduce"):
            reduced = yield from team_now.reduce(
                kernel.forces_payload(home),
                _tombstone_guard(kernel.reduce_op, col, "in-team reduce"),
                root=0,
            )
    i_am_acting = comm.rank == acting
    if i_am_acting:
        kernel.install_forces(home, reduced)

    result = CAStepResult(
        row=row,
        col=col,
        npairs=npairs_total,
        updates=updates,
        home=home if i_am_acting else None,
        memory_bytes=memory_bytes,
        recovered=recovered,
    )
    return result, dead


#: Job mode: rebuild the executor's own accumulator slot from scratch.
_REBUILD = object()


def _recover(comm, cfg: CAConfig, kernel, home, col: int, dead: frozenset,
             holes: list[int]):
    """The collective recovery round (all survivors participate).

    Circulates hole maps, computes the deterministic damage plan, re-fetches
    lost visitor blocks from surviving replicas, and replays missed updates
    in schedule order.  Returns ``(npairs, updates, dead_payloads,
    recovered_events)`` where ``dead_payloads`` maps a dead teammate's row
    to its recomputed force payload (non-empty only on replacement ranks).
    """
    grid = cfg.grid
    sched = cfg.schedule
    machine = comm.engine.machine
    alive = [r for r in range(comm.size) if r not in dead]

    with comm.phase(RECOVER_PHASE):
        hole_map = yield from _survivor_ring_allgather(
            comm, alive, tuple(holes)
        )

    # Damage plan — a pure function of (dead, hole_map, cfg), so every
    # survivor derives the identical transfer and replay lists.
    # Jobs: (executor, target_row, target_col, steps, mode) where mode is
    # None (append missed updates to the live accumulator), _REBUILD
    # (recompute the executor's own slot from scratch) or a dead rank id
    # (recompute that rank's lost slot).
    jobs = []
    for rank in alive:
        rank_holes = hole_map.get(rank, ())
        if rank_holes:
            trow, tcol = grid.row_of(rank), grid.col_of(rank)
            full = _replay_steps(cfg, trow, tcol)
            suffix = [i for i in full if i >= min(rank_holes)]
            if tuple(sorted(rank_holes)) == tuple(suffix):
                # The holes are a suffix of the rank's update schedule:
                # appending the missed updates reproduces the fault-free
                # accumulation order exactly.
                jobs.append((rank, trow, tcol, tuple(sorted(rank_holes)),
                             None))
            else:
                # The tombstone bubble interleaved with live buffers, so
                # some updates landed *after* a hole.  Appending would
                # permute the float summation; rebuild the whole slot in
                # schedule order instead.
                jobs.append((rank, trow, tcol, tuple(full), _REBUILD))
    for d in sorted(dead):
        jd = grid.col_of(d)
        replacement = acting_leader_of(grid, jd, dead)
        jobs.append((replacement, grid.row_of(d), jd,
                     tuple(_replay_steps(cfg, grid.row_of(d), jd)), d))

    transfers = set()
    for executor, trow, tcol, steps, _d in jobs:
        for i in steps:
            team = sched.visitor_of(tcol, sched.update_position(trow, i))
            if team != tcol:
                provider = acting_leader_of(grid, team, dead)
                transfers.add((executor, provider, team))

    # Block re-fetch: requester/provider pairs in one deterministic order.
    fetched = {}
    reqs = []
    recv_teams = []
    with comm.phase(RECOVER_PHASE):
        for requester, provider, team in sorted(transfers):
            if provider == comm.rank:
                payload = kernel.travel_of(home, team)
                sreq = yield from comm.isend(requester, payload,
                                             RECOVER_FETCH_TAG)
                reqs.append(sreq)
            elif requester == comm.rank:
                rreq = yield from comm.irecv(provider, RECOVER_FETCH_TAG)
                reqs.append(rreq)
                recv_teams.append(team)
        if reqs:
            payloads = yield from comm.wait(*reqs)
            got = [p for q, p in zip(reqs, payloads) if q.kind == "recv"]
            fetched = dict(zip(recv_teams, got))

    # Replay missed updates, oldest first, so accumulator association
    # order matches the fault-free execution bit for bit.
    npairs_total = 0
    updates = 0
    dead_payloads = {}
    recovered = []
    for executor, trow, tcol, steps, mode in jobs:
        if executor != comm.rank:
            continue
        acc = home if mode is None else kernel.home_of(home)
        for i in steps:
            team = sched.visitor_of(tcol, sched.update_position(trow, i))
            travel = (kernel.travel_of(home, team) if team == tcol
                      else fetched[team])
            with comm.phase(RECOVER_PHASE):
                npairs = kernel.interact(acc, travel)
                npairs_total += npairs
                updates += 1
                yield from comm.compute(machine.interactions_time(npairs))
        if mode is _REBUILD:
            kernel.install_forces(home, kernel.forces_payload(acc))
        elif mode is not None:
            d = mode
            dead_payloads[grid.row_of(d)] = kernel.forces_payload(acc)
            recovered.append(RecoveredRankEvent(
                rank=d,
                death_time=comm.engine.death_time(d),
                recovered_by=comm.rank,
                replayed_updates=len(steps),
            ))
    return npairs_total, updates, dead_payloads, tuple(recovered)


def _tombstone_guard(op, col: int, where: str):
    """Wrap a reduction operator so that a :class:`Tombstone` arriving from a
    rank that died after the failure-sync point fails loudly instead of being
    fed into arithmetic."""

    def guarded(a, b):
        for operand in (a, b):
            if isinstance(operand, Tombstone):
                raise RuntimeError(
                    f"team {col}: rank {operand.rank} died during the {where},"
                    " after the failure-sync point — unrecoverable this step;"
                    " see docs/fault-model.md"
                )
        return op(a, b)

    return guarded


def _degraded_reduce(comm, grid: ReplicatedGrid, kernel, home, col: int,
                     dead: frozenset, dead_payloads: dict, alive_team: list[int]):
    """In-team reduction for a team that lost members: survivors ship their
    accumulators (and recomputed dead-slot accumulators) to the acting
    leader, which folds all ``c`` logical slots in the fault-free
    association order.  Returns the folded payload on the acting leader,
    ``None`` elsewhere."""
    acting = alive_team[0]
    my_slots = {grid.row_of(comm.rank): kernel.forces_payload(home)}
    my_slots.update(dead_payloads)
    with comm.phase(RECOVER_PHASE):
        if comm.rank != acting:
            yield from comm.send(acting, my_slots, RECOVER_REDUCE_TAG)
            return None
        slots = dict(my_slots)
        reqs = []
        for member in alive_team[1:]:
            req = yield from comm.irecv(member, RECOVER_REDUCE_TAG)
            reqs.append(req)
        if reqs:
            payloads = yield from comm.wait(*reqs)
            for part in payloads:
                if isinstance(part, Tombstone):
                    raise RuntimeError(
                        f"team {col}: rank {part.rank} died during the "
                        "degraded reduce, after the failure-sync point — "
                        "unrecoverable this step; see docs/fault-model.md"
                    )
                slots.update(part)
    missing = [r for r in range(grid.c) if r not in slots]
    if missing:
        raise AssertionError(
            f"team {col}: no accumulator for rows {missing} after recovery"
        )
    return binomial_fold([slots[r] for r in range(grid.c)], kernel.reduce_op)
