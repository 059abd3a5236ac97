"""Baseline decompositions the paper compares against or degenerates into.

* ``particle_allgather`` — the naive particle decomposition
  (Section II-B): every processor owns ``n/p`` particles and obtains all
  others, here via an allgather.  On Intrepid this collective can ride the
  dedicated tree network (the paper's "c=1 (tree)" runs) or be forced onto
  the torus ("c=1 (no-tree)").  Costs: ``S = O(p)`` software /
  ``O(log p)`` hardware, ``W = O(n)``.
* ``particle_ring`` — the same decomposition with a systolic ring
  of shifts; identical to the CA algorithm at ``c = 1``.
* ``force_decomposition`` — Plimpton's force decomposition
  (Section II-B): a ``sqrt(p) x sqrt(p)`` grid where processor ``(i, j)``
  computes the interactions of particle block ``i`` with block ``j``.
  Costs: ``S = O(log p)``, ``W = O(n / sqrt(p))`` — the ``c = sqrt(p)``
  extreme of the CA family.
* ``spatial`` — the classic spatial decomposition with a cutoff
  (Section II-C): every processor owns one region and exchanges halos with
  the ``O(m^d)`` neighbor regions its cutoff reaches.

All are functional: they move real particle data and must (and do, per the
tests) reproduce the serial reference forces exactly like the CA runs.
All four are registered adapters over the single run pipeline
(:mod:`repro.core.runner`), launched as
``run(RunSpec(machine=m, algorithm="<name>", particles=ps, ...))``; the
pipeline threads ``faults`` (transient schedules — the engine's retry
protocol; these decompositions have no kill-recovery path), ``scratch``
and ``engine_opts`` through every one uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import team_blocks_even, team_blocks_spatial
from repro.core.runner import Prepared, RunSpec, register_algorithm
from repro.machines.torus import balanced_dims
from repro.physics.domain import TeamGeometry
from repro.physics.kernels import kernel_for
from repro.physics.particles import HomeBlock, ParticleSet, TravelBlock

__all__: list[str] = []

_HALO_TAG = 11


def _collect(results, owner_ranks) -> tuple[np.ndarray, np.ndarray]:
    ids = np.concatenate([results[r][0] for r in owner_ranks])
    forces = np.concatenate([results[r][1] for r in owner_ranks])
    order = np.argsort(ids, kind="stable")
    return ids[order], forces[order]


# ---------------------------------------------------------------------------
# Particle decompositions
# ---------------------------------------------------------------------------


@register_algorithm(
    "particle_allgather",
    supports_c=False,
    summary="Naive particle decomposition: allgather all blocks (tree-capable)",
)
def _prepare_particle_allgather(spec: RunSpec) -> Prepared:
    """Naive particle decomposition via allgather of all particle blocks.

    ``spec.use_tree`` posts the allgather on the machine's dedicated
    collective network (requires a machine with hardware collectives, e.g.
    :func:`~repro.machines.Intrepid`); otherwise the software
    recursive-doubling/ring allgather runs over the torus.
    """
    machine = spec.machine
    p = machine.nranks
    use_tree = spec.use_tree
    kernel = kernel_for(spec.law, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_even(spec.workload(), p)

    def program(comm):
        mine = blocks[comm.rank]
        home = HomeBlock(particles=mine)
        payload = TravelBlock(pos=mine.pos, ids=mine.ids, team=comm.rank)
        with comm.phase("allgather"):
            if use_tree:
                gathered = yield from comm.hw_coll("allgather", payload)
            else:
                gathered = yield from comm.allgather(payload)
        total_pairs = 0
        with comm.phase("compute"):
            for tb in gathered:
                total_pairs += kernel.interact(home, tb)
            yield from comm.compute(machine.interactions_time(total_pairs))
        return (mine.ids, home.forces)

    return Prepared(program=program,
                    collect=lambda run: _collect(run.results, range(p)))


@register_algorithm(
    "particle_ring",
    supports_c=False,
    summary="Particle decomposition via a systolic ring (CA at c=1)",
)
def _prepare_particle_ring(spec: RunSpec) -> Prepared:
    machine = spec.machine
    p = machine.nranks
    kernel = kernel_for(spec.law, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_even(spec.workload(), p)

    def program(comm):
        mine = blocks[comm.rank]
        home = HomeBlock(particles=mine)
        travel = TravelBlock(pos=mine.pos.copy(), ids=mine.ids.copy(), team=comm.rank)
        right = (comm.rank + 1) % p
        left = (comm.rank - 1) % p
        total_pairs = 0
        for _ in range(p):
            with comm.phase("shift"):
                travel = yield from comm.sendrecv(right, travel, left, _HALO_TAG)
            with comm.phase("compute"):
                n = kernel.interact(home, travel)
                total_pairs += n
                yield from comm.compute(machine.interactions_time(n))
        return (mine.ids, home.forces)

    return Prepared(program=program,
                    collect=lambda run: _collect(run.results, range(p)))


# ---------------------------------------------------------------------------
# Plimpton force decomposition
# ---------------------------------------------------------------------------


@register_algorithm(
    "force_decomposition",
    supports_c=False,
    square_p=True,
    summary="Plimpton force decomposition on a sqrt(p) x sqrt(p) grid",
)
def _prepare_force_decomposition(spec: RunSpec) -> Prepared:
    """Plimpton's force decomposition on a ``sqrt(p) x sqrt(p)`` grid.

    Processor ``(i, j)`` receives particle block ``i`` (broadcast along
    grid row ``i`` from the diagonal owner) and block ``j`` (broadcast
    along grid column ``j``), computes the forces of block ``j`` on block
    ``i``, and row-reduces the partial forces back to the diagonal.
    """
    machine = spec.machine
    p = machine.nranks
    q = int(round(p**0.5))
    kernel = kernel_for(spec.law, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_even(spec.workload(), q)

    def program(comm):
        i, j = divmod(comm.rank, q)
        row_comm = comm.sub([i * q + jj for jj in range(q)])
        col_comm = comm.sub([ii * q + j for ii in range(q)])
        diag_block = blocks[i] if i == j else None

        with comm.phase("bcast"):
            # Block i travels along grid row i (diagonal rank (i, i) owns it).
            bi = yield from row_comm.bcast(
                TravelBlock(pos=diag_block.pos, ids=diag_block.ids, team=i)
                if diag_block is not None else None,
                root=i,
            )
            # Block j travels along grid column j (diagonal rank (j, j)).
            bj = yield from col_comm.bcast(
                TravelBlock(pos=diag_block.pos, ids=diag_block.ids, team=j)
                if diag_block is not None else None,
                root=j,
            )
        home = HomeBlock(particles=ParticleSet(bi.pos, np.zeros_like(bi.pos), bi.ids))
        with comm.phase("compute"):
            n = kernel.interact(home, bj)
            yield from comm.compute(machine.interactions_time(n))
        with comm.phase("reduce"):
            total = yield from row_comm.reduce(home.forces, kernel.reduce_op, root=i)
        if i == j:
            return (blocks[i].ids, total)
        return None

    return Prepared(
        program=program,
        collect=lambda run: _collect(run.results,
                                     [i * q + i for i in range(q)]),
    )


# ---------------------------------------------------------------------------
# Spatial decomposition with cutoff (halo exchange)
# ---------------------------------------------------------------------------


@register_algorithm(
    "spatial",
    supports_c=False,
    needs_rcut=True,
    summary="Spatial decomposition: one region per rank, cutoff halo exchange",
)
def _prepare_spatial(spec: RunSpec) -> Prepared:
    """Spatial decomposition: one region per processor, halo exchange.

    Every processor owns the particles of its region and point-to-point
    exchanges blocks with each of the ``O(m^d)`` neighbor regions within
    the cutoff (no replication, ``M = O(n/p)`` — the minimal-memory point
    of the lower bound, Section II-C).
    """
    machine = spec.machine
    p = machine.nranks
    particles = spec.workload()
    dim = particles.dim if spec.dim is None else spec.dim
    rcut = spec.rcut
    geometry = TeamGeometry(box_length=spec.box_length,
                            team_dims=balanced_dims(p, dim))
    kernel = kernel_for(spec.law, rcut=rcut, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_spatial(particles, geometry)

    # Each region's in-cutoff neighbor list (symmetric).
    neighbors = geometry.neighbors(rcut)

    def program(comm):
        mine = blocks[comm.rank]
        home = HomeBlock(particles=mine)
        payload = TravelBlock(pos=mine.pos, ids=mine.ids, team=comm.rank)
        # Exchange with every reachable neighbor (pairwise sendrecv, ordered
        # by neighbor rank to stay deadlock-free: both sides post both ops).
        received = []
        with comm.phase("halo"):
            reqs = []
            for b in neighbors[comm.rank]:
                sreq = yield from comm.isend(b, payload, _HALO_TAG)
                rreq = yield from comm.irecv(b, _HALO_TAG)
                reqs.extend((sreq, rreq))
            payloads = yield from comm.wait(*reqs)
            received = [x for x in payloads[1::2]]
        total_pairs = 0
        with comm.phase("compute"):
            n = kernel.interact(home, payload)  # own region self-interactions
            total_pairs += n
            for tb in received:
                total_pairs += kernel.interact(home, tb)
            yield from comm.compute(machine.interactions_time(total_pairs))
        return (mine.ids, home.forces)

    return Prepared(program=program,
                    collect=lambda run: _collect(run.results, range(p)))
