"""The midpoint method (Section II-D related work) as a baseline.

Bowers, Dror and Shaw's midpoint method is the neutral-territory variant
the paper singles out: "a processor computes all interactions for which
the midpoint of the interacting particles lies in the processor's
territory".  Each processor therefore imports only the particles within
``r_c / 2`` of its region — half the spatial decomposition's import
distance, hence the method's "smaller import region for a typical number
of processors" — and evaluates each pair on exactly one processor (the
owner of the pair's midpoint, with the domain's deterministic binning
breaking boundary ties).

This implementation is functional end to end over the simulated MPI: halo
exchange with the processors whose regions fall within ``r_c / 2``, local
evaluation of midpoint-owned pairs (both force directions — the pair is
computed where neither particle may live, so contributions must be
returned), and a force **return** phase sending contributions for imported
particles back to their owners.

Registered as ``"midpoint"`` over the single run pipeline
(:mod:`repro.core.runner`); the pair evaluation routes through the shared
kernel's pair-ownership mask (``RealKernel.interact_owned``), so the
midpoint method inherits the pooled-scratch fast path, the cutoff masking
and the coverage instrumentation from the same code every other algorithm
uses.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import _collect
from repro.core.decomposition import team_blocks_spatial
from repro.core.runner import Prepared, RunSpec, register_algorithm
from repro.machines.torus import balanced_dims
from repro.physics.domain import TeamGeometry, team_of_positions
from repro.physics.kernels import kernel_for
from repro.physics.particles import TravelBlock

__all__: list[str] = []

_HALO_TAG = 17
_RETURN_TAG = 19


def _owned_pair_mask(pos, geometry, region) -> np.ndarray:
    """Boolean ``(n, n)`` matrix: does this region own the pair's midpoint?"""
    n, d = pos.shape
    mid = 0.5 * (pos[:, None, :] + pos[None, :, :])  # (n, n, d)
    return team_of_positions(mid.reshape(-1, d), geometry).reshape(n, n) == region


@register_algorithm(
    "midpoint",
    supports_c=False,
    needs_rcut=True,
    summary="Midpoint method: pairs owned by their midpoint's region",
)
def _prepare_midpoint(spec: RunSpec) -> Prepared:
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

    # Import neighborhood: regions within rcut/2 (the midpoint can only
    # fall in my region if both endpoints are within rcut/2 of it... the
    # *particles* I must see are within rcut/2 + rcut/2; conservatively a
    # particle at distance > rcut/2 from my region cannot form an owned
    # midpoint with any of distance <= rcut).
    neighbors = geometry.neighbors(rcut / 2)

    def program(comm):
        me = comm.rank
        mine = blocks[me]
        payload = TravelBlock(pos=mine.pos, ids=mine.ids, team=me)
        with comm.phase("halo"):
            reqs = []
            for b in neighbors[me]:
                sreq = yield from comm.isend(b, payload, _HALO_TAG)
                rreq = yield from comm.irecv(b, _HALO_TAG)
                reqs.extend((sreq, rreq))
            payloads = yield from comm.wait(*reqs)
            imported = list(payloads[1::2])

        all_pos = np.concatenate([mine.pos] + [t.pos for t in imported]) \
            if imported else mine.pos
        all_ids = np.concatenate([mine.ids] + [t.ids for t in imported]) \
            if imported else mine.ids
        owner = np.concatenate(
            [np.full(len(mine), me)]
            + [np.full(len(t), t.team) for t in imported]
        ) if imported else np.full(len(mine), me)

        with comm.phase("compute"):
            forces = np.zeros_like(all_pos)
            scanned = kernel.interact_owned(
                all_pos, all_ids,
                pair_mask=_owned_pair_mask(all_pos, geometry, me),
                out=forces,
            )
            yield from comm.compute(machine.interactions_time(scanned))

        # Route contributions for imported particles back to their owners.
        with comm.phase("return"):
            reqs = []
            for b in neighbors[me]:
                sel = owner == b
                out = (all_ids[sel], forces[sel])
                sreq = yield from comm.isend(b, out, _RETURN_TAG)
                rreq = yield from comm.irecv(b, _RETURN_TAG)
                reqs.extend((sreq, rreq))
            payloads = yield from comm.wait(*reqs)
            returned = payloads[1::2]

        total = forces[owner == me].copy()
        index_of = {int(i): k for k, i in enumerate(mine.ids)}
        for r_ids, r_forces in returned:
            for rid, rf in zip(r_ids, r_forces):
                total[index_of[int(rid)]] += rf
        return (mine.ids, total)

    return Prepared(program=program,
                    collect=lambda run: _collect(run.results, range(p)))
