"""Pairwise force kernels.

The paper's test problem: particles in a box exert a **repulsive force that
drops off with the square of their distance** (magnitude ``k / r^2``,
directed apart).  A Plummer-style softening length keeps the kernel finite
at tiny separations; an optional cutoff radius ``rcut`` zeroes interactions
beyond it (Section IV's distance-limited case — "particles have no effect
beyond a cutoff radius").

The kernels are fully vectorized over target x source pairs and chunk the
target axis so the temporary ``(nt, ns, d)`` displacement tensor stays
within a bounded memory footprint.

With a cutoff, :func:`pairwise_forces` first prunes candidates: it bins the
targets into cells of width ``rcut`` and hands each cell's targets only the
sources inside the cell's bounding box grown by ``rcut``, so the host
evaluates ``O(nt k)`` pairs instead of ``nt ns``.  The machine model still
charges the whole block pair (the returned count stays ``nt ns``, Algorithm
2's block x block cost); pruning is a host-side optimization only.
Periodic laws, ``half`` / ``pair_mask`` calls and blocks below
``_PRUNE_MIN_PAIRS`` candidate pairs run the dense kernel unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["ForceLaw", "clear_scratch", "pairwise_forces", "potential_energy",
           "scratch_bytes"]

# Cap on nt * ns per vectorized chunk (elements of the pair matrix).
_CHUNK_PAIRS = 1 << 22

# Cutoff block pairs with fewer candidate pairs than this run the dense
# kernel: below it, binning costs more than the masked pairs it saves (and
# the many-rank tiny-block workloads keep their exact per-call path).
_PRUNE_MIN_PAIRS = 1 << 14

# Fewest targets a pruning cell should hold on average: finer cells cost a
# dense-kernel call each, more than the candidates they would prune.
_PRUNE_MIN_GROUP = 16

# ---------------------------------------------------------------------------
# Scratch-buffer pool.
#
# The CA shift loop calls the kernel once per shift step with the *same*
# block shapes every time, so the (m, ns, d) displacement tensor, the
# (m, ns) squared-distance / weight planes and the boolean masks are
# allocated exactly once per shape and reused for every subsequent chunk —
# at the small per-team block sizes typical of large-p runs, allocator
# traffic dominates the arithmetic.  Buffers are fully overwritten before
# every read (all producers are ``out=`` ufuncs/einsums over the whole
# buffer), so reuse cannot leak state between calls; results stay bitwise
# identical to the allocating path (``scratch=False``), which the
# determinism tests pin.
#
# The pool is a least-recently-used map capped at ``_SCRATCH_CAP_BYTES``:
# ragged block shapes (spatially binned teams, pruned cutoff sub-blocks)
# would otherwise each keep their buffers forever.  A shape whose buffers
# alone exceed the cap is served unpooled.
# ---------------------------------------------------------------------------

# Byte cap of the scratch pool.  Equal 512-particle 2-D blocks need one
# ~13 MiB shape (forward, reaction and self-half calls share it); the cap
# holds two.
_SCRATCH_CAP_BYTES = 32 << 20


class _Scratch:
    """Every buffer one ``(m, ns, d)`` chunk shape needs, fetched in one
    pool lookup (at small block sizes even dict lookups show up)."""

    __slots__ = ("dr", "mi", "r2", "live", "within", "denom", "dead",
                 "f", "rf")

    def __init__(self, m: int, ns: int, d: int):
        self.dr = np.empty((m, ns, d))
        self.r2 = np.empty((m, ns))
        self.denom = np.empty((m, ns))
        self.live = np.empty((m, ns), dtype=bool)
        self.dead = np.empty((m, ns), dtype=bool)
        self.f = np.empty((m, d))
        # Lazily allocated (minimum image / cutoff-with-ids / reactions):
        self.mi: np.ndarray | None = None
        self.within: np.ndarray | None = None
        self.rf: np.ndarray | None = None

    @staticmethod
    def nbytes(m: int, ns: int, d: int) -> int:
        """Bytes of a shape's buffers once every lazy one exists."""
        return 8 * (2 * m * ns * d + 2 * m * ns + m * d + ns * d) + 3 * m * ns


_SCRATCH_POOL: OrderedDict[tuple[int, int, int], _Scratch] = OrderedDict()
_scratch_total = 0  # sum of _Scratch.nbytes over the pooled shapes


def _scratch_for(m: int, ns: int, d: int) -> _Scratch:
    global _scratch_total
    key = (m, ns, d)
    bufs = _SCRATCH_POOL.get(key)
    if bufs is not None:
        _SCRATCH_POOL.move_to_end(key)
        return bufs
    bufs = _Scratch(m, ns, d)
    size = _Scratch.nbytes(m, ns, d)
    if size <= _SCRATCH_CAP_BYTES:
        while _scratch_total + size > _SCRATCH_CAP_BYTES:
            evicted, _ = _SCRATCH_POOL.popitem(last=False)
            _scratch_total -= _Scratch.nbytes(*evicted)
        _SCRATCH_POOL[key] = bufs
        _scratch_total += size
    return bufs


def scratch_bytes() -> int:
    """Bytes the scratch pool may hold for its current shapes (an upper
    bound: lazily allocated buffers are counted whether or not they exist);
    never more than the pool's cap."""
    return _scratch_total


def clear_scratch() -> None:
    """Drop all pooled kernel scratch buffers (frees their memory)."""
    global _scratch_total
    _SCRATCH_POOL.clear()
    _scratch_total = 0


@dataclass(frozen=True)
class ForceLaw:
    """Parameters of the repulsive inverse-square interaction.

    Attributes
    ----------
    k:
        Force constant (magnitude is ``k / r^2``).
    softening:
        Plummer softening length; ``r^2`` is replaced by
        ``r^2 + softening^2``.
    rcut:
        Cutoff radius; ``None`` means interactions act at all distances.
        With a cutoff, pairs at distance > rcut contribute exactly zero —
        matching the paper's "no effect beyond a cutoff radius" setting.
    box:
        Periodic box length; ``None`` (the paper's setting) means open
        space with reflective walls handled elsewhere.  When set,
        displacements use the minimum-image convention — the reproduction's
        periodic-boundary extension, which removes the boundary load
        imbalance the paper discusses.
    """

    k: float = 1.0e-4
    softening: float = 1.0e-3
    rcut: float | None = None
    box: float | None = None

    def __post_init__(self):
        if self.box is not None:
            if self.box <= 0:
                raise ValueError(f"periodic box must be positive, got {self.box}")
            if self.rcut is not None and self.rcut > self.box / 2:
                raise ValueError(
                    f"rcut={self.rcut} exceeds half the periodic box "
                    f"{self.box} (minimum image would be ambiguous)"
                )

    def with_rcut(self, rcut: float | None) -> "ForceLaw":
        return ForceLaw(self.k, self.softening, rcut, self.box)

    def with_box(self, box: float | None) -> "ForceLaw":
        return ForceLaw(self.k, self.softening, self.rcut, box)


def pairwise_forces(
    law: ForceLaw,
    target_pos: np.ndarray,
    source_pos: np.ndarray,
    *,
    target_ids: np.ndarray | None = None,
    source_ids: np.ndarray | None = None,
    out: np.ndarray | None = None,
    pair_counter: np.ndarray | None = None,
    reaction_out: np.ndarray | None = None,
    half: bool = False,
    pair_mask: np.ndarray | None = None,
    scratch: bool = True,
) -> tuple[np.ndarray, int]:
    """Accumulate forces of ``source`` particles on ``target`` particles.

    Parameters
    ----------
    target_pos, source_pos:
        ``(nt, d)`` and ``(ns, d)`` position arrays.
    target_ids, source_ids:
        Global particle ids; when both are given, pairs with equal ids are
        excluded (a particle never interacts with its own replica).
    out:
        ``(nt, d)`` accumulator to add into; a fresh zero array otherwise.
    pair_counter:
        Optional ``(n_global, n_global)`` integer matrix; entry ``[i, j]``
        is incremented for every *accumulated* (target id i, source id j)
        interaction.  Used by the exactly-once coverage tests.
    reaction_out:
        Optional ``(ns, d)`` accumulator receiving Newton's-third-law
        reactions (``-F`` per pair) — the symmetric-force extension the
        paper deliberately does not apply.  When given, the counter also
        records the (source, target) direction.  For a block interacting
        with itself, pass the *same* array as ``out`` together with
        ``half=True``.
    half:
        Evaluate only pairs with ``target_id < source_id`` (requires ids
        and ``reaction_out``): each unordered pair once.
    pair_mask:
        Optional ``(nt, ns)`` boolean matrix further restricting which
        pairs are live (ANDed with the id/cutoff masks).  Neutral-territory
        methods use it to select the pairs a rank *owns* — e.g. the
        midpoint method's "pairs whose midpoint falls in my region".
    scratch:
        Reuse pooled per-shape scratch buffers (default).  ``False``
        allocates fresh temporaries per chunk — same results bit for bit,
        kept for A/B determinism tests.  Pruned cutoff calls allocate
        either way: their ragged sub-block shapes rarely repeat.

    Returns
    -------
    (forces, npairs_scanned):
        The accumulator, and the number of candidate pairs of the block
        pair — the computation cost the machine model charges (``nt * ns``,
        or the ``nt (nt - 1) / 2`` upper triangle in ``half`` mode).  With
        a cutoff the host may evaluate far fewer (see the module
        docstring); the charge does not change.
    """
    nt, d = target_pos.shape
    ns = source_pos.shape[0]
    if out is None:
        out = np.zeros((nt, d), dtype=np.float64)
    if half and (target_ids is None or source_ids is None or reaction_out is None):
        raise ValueError("half=True requires ids and reaction_out")
    if nt == 0 or ns == 0:
        return out, 0
    if (law.rcut is not None and law.rcut > 0 and law.box is None
            and not half and pair_mask is None
            and nt * ns >= _PRUNE_MIN_PAIRS):
        _pruned_forces(law, target_pos, source_pos, target_ids, source_ids,
                       out, pair_counter, reaction_out)
        return out, nt * ns
    _dense_forces(law, target_pos, source_pos, target_ids, source_ids, out,
                  pair_counter=pair_counter, reaction_out=reaction_out,
                  half=half, pair_mask=pair_mask, scratch=scratch)
    npairs = nt * (nt - 1) // 2 if half and nt == ns else nt * ns
    return out, npairs


def _pruned_forces(law, target_pos, source_pos, target_ids, source_ids, out,
                   pair_counter, reaction_out) -> None:
    """Cutoff kernel over candidate sub-blocks only.

    Targets are binned into cells of width ``rcut`` (coarser when that
    would leave fewer than ``_PRUNE_MIN_GROUP`` targets per cell); each
    cell's targets meet only the sources inside their bounding box grown
    by ``rcut``, in their original order.  Every pruned pair lies beyond
    ``rcut`` along some axis, so it is one the dense kernel would mask:
    forces agree with it up to summation order and ``pair_counter`` is
    identical.  Sub-blocks run on the allocating path: their ragged shapes
    rarely repeat, so pooling them would only churn the scratch pool.
    """
    nt, d = target_pos.shape
    ns = source_pos.shape[0]
    rcut = law.rcut
    tmin = target_pos.min(axis=0)
    extent = target_pos.max(axis=0) - tmin
    per_axis = max(1.0, (nt / _PRUNE_MIN_GROUP) ** (1.0 / d))
    width = np.maximum(rcut, extent / per_axis)
    cell = np.floor((target_pos - tmin) / width).astype(np.intp)
    order = np.lexsort(cell.T[::-1])
    sorted_cells = cell[order]
    starts = np.concatenate(([0], np.flatnonzero(
        (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)) + 1))
    ends = np.append(starts[1:], nt)
    # The slack keeps every pruned pair beyond rcut despite the rounding of
    # the box edges and of the kernel's own displacements.
    scale = float(np.abs(target_pos).max()) + float(np.abs(source_pos).max())
    reach = rcut + 1e-9 * (rcut + scale)
    grouped = target_pos[order]
    lo = np.minimum.reduceat(grouped, starts, axis=0) - reach
    hi = np.maximum.reduceat(grouped, starts, axis=0) + reach

    step = max(1, _CHUNK_PAIRS // ns)
    for g0 in range(0, len(starts), step):
        g1 = min(g0 + step, len(starts))
        inside = ((source_pos[None, :, 0] >= lo[g0:g1, 0, None])
                  & (source_pos[None, :, 0] <= hi[g0:g1, 0, None]))
        for k in range(1, d):
            inside &= source_pos[None, :, k] >= lo[g0:g1, k, None]
            inside &= source_pos[None, :, k] <= hi[g0:g1, k, None]
        for g in range(g0, g1):
            si = np.flatnonzero(inside[g - g0])
            if si.size == 0:
                continue
            ti = order[starts[g]:ends[g]]
            sub_out = np.zeros((ti.size, d))
            sub_reaction = (None if reaction_out is None
                            else np.zeros((si.size, d)))
            _dense_forces(
                law, target_pos[ti], source_pos[si],
                None if target_ids is None else target_ids[ti],
                None if source_ids is None else source_ids[si],
                sub_out, pair_counter=pair_counter,
                reaction_out=sub_reaction, half=False, pair_mask=None,
                scratch=False)
            out[ti] += sub_out
            if sub_reaction is not None:
                reaction_out[si] += sub_reaction


def _dense_forces(law, target_pos, source_pos, target_ids, source_ids, out,
                  pair_counter, reaction_out, half, pair_mask,
                  scratch) -> None:
    """The dense kernel: every ``nt x ns`` pair, chunked over targets and
    accumulated into ``out``."""
    nt, d = target_pos.shape
    ns = source_pos.shape[0]
    exclude_ids = target_ids is not None and source_ids is not None
    eps2 = law.softening * law.softening
    rcut2 = None if law.rcut is None else law.rcut * law.rcut

    chunk = max(1, _CHUNK_PAIRS // max(ns, 1))
    for lo in range(0, nt, chunk):
        hi = min(lo + chunk, nt)
        m = hi - lo
        if scratch:
            # Pooled path: every temporary is a per-shape pooled buffer,
            # produced by the same ufunc/einsum as the allocating path
            # (``x * round(y)`` vs ``round(y, out=...) *= x`` etc. are the
            # same IEEE operations), so values are bitwise identical.
            bufs = _scratch_for(m, ns, d)
            dr = bufs.dr
            np.subtract(target_pos[lo:hi, None, :], source_pos[None, :, :],
                        out=dr)
            if law.box is not None:
                # Minimum image, fused into one pass over one scratch
                # tensor instead of three fresh temporaries.
                mi = bufs.mi
                if mi is None:
                    mi = bufs.mi = np.empty((m, ns, d))
                np.divide(dr, law.box, out=mi)
                np.round(mi, out=mi)
                mi *= law.box
                dr -= mi
            r2 = np.einsum("ijk,ijk->ij", dr, dr, out=bufs.r2)
            live = None
            if half:
                live = bufs.live
                np.less(target_ids[lo:hi, None], source_ids[None, :],
                        out=live)
            elif exclude_ids:
                live = bufs.live
                np.not_equal(target_ids[lo:hi, None], source_ids[None, :],
                             out=live)
            if pair_mask is not None:
                if live is None:
                    live = bufs.live
                    np.copyto(live, pair_mask[lo:hi])
                else:
                    live &= pair_mask[lo:hi]
            if rcut2 is not None:
                if live is None:
                    live = bufs.live
                    np.less_equal(r2, rcut2, out=live)
                else:
                    within = bufs.within
                    if within is None:
                        within = bufs.within = np.empty((m, ns), dtype=bool)
                    np.less_equal(r2, rcut2, out=within)
                    live &= within
            # F = k * dr / (r^2 + eps^2)^(3/2): repulsive inverse-square.
            denom = bufs.denom
            np.add(r2, eps2, out=denom)
            np.power(denom, 1.5, out=denom)
            if live is not None:
                # Masked pairs (self/replica/beyond-cutoff) may sit at
                # zero distance; keep their excluded denominators finite.
                dead = bufs.dead
                np.logical_not(live, out=dead)
                np.copyto(denom, 1.0, where=dead)
            w = denom  # reuse in place: k / denom
            np.divide(law.k, denom, out=w)
            if live is not None:
                np.copyto(w, 0.0, where=dead)
            fchunk = np.einsum("ij,ijk->ik", w, dr, out=bufs.f)
            out[lo:hi] += fchunk
            if reaction_out is not None:
                rf = bufs.rf
                if rf is None:
                    rf = bufs.rf = np.empty((ns, d))
                rchunk = np.einsum("ij,ijk->jk", w, dr, out=rf)
                reaction_out -= rchunk
        else:
            dr = target_pos[lo:hi, None, :] - source_pos[None, :, :]  # (m, ns, d)
            if law.box is not None:
                dr -= law.box * np.round(dr / law.box)  # minimum image
            r2 = np.einsum("ijk,ijk->ij", dr, dr)
            live = None
            if half:
                live = target_ids[lo:hi, None] < source_ids[None, :]
            elif exclude_ids:
                live = target_ids[lo:hi, None] != source_ids[None, :]
            if pair_mask is not None:
                live = pair_mask[lo:hi] if live is None \
                    else (live & pair_mask[lo:hi])
            if rcut2 is not None:
                within = r2 <= rcut2
                live = within if live is None else (live & within)
            # F = k * dr / (r^2 + eps^2)^(3/2): repulsive inverse-square.
            denom = (r2 + eps2) ** 1.5
            if live is not None:
                # Masked pairs (self/replica/beyond-cutoff) may sit at zero
                # distance; keep their excluded denominators finite.
                denom = np.where(live, denom, 1.0)
            w = law.k / denom
            if live is not None:
                w = np.where(live, w, 0.0)
            out[lo:hi] += np.einsum("ij,ijk->ik", w, dr)
            if reaction_out is not None:
                reaction_out -= np.einsum("ij,ijk->jk", w, dr)
        if pair_counter is not None:
            mask = np.ones_like(r2, dtype=bool) if live is None else live
            ti = np.asarray(target_ids[lo:hi], dtype=np.intp)
            si = np.asarray(source_ids, dtype=np.intp)
            ii, jj = np.nonzero(mask)
            np.add.at(pair_counter, (ti[ii], si[jj]), 1)
            if reaction_out is not None:
                np.add.at(pair_counter, (si[jj], ti[ii]), 1)


def potential_energy(
    law: ForceLaw,
    pos: np.ndarray,
    *,
    ids: np.ndarray | None = None,
) -> float:
    """Total potential energy of the configuration (diagnostics only).

    The potential conjugate to ``F = k dr / (r^2 + eps^2)^{3/2}`` is
    ``U(r) = k / sqrt(r^2 + eps^2)``; each unordered pair counts once.
    With a cutoff the potential is truncated (not shifted), which is fine
    for the smoke-level conservation checks the tests perform.
    """
    n, _ = pos.shape
    if n < 2:
        return 0.0
    eps2 = law.softening * law.softening
    rcut2 = None if law.rcut is None else law.rcut * law.rcut
    total = 0.0
    chunk = max(1, _CHUNK_PAIRS // n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dr = pos[lo:hi, None, :] - pos[None, :, :]
        if law.box is not None:
            dr -= law.box * np.round(dr / law.box)
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        iu = np.arange(lo, hi)[:, None] < np.arange(n)[None, :]
        if rcut2 is not None:
            iu &= r2 <= rcut2
        total += float((law.k / np.sqrt(r2[iu] + eps2)).sum())
    return total
