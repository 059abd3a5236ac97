"""Shift schedules: who holds which exchange buffer, when.

This module is the combinatorial heart of both CA algorithms.  It turns the
paper's prose — "shift by ``k`` along the row", "shift by ``c`` modulo the
cutoff window" — into an explicit, testable schedule.

Model
-----
Teams form a d-dimensional grid ``team_dims`` (all-pairs: a 1-D ring of all
``T = p/c`` teams).  A **window** is an ordered list of team-offset vectors
``off(0), ..., off(w-1)`` with ``off(z) = 0`` for the *zero index* ``z``.
The exchange buffer of team ``b`` sitting at *window position* ``u`` is
physically held by the column (team slot) ``b - off(u)`` (component-wise,
modulo ``team_dims``).

The CA schedule is: row ``k`` starts its buffer at position ``z`` (at its
home column), skews to position ``(z + k) mod w``, then performs
``w / c`` shift steps, each advancing the position by ``c``.  Row ``k``
therefore *updates* with window positions ``(z + k + c·(i+1)) mod w`` for
``i = 0..w/c-1`` — the residue class ``k (mod c)``, so the ``c`` rows of a
team jointly cover every window position exactly once.  Because every
buffer in a row advances identically, the physical data movement at each
step is one uniform ``sendrecv`` per processor, exactly as in the paper's
Figures 1, 4 and 5.

Padding and aliasing
--------------------
The window length must be a multiple of ``c`` for the residue classes to
tile it.  The construction pads the physical window (all offsets within the
cutoff span ``m``; the full ring for all-pairs) with extra trailing offsets
and marks as ``skip`` every position that is padding-aliased — i.e. whose
offset, wrapped into the team grid, repeats the wrapped offset of an
earlier position.  Skipped positions still shift (uniformity) but never
update, which preserves the *exactly-once* interaction guarantee for any
``c`` dividing ``p`` — a strict generalization of the paper's
``c <= 2m``, power-of-two setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.util import require

__all__ = [
    "ShiftSchedule",
    "all_pairs_schedule",
    "cutoff_schedule",
    "half_ring_schedule",
]


@dataclass(frozen=True)
class ShiftSchedule:
    """A complete, uniform shift schedule for one CA configuration.

    Attributes
    ----------
    team_dims:
        Shape of the team grid (teams are numbered row-major over it).
    c:
        Replication factor (number of rows executing the schedule).
    offsets:
        Window offset vectors ``off(u)``; ``len(offsets) = w``.
    zero_index:
        Index ``z`` with ``off(z) == 0``.
    skip:
        ``skip[u]`` is True when position ``u`` must not update (padding or
        wrap-alias of an earlier position).
    """

    team_dims: tuple[int, ...]
    c: int
    offsets: tuple[tuple[int, ...], ...]
    zero_index: int
    skip: tuple[bool, ...]

    # -- derived sizes ------------------------------------------------------

    @property
    def nteams(self) -> int:
        """Total team count (product of the team-grid dimensions)."""
        n = 1
        for d in self.team_dims:
            n *= d
        return n

    @property
    def window(self) -> int:
        """Window length ``w`` (a multiple of ``c``)."""
        return len(self.offsets)

    @property
    def steps(self) -> int:
        """Number of shift-update steps, ``w / c``."""
        return len(self.offsets) // self.c

    # -- team-grid arithmetic ----------------------------------------------------

    def wrap_offset(self, off: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(o % d for o, d in zip(off, self.team_dims))

    def team_multi(self, team: int) -> tuple[int, ...]:
        """Multi-index of a linear team id on the team grid (row-major)."""
        out = []
        for d in reversed(self.team_dims):
            team, r = divmod(team, d)
            out.append(r)
        return tuple(reversed(out))

    def team_linear(self, mi: tuple[int, ...]) -> int:
        """Linear team id of a multi-index, wrapping each coordinate."""
        t = 0
        for x, d in zip(mi, self.team_dims):
            t = t * d + x % d
        return t

    def displace(self, team: int, off: tuple[int, ...]) -> int:
        """Team at ``team``'s multi-index plus ``off`` (wrapped)."""
        mi = self.team_multi(team)
        return self.team_linear(tuple(a + b for a, b in zip(mi, off)))

    # -- schedule queries ---------------------------------------------------------

    def position(self, row: int, i: int) -> int:
        """Window position row ``row``'s buffer occupies after update ``i``.

        ``i = -1`` denotes the post-skew state (before any shift).
        """
        return (self.zero_index + row + self.c * (i + 1)) % self.window

    def holder_of(self, team: int, u: int) -> int:
        """Column that holds team ``team``'s buffer at window position ``u``."""
        neg = tuple(-o for o in self.offsets[u])
        return self.displace(team, neg)

    def visitor_of(self, col: int, u: int) -> int:
        """Team whose buffer column ``col`` holds at window position ``u``."""
        return self.displace(col, self.offsets[u])

    def skew_move(self, row: int) -> tuple[int, ...]:
        """Column displacement applied to a row-``row`` buffer by the skew.

        A buffer moving from position ``u`` to ``u'`` is displaced by
        ``-(off(u') - off(u))`` in column space.
        """
        u0 = self.zero_index
        u1 = (self.zero_index + row) % self.window
        return tuple(a - b for a, b in zip(self.offsets[u0], self.offsets[u1]))

    def step_move(self, row: int, i: int) -> tuple[int, ...]:
        """Column displacement of a row-``row`` buffer at shift step ``i``."""
        u0 = self.position(row, i - 1)
        u1 = self.position(row, i)
        return tuple(a - b for a, b in zip(self.offsets[u0], self.offsets[u1]))

    def update_position(self, row: int, i: int) -> int:
        """Window position used by row ``row``'s update number ``i``."""
        return self.position(row, i)

    # -- global validation (used by tests) ------------------------------------------

    def covered_positions(self, row: int) -> list[int]:
        return [self.position(row, i) for i in range(self.steps)]

    def validate(self) -> None:
        """Check the invariants the algorithms rely on."""
        w = self.window
        require(w % self.c == 0, f"window {w} must be a multiple of c={self.c}")
        require(self.offsets[self.zero_index] == (0,) * len(self.team_dims),
                "zero_index must map to the zero offset")
        seen: set[int] = set()
        for k in range(self.c):
            for u in self.covered_positions(k):
                require(u not in seen, f"position {u} scheduled twice")
                seen.add(u)
        require(len(seen) == w, "schedule does not cover the window")
        # Every non-skipped wrapped offset occurs exactly once.
        wrapped: set[tuple[int, ...]] = set()
        for u in range(w):
            if self.skip[u]:
                continue
            wo = self.wrap_offset(self.offsets[u])
            require(wo not in wrapped, f"wrapped offset {wo} not deduplicated")
            wrapped.add(wo)


def _build(team_dims: tuple[int, ...], c: int,
           physical: list[tuple[int, ...]],
           zero_pos: int) -> ShiftSchedule:
    """Assemble a schedule from the physical offset list, padding to c."""
    w = len(physical)
    pad = (-w) % c
    offsets = list(physical)
    if pad:
        # Continue the enumeration past the end of the last axis: strictly
        # new (unwrapped) offsets that are marked skip if they alias.
        last = physical[-1]
        for j in range(1, pad + 1):
            offsets.append(last[:-1] + (last[-1] + j,))
    skip = []
    seen: set[tuple[int, ...]] = set()
    for idx, off in enumerate(offsets):
        wo = tuple(o % d for o, d in zip(off, team_dims))
        if idx >= w or wo in seen:
            # Padding positions exist only to keep the shifts uniform; they
            # never update.  Wrap-aliases of earlier positions are deduped.
            skip.append(True)
        else:
            seen.add(wo)
            skip.append(False)
    return ShiftSchedule(
        team_dims=team_dims,
        c=c,
        offsets=tuple(offsets),
        zero_index=zero_pos,
        skip=tuple(skip),
    )


def all_pairs_schedule(nteams: int, c: int) -> ShiftSchedule:
    """Algorithm 1's schedule: the window is the full ring of teams.

    With ``c | nteams`` this reproduces the paper exactly: ``nteams/c =
    p/c^2`` shift steps, skew magnitude ``k`` for row ``k``.  Other
    divisors of ``p`` work through padding.
    """
    require(nteams >= 1, "need at least one team")
    require(1 <= c, f"c must be >= 1, got {c}")
    physical = [(u,) for u in range(nteams)]
    return _build((nteams,), c, physical, zero_pos=0)


def half_ring_schedule(nteams: int, c: int) -> ShiftSchedule:
    """Window of the symmetric (Newton's-third-law) all-pairs variant.

    Offsets ``0 .. floor(T/2)``: each unordered team pair appears once,
    so with reaction forces accumulated on the traveling buffer the compute
    volume halves and the shift loop shortens to ~``T/(2c)`` steps.  The
    paper explicitly does *not* apply this optimization ("the force is
    symmetric, but ... we do not apply optimizations to exploit the
    symmetry"); it is implemented here as an extension.

    For even ``T`` the antipodal offset ``T/2`` pairs every column with its
    opposite twice (once from each side); the algorithm engages it only on
    the lower-indexed column.
    """
    require(nteams >= 1, "need at least one team")
    require(c >= 1, f"c must be >= 1, got {c}")
    physical = [(u,) for u in range(nteams // 2 + 1)]
    return _build((nteams,), c, physical, zero_pos=0)


def cutoff_schedule(team_dims: tuple[int, ...], m: tuple[int, ...], c: int) -> ShiftSchedule:
    """Algorithm 2's schedule (any dimension): window of offsets within
    ``m`` cells per axis, linearized row-major as the paper's Section IV-C
    recommends ("linearize the high-dimensional space, calculate shifts in
    1D, and map the pattern back").

    The physical window is ``prod(2 m_k + 1)`` offset vectors; positions
    whose wrapped offset aliases an earlier one (small grids, padding) are
    marked ``skip``.
    """
    require(len(team_dims) == len(m), "m must give a span per team dimension")
    for mk in m:
        require(mk >= 0, f"cutoff span must be >= 0, got {m}")
    ranges = [range(-mk, mk + 1) for mk in m]
    physical = [tuple(v) for v in product(*ranges)]
    zero_pos = physical.index((0,) * len(team_dims))
    return _build(tuple(team_dims), c, physical, zero_pos)
