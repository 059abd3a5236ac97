"""Spatial decomposition of the simulation box among teams.

Section IV of the paper assumes "a spatial decomposition of particles among
teams, i.e. each team is responsible for the particles in a particular
region of the simulation space".  This module defines that region grid:

* the box ``[0, L]^d`` is divided into a ``team_dims`` grid of equal
  axis-aligned cells, one per team;
* teams are numbered row-major over ``team_dims`` (matching the window
  linearization in :mod:`repro.core.window`);
* :func:`team_of_positions` bins particles to teams, and
  :meth:`TeamGeometry.team_distance_ok` answers whether two team regions
  can contain interacting particles under a cutoff radius — the test the
  algorithms use to skip physically-impossible block pairs (the source of
  the boundary load imbalance the paper reports, since the box is *not*
  periodic).  :meth:`TeamGeometry.reachability` precomputes the same test
  for every team pair; the algorithms build it once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import require

__all__ = ["Reachability", "TeamGeometry", "team_of_positions",
           "weighted_geometry"]


@dataclass(frozen=True)
class TeamGeometry:
    """Tensor-grid decomposition of ``[0, box_length]^dim`` into teams.

    By default the cells are equal (the paper's decomposition, load-
    balanced for its uniform particle distributions).  ``edges`` overrides
    the per-axis cell boundaries — the *weighted* extension: boundaries
    placed at particle quantiles keep team populations even under
    non-uniform distributions (see :func:`weighted_geometry`).

    ``periodic=True`` switches to a periodic box (the reproduction's
    extension): region distances use the wrap-around gap, so teams at
    opposite walls become neighbors and every team has the full window —
    removing the boundary load imbalance the paper attributes its cutoff
    inefficiency to.  Periodic boxes require equal cells.
    """

    box_length: float
    team_dims: tuple[int, ...]
    periodic: bool = False
    #: Optional per-axis cell boundaries; ``edges[k]`` has ``team_dims[k]
    #: + 1`` ascending values from 0 to ``box_length``.
    edges: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        require(self.box_length > 0, "box_length must be positive")
        require(len(self.team_dims) >= 1, "team_dims must be non-empty")
        for d in self.team_dims:
            require(d >= 1, f"team grid dims must be >= 1, got {self.team_dims}")
        if self.edges is not None:
            require(not self.periodic,
                    "weighted (non-uniform) cells require a non-periodic box")
            require(len(self.edges) == len(self.team_dims),
                    "edges must give boundaries for every axis")
            for e, d in zip(self.edges, self.team_dims):
                require(len(e) == d + 1,
                        f"axis with {d} cells needs {d + 1} boundaries")
                require(abs(e[0]) < 1e-12 and abs(e[-1] - self.box_length) < 1e-9,
                        "boundaries must span [0, box_length]")
                require(all(b > a for a, b in zip(e, e[1:])),
                        "boundaries must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.team_dims)

    @property
    def nteams(self) -> int:
        """Total team count (product of the team-grid dimensions)."""
        n = 1
        for d in self.team_dims:
            n *= d
        return n

    @property
    def cell_widths(self) -> tuple[float, ...]:
        """Equal-cell widths; undefined for weighted geometries."""
        require(self.edges is None,
                "cell_widths is only defined for equal-cell geometries")
        return tuple(self.box_length / d for d in self.team_dims)

    def axis_edges(self, k: int) -> np.ndarray:
        """Cell boundaries along axis ``k``."""
        if self.edges is not None:
            return np.asarray(self.edges[k])
        d = self.team_dims[k]
        return np.linspace(0.0, self.box_length, d + 1)

    # -- indexing -------------------------------------------------------------

    def multi_index(self, team: int) -> tuple[int, ...]:
        """Row-major multi-index of linear team id."""
        require(0 <= team < self.nteams, f"team {team} out of range")
        out = []
        for d in reversed(self.team_dims):
            team, r = divmod(team, d)
            out.append(r)
        return tuple(reversed(out))

    def linear_index(self, mi: tuple[int, ...]) -> int:
        """Linear team id of a multi-index (row-major; range-checked)."""
        team = 0
        for x, d in zip(mi, self.team_dims):
            require(0 <= x < d, f"multi-index {mi} out of range for {self.team_dims}")
            team = team * d + x
        return team

    def region_bounds(self, team: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corner arrays of the team's cell."""
        mi = self.multi_index(team)
        lo = np.array([self.axis_edges(k)[x] for k, x in enumerate(mi)])
        hi = np.array([self.axis_edges(k)[x + 1] for k, x in enumerate(mi)])
        return lo, hi

    # -- cutoff geometry -----------------------------------------------------------

    def spanned_cells(self, rcut: float) -> tuple[int, ...]:
        """Per-dimension count ``m`` of neighbor cells a cutoff radius spans.

        This is the paper's ``m`` (Equation 6, ``r_c / l = m c / p`` i.e.
        ``m = r_c / cell_width``): interactions reach at most ``m`` cells
        away along each axis.  Never less than 1 — adjacent cells share a
        face, so arbitrarily close cross-cell pairs always exist.

        Weighted geometries take the worst case over cells: the largest
        index distance between two cells whose gap is within ``rcut``.
        """
        if self.edges is None:
            return tuple(
                max(1, int(np.ceil(rcut / w - 1e-12)))
                for w in self.cell_widths
            )
        spans = []
        for k, d in enumerate(self.team_dims):
            e = self.axis_edges(k)
            m = 1
            for i in range(d):
                for j in range(i + 1, d):
                    gap = e[j] - e[i + 1]  # space between cells i and j
                    if gap <= rcut + 1e-12:
                        m = max(m, j - i)
            spans.append(m)
        return tuple(spans)

    def team_distance_ok(self, a: int, b: int, rcut: float) -> bool:
        """Can particles in teams ``a`` and ``b`` lie within ``rcut``?

        Uses the exact minimum distance between the two axis-aligned cells
        (zero when they touch).  Without ``periodic``, the paper's setting:
        teams on opposite walls are genuinely far apart.  With ``periodic``,
        the per-axis gap is the wrap-around cell gap (minimum image).
        """
        if not self.periodic:
            alo, ahi = self.region_bounds(a)
            blo, bhi = self.region_bounds(b)
            gap = np.maximum(0.0, np.maximum(blo - ahi, alo - bhi))
            return bool(gap @ gap <= rcut * rcut + 1e-12)
        ma, mb = self.multi_index(a), self.multi_index(b)
        gap2 = 0.0
        for xa, xb, d, w in zip(ma, mb, self.team_dims, self.cell_widths):
            delta = abs(xa - xb)
            delta = min(delta, d - delta)  # wrap-around cell separation
            gap2 += (max(delta - 1, 0) * w) ** 2
        return bool(gap2 <= rcut * rcut + 1e-12)

    def reachability(self, rcut: float) -> "Reachability":
        """:meth:`team_distance_ok` for every team pair, set up once.

        Stores each team's per-axis cell index and the axis boundaries,
        ``O(T)`` memory — never a ``T x T`` matrix (the paper-scale
        figures use up to 24576 teams).
        """
        return Reachability(
            index=tuple(np.unravel_index(np.arange(self.nteams),
                                         self.team_dims)),
            edges=tuple(self.axis_edges(k) for k in range(self.dim)),
            widths=self.cell_widths if self.periodic else None,
            limit=rcut * rcut + 1e-12,
        )

    def neighbors(self, rcut: float) -> list[list[int]]:
        """Per team, the other teams within ``rcut`` (ascending ids)."""
        reach = self.reachability(rcut)
        teams = np.arange(self.nteams)
        out = []
        for a in range(self.nteams):
            row = reach(a, teams)
            row[a] = False
            out.append(np.flatnonzero(row).tolist())
        return out


@dataclass(frozen=True, eq=False)
class Reachability:
    """Which team pairs can hold particles within a cutoff radius.

    Built by :meth:`TeamGeometry.reachability`; ``reach(a, b)`` gives the
    same decisions as ``geometry.team_distance_ok(a, b, rcut)`` (the same
    per-axis cell gaps and ``1e-12`` slack), for scalar team ids or for
    broadcastable id arrays.
    """

    #: Per axis, each team's cell index.
    index: tuple[np.ndarray, ...]
    #: Per axis, the cell boundaries.
    edges: tuple[np.ndarray, ...]
    #: Equal cell widths of a periodic box (wrap-around gaps); ``None``
    #: for an open box.
    widths: tuple[float, ...] | None
    #: ``rcut**2`` plus the slack.
    limit: float

    def __call__(self, a, b):
        gap2 = 0.0
        for k, (idx, e) in enumerate(zip(self.index, self.edges)):
            i, j = idx[a], idx[b]
            if self.widths is None:
                gap = np.maximum(0.0, np.maximum(e[j] - e[i + 1],
                                                 e[i] - e[j + 1]))
            else:
                d = len(e) - 1
                delta = np.abs(i - j)
                delta = np.minimum(delta, d - delta)
                gap = np.maximum(delta - 1, 0) * self.widths[k]
            gap2 = gap2 + gap * gap
        return gap2 <= self.limit


def team_of_positions(
    pos: np.ndarray, geometry: TeamGeometry
) -> np.ndarray:
    """Linear team id owning each position (positions must lie in the box).

    When the geometry has fewer dimensions than the positions (slab/pencil
    decompositions — e.g. 1-D team regions of a 2-D simulation), binning
    uses the leading coordinates.
    """
    dims = np.array(geometry.team_dims)
    team = np.zeros(pos.shape[0], dtype=np.int64)
    for k in range(len(dims)):
        edges = geometry.axis_edges(k)
        cell = np.searchsorted(edges, pos[:, k], side="right") - 1
        # Points exactly on the upper wall belong to the last cell.
        np.clip(cell, 0, dims[k] - 1, out=cell)
        team = team * dims[k] + cell
    return team


def weighted_geometry(
    particles, team_dims: tuple[int, ...], box_length: float
) -> TeamGeometry:
    """Equal-*count* decomposition: boundaries at per-axis quantiles.

    The paper keeps its particle distribution "nearly uniform" so equal
    cells stay balanced; this extension re-balances non-uniform
    distributions by placing each axis's cell boundaries at quantiles of
    the particle coordinates (exact balance for 1-D slabs, marginal
    balance for tensor grids).
    """
    edges = []
    for k, d in enumerate(team_dims):
        qs = np.quantile(particles.pos[:, k], np.linspace(0, 1, d + 1))
        qs[0], qs[-1] = 0.0, box_length
        # Enforce strict monotonicity for degenerate quantiles.
        for i in range(1, d + 1):
            if qs[i] <= qs[i - 1]:
                qs[i] = np.nextafter(qs[i - 1], np.inf)
        edges.append(tuple(float(x) for x in qs))
    return TeamGeometry(box_length=box_length, team_dims=tuple(team_dims),
                        edges=tuple(edges))
