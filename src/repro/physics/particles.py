"""Particle containers: structure-of-arrays sets and message blocks.

Three container kinds appear throughout the algorithms:

* :class:`ParticleSet` — positions, velocities and global ids for a set of
  particles (the simulation state a team owns);
* :class:`HomeBlock` — a team's particle block plus its force accumulator
  (the thing the CA algorithms update and sum-reduce);
* :class:`TravelBlock` — the position+id payload that moves through the
  exchange buffers during skew/shift steps.

All wire sizes are accounted at the paper's measured **52 bytes per
particle** via the ``wire_nbytes`` attribute the simulated-MPI payload
accounting looks for.  (52 bytes matches a C struct of 2-D position,
velocity, force as floats/doubles plus an id; we keep the constant itself
authoritative since message volume is what the model cares about.)

The :class:`VirtualBlock` twin carries only a particle *count*; it lets the
same algorithm code run in "modeled" mode at the paper's 24K-core scales
where materializing real particle data per rank would be pointless;
``RunSpec(particles=PhantomSet(n, dim))`` selects that mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machines.base import PARTICLE_BYTES
from repro.util import default_rng, require

__all__ = [
    "HomeBlock",
    "ParticleSet",
    "PhantomSet",
    "TravelBlock",
    "VirtualBlock",
    "concat_sets",
]


@dataclass
class ParticleSet:
    """A set of particles in d-dimensional space (structure of arrays)."""

    pos: np.ndarray  # (n, d) float64
    vel: np.ndarray  # (n, d) float64
    ids: np.ndarray  # (n,) int64, globally unique

    def __post_init__(self):
        self.pos = np.ascontiguousarray(self.pos, dtype=np.float64)
        self.vel = np.ascontiguousarray(self.vel, dtype=np.float64)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        require(self.pos.ndim == 2, "pos must be (n, d)")
        require(self.vel.shape == self.pos.shape, "vel must match pos shape")
        require(self.ids.shape == (self.pos.shape[0],), "ids must be (n,)")
        require(bool(np.isfinite(self.pos).all()), "positions must be finite")
        require(bool(np.isfinite(self.vel).all()), "velocities must be finite")

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return self.pos.shape[0]

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    @property
    def dim(self) -> int:
        return self.pos.shape[1]

    @property
    def wire_nbytes(self) -> int:
        """Bytes on the simulated wire (52 per particle, as in the paper)."""
        return PARTICLE_BYTES * self.n

    # -- construction -----------------------------------------------------------

    @staticmethod
    def uniform_random(
        n: int,
        dim: int,
        box_length: float,
        *,
        max_speed: float = 0.0,
        seed=None,
        id_offset: int = 0,
    ) -> "ParticleSet":
        """Particles uniform in ``[0, box_length]^dim``; speeds uniform in
        ``[-max_speed, max_speed]`` per component."""
        rng = default_rng(seed)
        pos = rng.uniform(0.0, box_length, size=(n, dim))
        if max_speed > 0:
            vel = rng.uniform(-max_speed, max_speed, size=(n, dim))
        else:
            vel = np.zeros((n, dim))
        ids = np.arange(id_offset, id_offset + n, dtype=np.int64)
        return ParticleSet(pos, vel, ids)

    @staticmethod
    def empty(dim: int) -> "ParticleSet":
        return ParticleSet(
            np.empty((0, dim)), np.empty((0, dim)), np.empty((0,), dtype=np.int64)
        )

    # -- manipulation -------------------------------------------------------------

    def subset(self, index) -> "ParticleSet":
        """A copy restricted to ``index`` (any NumPy fancy index)."""
        return ParticleSet(self.pos[index].copy(), self.vel[index].copy(),
                           self.ids[index].copy())

    def copy(self) -> "ParticleSet":
        return ParticleSet(self.pos.copy(), self.vel.copy(), self.ids.copy())

    def detached(self) -> "ParticleSet":
        """A set owning private ``pos``/``vel`` copies, sharing ``ids``.

        The copy-on-write half of the zero-copy payload protocol: travel
        blocks and broadcast home blocks alias a leader's arrays by
        reference, so before a rank mutates positions or velocities in
        place (integration, boundary handling) it must detach its storage.
        Ids are immutable for a particle's lifetime and stay shared.
        """
        return ParticleSet(self.pos.copy(), self.vel.copy(), self.ids)

    def sorted_by_id(self) -> "ParticleSet":
        """A copy ordered by ascending particle id (stable)."""
        order = np.argsort(self.ids, kind="stable")
        return self.subset(order)


def concat_sets(sets: list[ParticleSet]) -> ParticleSet:
    """Concatenate particle sets (dimensions must agree)."""
    sets = [s for s in sets if len(s) > 0]
    if not sets:
        raise ValueError("cannot concatenate zero non-empty particle sets")
    return ParticleSet(
        np.concatenate([s.pos for s in sets]),
        np.concatenate([s.vel for s in sets]),
        np.concatenate([s.ids for s in sets]),
    )


@dataclass
class TravelBlock:
    """Exchange-buffer payload: positions + ids of one team block.

    The symmetric (Newton's-third-law) algorithm variant additionally
    carries a reaction-force accumulator with the buffer; its bytes are
    charged on the wire.
    """

    pos: np.ndarray  # (n, d)
    ids: np.ndarray  # (n,)
    #: Index of the team that owns these particles (set by the algorithms;
    #: used for the cutoff window skip test).
    team: int = -1
    #: Accumulated reactions on these particles (symmetric variant only).
    forces: np.ndarray | None = None

    def __len__(self) -> int:
        return self.pos.shape[0]

    @property
    def wire_nbytes(self) -> int:
        """Bytes on the wire: particle words plus any reaction buffer."""
        n = self.pos.shape[0]
        extra = 0 if self.forces is None else self.forces.shape[1] * 8 * n
        return PARTICLE_BYTES * n + extra


@dataclass
class HomeBlock:
    """A team's particle block with its force accumulator."""

    particles: ParticleSet
    forces: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.forces is None:
            self.forces = np.zeros_like(self.particles.pos)
        require(
            self.forces.shape == self.particles.pos.shape,
            "forces must match particle positions in shape",
        )

    def __len__(self) -> int:
        return len(self.particles)

    @property
    def wire_nbytes(self) -> int:
        return self.particles.wire_nbytes

    def zero_forces(self) -> None:
        self.forces[:] = 0.0


@dataclass
class VirtualBlock:
    """A block of ``count`` phantom particles (modeled mode).

    Carries no coordinates — only the size needed for wire accounting and
    pair-count cost charging.  ``team`` mirrors :class:`TravelBlock`;
    ``extra_bytes`` models additional per-particle payload (the symmetric
    variant's traveling reaction forces).
    """

    count: int
    team: int = -1
    extra_bytes: int = 0

    def __len__(self) -> int:
        return self.count

    @property
    def wire_nbytes(self) -> int:
        return (PARTICLE_BYTES + self.extra_bytes) * self.count


@dataclass(frozen=True)
class PhantomSet:
    """A workload of ``n`` phantom particles in ``dim`` dimensions.

    As ``RunSpec(particles=...)`` it runs ``allpairs``, ``cutoff`` or
    ``symmetric`` over :class:`VirtualBlock` s: same traffic, modeled
    timing, no forces.  ``dim`` sizes force payloads and, unless
    ``RunSpec.dim`` is set, ``cutoff``'s team grid.
    """

    n: int
    dim: int = 2

    def __post_init__(self):
        require(self.n >= 0, f"phantom count must be >= 0, got {self.n}")
        require(self.dim >= 1, f"phantom dim must be >= 1, got {self.dim}")

    def __len__(self) -> int:
        return self.n
