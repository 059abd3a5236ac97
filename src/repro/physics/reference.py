"""Serial reference implementations the distributed algorithms are tested
against.

These compute the same physics with the simplest possible O(n^2) logic; any
(p, c) configuration of any distributed algorithm must match them to
floating-point tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.physics.forces import ForceLaw, _dense_forces
from repro.physics.particles import ParticleSet

__all__ = ["reference_forces", "reference_pair_matrix"]


def reference_forces(law: ForceLaw, particles: ParticleSet) -> np.ndarray:
    """Exact forces on every particle, ordered by the set's current order.

    Runs the dense kernel on its allocating path, never the public
    (candidate-pruning, scratch-pooling) entry point, so the fast paths are
    always checked against an independent evaluation of every pair.
    """
    pos, ids = particles.pos, particles.ids
    forces = np.zeros(pos.shape, dtype=np.float64)
    _dense_forces(law, pos, pos, ids, ids, forces, pair_counter=None,
                  reaction_out=None, half=False, pair_mask=None,
                  scratch=False)
    return forces


def reference_pair_matrix(law: ForceLaw, particles: ParticleSet) -> np.ndarray:
    """The (n, n) 0/1 matrix of ordered pairs a correct run must accumulate.

    Entry ``[i, j]`` (global ids) is 1 when ``i != j`` and — with a cutoff —
    the pair lies within ``rcut``; such pairs must be computed exactly once.
    Pairs beyond the cutoff must never contribute; the coverage tests allow
    them to be *scanned* zero or one time (a scan beyond ``rcut``
    contributes zero force, matching the paper's "constant or zero effect"
    semantics), which is recorded separately by the kernels.
    """
    n = len(particles)
    order = np.argsort(particles.ids, kind="stable")
    pos = particles.pos[order]
    expected = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(expected, 0)
    if law.rcut is not None:
        dr = pos[:, None, :] - pos[None, :, :]
        if law.box is not None:
            dr -= law.box * np.round(dr / law.box)  # minimum image
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        expected &= (r2 <= law.rcut * law.rcut).astype(np.int64)
        np.fill_diagonal(expected, 0)
    return expected
