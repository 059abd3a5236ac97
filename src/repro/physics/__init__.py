"""Particle physics substrate: containers, force kernels, integration,
boundaries, spatial decomposition, and serial references.

This reproduces the paper's test problem — particles in a box with
reflective walls, interacting through a repulsive inverse-square force,
optionally truncated at a cutoff radius — plus the plumbing the distributed
algorithms need (home/travel/virtual blocks and pluggable interaction
kernels).
"""

from repro.physics.boundary import reflect, wrap_periodic
from repro.physics.domain import TeamGeometry, team_of_positions, weighted_geometry
from repro.physics.forces import (
    ForceLaw,
    clear_scratch,
    pairwise_forces,
    potential_energy,
)
from repro.physics.integrators import drift, euler_step, kick, kinetic_energy
from repro.physics.io import (
    Checkpoint,
    CheckpointError,
    SnapshotError,
    load_checkpoint,
    load_particles,
    save_checkpoint,
    save_particles,
)
from repro.physics.kernels import RealKernel, VirtualForces, VirtualKernel
from repro.physics.particles import (
    HomeBlock,
    ParticleSet,
    PhantomSet,
    TravelBlock,
    VirtualBlock,
    concat_sets,
)
from repro.physics.reference import reference_forces, reference_pair_matrix
from repro.physics.workloads import (
    density_gradient,
    gaussian_clusters,
    plummer_sphere,
    two_phase,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ForceLaw",
    "HomeBlock",
    "ParticleSet",
    "PhantomSet",
    "RealKernel",
    "SnapshotError",
    "TeamGeometry",
    "TravelBlock",
    "VirtualBlock",
    "VirtualForces",
    "VirtualKernel",
    "concat_sets",
    "density_gradient",
    "drift",
    "euler_step",
    "gaussian_clusters",
    "kick",
    "kinetic_energy",
    "load_checkpoint",
    "load_particles",
    "save_checkpoint",
    "save_particles",
    "clear_scratch",
    "pairwise_forces",
    "plummer_sphere",
    "potential_energy",
    "reference_forces",
    "reference_pair_matrix",
    "reflect",
    "team_of_positions",
    "two_phase",
    "weighted_geometry",
    "wrap_periodic",
]
