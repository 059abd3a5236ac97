"""Machine models: network + compute cost parameters for the simulations.

Two concrete supercomputer models mirror the paper's platforms —
:func:`Hopper` (Cray XE-6, Gemini 3-D torus) and :func:`Intrepid`
(BlueGene/P, 3-D torus plus dedicated collective tree network) — alongside
generic flat/torus machines for tests and laptop-scale runs.
"""

from repro.machines.base import PARTICLE_BYTES, MachineModel, TorusMachine
from repro.machines.generic import GenericMachine, GenericTorus, InstantMachine
from repro.machines.hopper import HOPPER_CORES_PER_NODE, Hopper
from repro.machines.intrepid import (
    INTREPID_CORES_PER_NODE,
    Intrepid,
    IntrepidMachine,
)
from repro.machines.torus import Torus, balanced_dims

__all__ = [
    "HOPPER_CORES_PER_NODE",
    "Hopper",
    "INTREPID_CORES_PER_NODE",
    "InstantMachine",
    "Intrepid",
    "IntrepidMachine",
    "GenericMachine",
    "GenericTorus",
    "MachineModel",
    "PARTICLE_BYTES",
    "Torus",
    "TorusMachine",
    "balanced_dims",
    "node_cores",
]

#: Node sizes per machine model, largest (the model's own) first.
_NODE_SIZES = {
    "hopper": (HOPPER_CORES_PER_NODE, 12, 8, 6, 4, 2, 1),
    "intrepid": (INTREPID_CORES_PER_NODE, 1),
}


def node_cores(name: str, p: int) -> int:
    """The largest node size of machine model ``name`` (Hopper 24..1,
    Intrepid and any other torus 4 or 1) that ``p`` ranks fill exactly,
    so every positive rank count builds."""
    sizes = _NODE_SIZES.get(name, (4, 1))
    return next(c for c in sizes if p % c == 0)
