"""The systolic / hyper-systolic algorithm family — registry extensions.

Three classic communication schedules from the N-body literature, built
directly on the shared communication-schedule IR
(:mod:`repro.core.commsched`) and registered as first-class algorithms:

* ``systolic_ring`` — the standard systolic loop (Dorband, Hemsendorf &
  Merritt, astro-ph/0112092): one exchange buffer circulates the full
  ring, every processor computes against each visiting block.
  ``S = p - 1`` messages, ``W ~ n (p-1)/p`` words per rank.
* ``half_systolic`` — the half-ring variant exploiting Newton's third
  law: the buffer carries a reaction accumulator, travels ``floor(p/2)``
  hops, and one return message carries the reactions home.
  ``S = floor(p/2) + 1``, half the compute.
* ``hyper_systolic`` — Lippert et al.'s hyper-systolic routing
  (hep-lat/9512020): ``K - 1 = O(sqrt(p))`` replicated registers are
  filled by a distribution cascade, every ring distance is computed
  between two *resident* registers, and a collection cascade folds the
  partial forces home.  ``S = 2 (K - 1)`` messages moving
  ``O(sqrt(p) n / p)`` words per rank — the same replication-for-
  bandwidth trade the source paper's ``c`` explores, reached with a
  different schedule.

All three run at ``c = 1`` (every rank is its own team leader — no
broadcast or reduction phases); ``hyper_systolic`` instead spends its
memory on the ``K - 1`` registers, tunable via ``RunSpec.hyper_k``
(``None`` picks the regular ``O(sqrt(p))`` base).  Transient fault
schedules are absorbed by the engine's retry protocol; rank kills are
rejected (the ring has no replication to recover from).
Closed forms live in :mod:`repro.theory.costs`; the heuristic tier
replays the identical IR (:mod:`repro.simmpi.fastsim`).
"""

from __future__ import annotations

from repro.core.commsched import (
    half_systolic_rounds,
    hyper_systolic_rounds,
    scheduled_program,
    systolic_ring_rounds,
)
from repro.core.decomposition import collect_leader_forces, team_blocks_even
from repro.core.runner import Prepared, RunSpec, register_algorithm
from repro.physics.kernels import kernel_for
from repro.simmpi.topology import ReplicatedGrid

__all__: list[str] = []


def _prepare(spec: RunSpec, cs) -> Prepared:
    """Shared adapter body: grid, kernel, blocks, scheduled program."""
    grid = ReplicatedGrid(p=spec.machine.nranks, c=1)
    kernel = kernel_for(spec.law, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_even(spec.workload(), grid.nteams)

    def collect(run):
        """Gather per-rank leader forces into id-ordered global arrays."""
        return collect_leader_forces(run.results, grid)

    return Prepared(program=scheduled_program(grid, cs, kernel, blocks),
                    collect=collect)


@register_algorithm(
    "systolic_ring",
    supports_c=False,
    summary="systolic ring: one buffer circulates all p ranks "
            "(Dorband et al.)",
)
def _prepare_systolic_ring(spec: RunSpec) -> Prepared:
    """Adapter for the full systolic ring."""
    return _prepare(spec, systolic_ring_rounds(spec.machine.nranks))


@register_algorithm(
    "half_systolic",
    supports_c=False,
    summary="half-ring systolic with Newton's-third-law reactions "
            "returned home",
)
def _prepare_half_systolic(spec: RunSpec) -> Prepared:
    """Adapter for the half-ring systolic variant."""
    return _prepare(spec, half_systolic_rounds(spec.machine.nranks))


@register_algorithm(
    "hyper_systolic",
    supports_c=False,
    summary="hyper-systolic: K=O(sqrt p) replicated registers, "
            "O(sqrt p * n/p) words (Lippert et al.)",
)
def _prepare_hyper_systolic(spec: RunSpec) -> Prepared:
    """Adapter for the hyper-systolic schedule (``spec.hyper_k`` = K)."""
    return _prepare(
        spec, hyper_systolic_rounds(spec.machine.nranks, spec.hyper_k))
