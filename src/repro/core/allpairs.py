"""Algorithm 1: the communication-avoiding all-pairs N-body step.

The convenience layer: build the configuration for ``(p, c)``, distribute
particles, run one interaction step on a machine, and hand back globally
ordered forces.  At ``c = 1`` the configuration degenerates into Plimpton's
particle decomposition (a systolic ring); at ``c = sqrt(p)`` into his force
decomposition — exactly as the paper observes.

Both variants are registered adapters over the single run pipeline
(:mod:`repro.core.runner`), launched as
``run(RunSpec(machine=m, algorithm="allpairs", particles=ps, c=c))`` or
``run(RunSpec(machine=m, algorithm="allpairs_virtual", n=n, c=c))``.
"""

from __future__ import annotations

from repro.core.ca_step import CAConfig, ca_program
from repro.core.decomposition import (
    collect_leader_forces,
    team_blocks_even,
    virtual_team_blocks,
)
from repro.core.runner import Prepared, RunSpec, register_algorithm
from repro.core.window import all_pairs_schedule
from repro.physics.kernels import VirtualKernel, kernel_for
from repro.simmpi.engine import RunResult
from repro.simmpi.topology import ReplicatedGrid

__all__ = ["allpairs_config"]


def allpairs_config(p: int, c: int, *, layout: str = "rows") -> CAConfig:
    """CA all-pairs configuration for ``p`` processors, replication ``c``.

    ``c`` must divide ``p``; any such ``c`` is legal (the schedule pads
    when ``c`` does not divide the team count ``p/c``).  ``layout`` picks
    the grid's rank mapping (see
    :class:`~repro.simmpi.topology.ReplicatedGrid`).
    """
    grid = ReplicatedGrid(p=p, c=c, layout=layout)
    schedule = all_pairs_schedule(grid.nteams, c)
    return CAConfig(grid=grid, schedule=schedule)


@register_algorithm(
    "allpairs",
    fault_mode="kills",
    summary="Algorithm 1: CA all-pairs with replication factor c",
)
def _prepare_allpairs(spec: RunSpec) -> Prepared:
    """All-pairs forces, functional end to end.

    The particle set is divided evenly among team leaders, every rank runs
    :func:`~repro.core.ca_step.ca_interaction_step`, and the per-team
    leader forces are collected and ordered by particle id.  With a
    :class:`~repro.simmpi.faults.FaultSchedule` the resilient step variant
    runs instead: rank deaths are absorbed by replication-aware recovery
    (``c >= 2`` required for kills) and forces are collected from each
    team's acting leader.
    """
    cfg = allpairs_config(spec.machine.nranks, spec.c, layout=spec.layout)
    kernel = kernel_for(spec.law, pair_counter=spec.pair_counter,
                        scratch=spec.scratch, metrics=spec.metrics)
    blocks = team_blocks_even(spec.workload(), cfg.grid.nteams)

    def collect(run: RunResult):
        return collect_leader_forces(run.results, cfg.grid,
                                     dead=frozenset(run.deaths))

    return Prepared(
        program=ca_program(cfg, kernel, blocks,
                           resilient=spec.faults is not None),
        collect=collect,
    )


@register_algorithm(
    "allpairs_virtual",
    functional=False,
    fault_mode="kills",
    summary="Modeled CA all-pairs: phantom blocks, machine-model timing",
)
def _prepare_allpairs_virtual(spec: RunSpec) -> Prepared:
    """Phantom particles, real communication structure, machine-model
    timing; the trace report carries the per-phase breakdown."""
    cfg = allpairs_config(spec.machine.nranks, spec.c, layout=spec.layout)
    kernel = VirtualKernel(dim=2 if spec.dim is None else spec.dim)
    blocks = virtual_team_blocks(spec.count(), cfg.grid.nteams)
    return Prepared(program=ca_program(cfg, kernel, blocks,
                                       resilient=spec.faults is not None))
