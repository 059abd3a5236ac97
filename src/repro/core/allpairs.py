"""Algorithm 1: the communication-avoiding all-pairs N-body step.

The convenience layer: build the configuration for ``(p, c)``, distribute
particles, run one interaction step on a machine, and hand back globally
ordered forces.  At ``c = 1`` the configuration degenerates into Plimpton's
particle decomposition (a systolic ring); at ``c = sqrt(p)`` into his force
decomposition — exactly as the paper observes.

The algorithm is a registered adapter over the single run pipeline
(:mod:`repro.core.runner`), launched as
``run(RunSpec(machine=m, algorithm="allpairs", particles=ps, c=c))``; a
``PhantomSet(n, dim)`` in ``particles`` runs it in modeled mode.
"""

from __future__ import annotations

from repro.core.ca_step import CAConfig, ca_program
from repro.core.runner import Prepared, RunSpec, register_algorithm, team_setup
from repro.core.window import all_pairs_schedule
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
    """All-pairs forces over real or phantom particles.

    The workload is divided evenly among team leaders, every rank runs
    :func:`~repro.core.ca_step.ca_interaction_step`, and the per-team
    leader forces are collected and ordered by particle id.  With a
    :class:`~repro.simmpi.faults.FaultSchedule` the resilient step variant
    runs instead: rank deaths are absorbed by replication-aware recovery
    (``c >= 2`` required for kills) and forces are collected from each
    team's acting leader.
    """
    cfg = allpairs_config(spec.machine.nranks, spec.c, layout=spec.layout)
    _, blocks, kernel, collect = team_setup(spec, cfg)
    return Prepared(
        program=ca_program(cfg, kernel, blocks,
                           resilient=spec.faults is not None),
        collect=collect,
    )
