"""The symmetric (Newton's-third-law) all-pairs variant — an extension.

The paper notes of its force kernel: "The force is symmetric, but it need
not be and we do not apply optimizations to exploit the symmetry."  This
module implements that optimization within the CA framework:

* the exchange buffers traverse only *half* the team ring
  (:func:`~repro.core.window.half_ring_schedule`), so the shift loop is
  ~``T/(2c)`` steps instead of ``T/c``;
* each block-pair visit computes every pair once, accumulating the force
  on the home copy and the **reaction** (``-F``) on the traveling buffer;
* the home block's self-interactions are evaluated over the upper triangle
  only (``i < j``), both sides accumulated locally;
* after the loop each buffer carries the reactions for its home team; one
  extra point-to-point message per rank returns them, and the usual
  in-team sum-reduction completes the forces.

Costs: computation halves (n^2/2 pair evaluations in total); the shift
volume carries d extra doubles per particle but over half the steps, so
bandwidth also drops.  The exactly-once coverage invariant still holds —
the pair counter records both directions of each evaluated pair, and the
tests check it equals the all-ones reference exactly.
"""

from __future__ import annotations

from repro.core.ca_step import CAConfig
from repro.core.commsched import rounds_for_schedule, scheduled_step
from repro.core.runner import Prepared, RunSpec, register_algorithm, team_setup
from repro.core.window import half_ring_schedule
from repro.simmpi.topology import ReplicatedGrid

__all__ = ["ca_symmetric_step", "symmetric_config"]


def symmetric_config(p: int, c: int) -> CAConfig:
    """Configuration of the symmetric all-pairs variant for (p, c)."""
    grid = ReplicatedGrid(p=p, c=c)
    schedule = half_ring_schedule(grid.nteams, c)
    return CAConfig(grid=grid, schedule=schedule)


def ca_symmetric_step(comm, cfg: CAConfig, kernel, leader_block):
    """One symmetric CA interaction step (generator program).

    Same phases as :func:`~repro.core.ca_step.ca_interaction_step`, plus a
    ``return`` phase sending each buffer's accumulated reactions back to
    its home column.  The half-ring schedule is lowered once (cached) via
    :func:`repro.core.commsched.rounds_for_schedule` with
    ``symmetric=True`` — which bakes the self/antipode special cases into
    per-row update modes — and executed by the shared
    :func:`repro.core.commsched.scheduled_step`.
    """
    cs = rounds_for_schedule(cfg.schedule, symmetric=True)
    result = yield from scheduled_step(comm, cfg.grid, cs, kernel,
                                       leader_block)
    return result


def _symmetric_program(cfg: CAConfig, kernel, blocks):
    def program(comm):
        col = cfg.grid.col_of(comm.rank)
        leader_block = blocks[col] if cfg.grid.row_of(comm.rank) == 0 else None
        result = yield from ca_symmetric_step(comm, cfg, kernel, leader_block)
        return result

    return program


@register_algorithm(
    "symmetric",
    summary="CA all-pairs with Newton's-third-law symmetry (half ring)",
)
def _prepare_symmetric(spec: RunSpec) -> Prepared:
    cfg = symmetric_config(spec.machine.nranks, spec.c)
    _, blocks, kernel, collect = team_setup(spec, cfg)
    return Prepared(program=_symmetric_program(cfg, kernel, blocks),
                    collect=collect)
