"""Algorithm 2 and its multi-dimensional generalization: CA interactions
with a finite cutoff radius.

Teams own spatial regions of the box (1-D slabs, 2-D tiles, ...); the shift
schedule walks the cutoff window (all team offsets within ``m`` cells per
axis, Equation 6) instead of the full ring, and block pairs whose regions
cannot contain interacting particles are pruned — including pairs that the
window's ring arithmetic wraps across the (reflective, non-periodic) box
boundary.  That pruning is what creates the boundary load imbalance the
paper reports for its cutoff experiments.

The algorithm is a registered adapter over the single run pipeline
(:mod:`repro.core.runner`), launched as ``run(RunSpec(machine=m,
algorithm="cutoff", particles=ps, c=c, rcut=r, box_length=L))``; a
``PhantomSet(n, dim)`` in ``particles`` runs it in modeled mode.
"""

from __future__ import annotations

from repro.core.ca_step import CAConfig, ca_program
from repro.core.runner import Prepared, RunSpec, register_algorithm, team_setup
from repro.core.window import cutoff_schedule
from repro.machines.torus import balanced_dims
from repro.physics.domain import TeamGeometry
from repro.simmpi.topology import ReplicatedGrid
from repro.util import require

__all__ = ["cutoff_config", "cutoff_config_for"]


def cutoff_config(
    p: int,
    c: int,
    *,
    rcut: float,
    box_length: float,
    dim: int = 1,
    team_dims: tuple[int, ...] | None = None,
    periodic: bool = False,
    geometry: TeamGeometry | None = None,
) -> CAConfig:
    """CA cutoff configuration: ``p`` processors, replication ``c``,
    cutoff ``rcut`` in a ``[0, box_length]^dim`` box.

    ``team_dims`` overrides the team-grid shape (default: near-square
    factorization of ``p/c`` into ``dim`` factors).  The per-axis window
    span ``m`` follows the paper's Equation 6 (``m = ceil(rcut /
    cell_width)`` cells per axis).  ``periodic=True`` selects the
    periodic-box extension (wrap-around team neighborhoods; the paper's
    box is reflective/non-periodic).
    """
    require(rcut > 0, f"rcut must be positive, got {rcut}")
    require(rcut <= box_length, f"rcut={rcut} cannot exceed the box {box_length}")
    grid = ReplicatedGrid(p=p, c=c)
    if geometry is not None:
        require(geometry.nteams == grid.nteams,
                f"geometry has {geometry.nteams} teams, need {grid.nteams}")
        require(abs(geometry.box_length - box_length) < 1e-12,
                "geometry box must match box_length")
        m = geometry.spanned_cells(rcut)
        schedule = cutoff_schedule(geometry.team_dims, m, c)
        return CAConfig(grid=grid, schedule=schedule, rcut=rcut,
                        geometry=geometry)
    if team_dims is None:
        team_dims = balanced_dims(grid.nteams, dim)
    else:
        team_dims = tuple(team_dims)
        prod = 1
        for d in team_dims:
            prod *= d
        require(prod == grid.nteams,
                f"team_dims {team_dims} must multiply to {grid.nteams}")
        require(len(team_dims) == dim, "team_dims must have one entry per dim")
    geometry = TeamGeometry(box_length=box_length, team_dims=team_dims,
                            periodic=periodic)
    m = geometry.spanned_cells(rcut)
    schedule = cutoff_schedule(team_dims, m, c)
    return CAConfig(grid=grid, schedule=schedule, rcut=rcut, geometry=geometry)


def cutoff_config_for(spec: RunSpec) -> CAConfig:
    """:func:`cutoff_config` for a run spec, without building the workload.

    The team grid has ``spec.dim`` axes, or as many as the workload's
    particles (real or phantom) when ``spec.dim`` is unset; it may not
    have more.
    """
    pdim = spec.particles.dim if spec.particles is not None else spec.dim or 2
    dim = spec.dim or pdim
    require(dim <= pdim,
            f"team-grid dim={dim} exceeds particle dimension {pdim} "
            "(slab/pencil decompositions use dim < particle dimension)")
    return cutoff_config(
        spec.machine.nranks, spec.c, rcut=spec.rcut,
        box_length=spec.box_length, dim=dim, team_dims=spec.team_dims,
        periodic=spec.periodic, geometry=spec.geometry,
    )


@register_algorithm(
    "cutoff",
    fault_mode="kills",
    needs_rcut=True,
    summary="Algorithm 2: CA cutoff interactions on a spatial team grid",
)
def _prepare_cutoff(spec: RunSpec) -> Prepared:
    """Cutoff-limited forces over real or phantom particles.

    The force law's cutoff is forced to ``spec.rcut`` (pairs beyond it
    contribute exactly zero).  Real particles are spatially binned to
    team leaders and their forces come back ordered by particle id;
    phantom particles are split evenly.  With a
    :class:`~repro.simmpi.faults.FaultSchedule` the resilient step runs
    and deaths are absorbed via replication-aware recovery (``c >= 2``).
    """
    cfg = cutoff_config_for(spec)
    _, blocks, kernel, collect = team_setup(spec, cfg)
    return Prepared(
        program=ca_program(cfg, kernel, blocks,
                           resilient=spec.faults is not None),
        collect=collect,
    )
