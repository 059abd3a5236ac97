"""The paper's contribution: communication-avoiding N-body algorithms.

* :mod:`repro.core.window` — the shift schedules behind Algorithms 1 and 2;
* :mod:`repro.core.ca_step` — the unified CA interaction step;
* :mod:`repro.core.runner` — the algorithm registry and the single run
  pipeline every entry point executes through;
* :mod:`repro.core.allpairs` / :mod:`repro.core.cutoff` /
  :mod:`repro.core.symmetric` / :mod:`repro.core.systolic` — the CA
  family and its systolic relatives, as registered adapters;
* :mod:`repro.core.baselines` — particle/force/spatial decompositions;
* :mod:`repro.core.midpoint` — the neutral-territory midpoint baseline;
* :mod:`repro.core.driver` — multi-timestep simulations with spatial
  re-assignment;
* :mod:`repro.core.tuning` — runtime autotuner for the replication factor.
"""

from repro.core.allpairs import allpairs_config
from repro.core.runner import (
    Algorithm,
    Prepared,
    Run,
    RunSpec,
    fault_compat,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    run,
)
from repro.core.checkpoint import CheckpointPolicy, simulation_fingerprint
from repro.core.ca_step import CAConfig, CAStepResult, ca_interaction_step
from repro.core.commsched import (
    CommSchedule,
    default_hyper_k,
    half_systolic_rounds,
    hyper_strides,
    hyper_systolic_rounds,
    rounds_for_schedule,
    scheduled_step,
    systolic_ring_rounds,
)
from repro.core.cutoff import cutoff_config
from repro.core.decomposition import (
    collect_leader_forces,
    distribute_from_root,
    gather_to_root,
    team_blocks_even,
    team_blocks_spatial,
    virtual_team_blocks,
)
from repro.core.driver import (
    SimulationConfig,
    SimulationRun,
    run_simulation,
    run_simulation_virtual,
)
from repro.core.symmetric import ca_symmetric_step, symmetric_config
from repro.core.tuning import TuningResult, autotune_c, candidate_cs
from repro.core.window import (
    ShiftSchedule,
    all_pairs_schedule,
    cutoff_schedule,
    half_ring_schedule,
)

__all__ = [
    "Algorithm",
    "CAConfig",
    "CAStepResult",
    "CheckpointPolicy",
    "CommSchedule",
    "Prepared",
    "Run",
    "RunSpec",
    "ShiftSchedule",
    "SimulationConfig",
    "SimulationRun",
    "all_pairs_schedule",
    "allpairs_config",
    "autotune_c",
    "ca_interaction_step",
    "candidate_cs",
    "collect_leader_forces",
    "distribute_from_root",
    "gather_to_root",
    "cutoff_config",
    "cutoff_schedule",
    "default_hyper_k",
    "fault_compat",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "run",
    "run_simulation",
    "run_simulation_virtual",
    "simulation_fingerprint",
    "ca_symmetric_step",
    "half_ring_schedule",
    "half_systolic_rounds",
    "hyper_strides",
    "hyper_systolic_rounds",
    "rounds_for_schedule",
    "scheduled_step",
    "symmetric_config",
    "systolic_ring_rounds",
    "team_blocks_even",
    "team_blocks_spatial",
    "virtual_team_blocks",
]
