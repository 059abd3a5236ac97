"""Exactly-once pair coverage through the kernel's candidate-pruning branch.

The other cutoff coverage suites run blocks too small to prune (n <= 128);
these runs use n = 1024, so every block pair is large enough that
``pairwise_forces`` hands the dense core only the sources near each target
cell.  The pair counter must still equal the independent oracle, and the
machine model must still charge every candidate pair.
"""

import numpy as np
import pytest

import repro.physics.forces as F
from repro.core import RunSpec, run
from repro.machines import GenericMachine
from repro.physics import ForceLaw, ParticleSet, reference_forces, reference_pair_matrix

from tests.conftest import assert_forces_close

N = 1024


@pytest.fixture
def pruned_calls(monkeypatch):
    """Counts calls that took the pruned branch."""
    calls = []
    pruned = F._pruned_forces

    def spy(*args):
        calls.append(args[1].shape[0] * args[2].shape[0])
        return pruned(*args)

    monkeypatch.setattr(F, "_pruned_forces", spy)
    return calls


@pytest.mark.parametrize("algorithm,p,c", [("cutoff", 8, 2), ("spatial", 4, 1)])
def test_exactly_once_through_pruned_kernel(algorithm, p, c, pruned_calls):
    law = ForceLaw(k=1e-4, softening=1e-3, rcut=0.1)
    particles = ParticleSet.uniform_random(N, 2, 1.0, seed=5)
    counter = np.zeros((N, N), dtype=np.int64)
    out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm=algorithm,
                      particles=particles, law=law, c=c, rcut=law.rcut,
                      dim=2, pair_counter=counter))
    assert pruned_calls, "no block pair took the pruned branch"
    assert all(n >= F._PRUNE_MIN_PAIRS for n in pruned_calls)
    assert np.array_equal(counter, reference_pair_matrix(law, particles))
    assert_forces_close(out.forces, reference_forces(law, particles))
