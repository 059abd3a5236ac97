"""Randomized exactly-once harness.

The structured coverage tests in ``test_allpairs.py`` / ``test_cutoff.py``
enumerate hand-picked ``(p, c)`` grids.  This harness instead *draws*
configurations — particle count, processor count, replication factor,
cutoff radius, dimensionality — from seeded independent streams
(:func:`repro.util.rng.spawn_rngs`) and asserts the one invariant the
paper's Theorem 1 rests on: every ordered interacting pair is accumulated
**exactly once**, for all-pairs and cutoff schedules alike.

Each parametrized case owns one child stream, so adding or removing cases
never reshuffles the others, and a failing case is reproducible from its
index alone.
"""

import numpy as np
import pytest

from repro.core import RunSpec, allpairs_config, run
from repro.machines import InstantMachine
from repro.physics import ForceLaw, ParticleSet, reference_pair_matrix
from repro.util.rng import spawn_rngs

#: One fixed master seed for the whole harness; case ``i`` always sees the
#: same child stream no matter which other cases run.
_HARNESS_SEED = 20130520
_NCASES = 12

#: Processor counts with rich divisor structure, so random replication
#: factors exercise square, tall and degenerate grids.
_PS = (4, 6, 8, 9, 12, 16)


def _case_rng(index: int) -> np.random.Generator:
    return spawn_rngs(_HARNESS_SEED, _NCASES)[index]


def _draw_pc(rng) -> tuple[int, int]:
    p = int(rng.choice(_PS))
    divisors = [d for d in range(1, p + 1) if p % d == 0]
    c = int(rng.choice(divisors))
    return p, c


def _draw_particles(rng, p, c, dim) -> ParticleSet:
    # Deliberately biased toward n that does NOT divide the team count:
    # uneven leader blocks (including empty ones) must still cover every
    # pair exactly once.
    nteams = p // c
    n = int(rng.integers(nteams + 1, 97))
    if n % nteams == 0:
        n += 1
    return ParticleSet.uniform_random(n, dim, 1.0,
                                      seed=int(rng.integers(2**31)))


@pytest.mark.parametrize("index", range(_NCASES))
def test_allpairs_random_config_covers_every_pair_once(index):
    rng = _case_rng(index)
    p, c = _draw_pc(rng)
    ps = _draw_particles(rng, p, c, dim=2)
    law = ForceLaw()
    counter = np.zeros((len(ps), len(ps)), dtype=np.int64)
    run(RunSpec(machine=InstantMachine(nranks=p), algorithm="allpairs",
                particles=ps, c=c, law=law, pair_counter=counter))
    expected = reference_pair_matrix(law, ps)
    assert (counter == expected).all(), (
        f"case {index}: n={len(ps)} p={p} c={c} missed or duplicated pairs"
    )
    assert counter.diagonal().sum() == 0


@pytest.mark.parametrize("index", range(_NCASES))
def test_cutoff_random_config_covers_every_pair_once(index):
    rng = _case_rng(index)
    p, c = _draw_pc(rng)
    dim = int(rng.choice([1, 2]))
    rcut = float(rng.uniform(0.15, 0.9))
    ps = _draw_particles(rng, p, c, dim=2)
    law = ForceLaw()
    counter = np.zeros((len(ps), len(ps)), dtype=np.int64)
    run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                particles=ps, c=c, rcut=rcut, box_length=1.0, dim=dim, law=law,
                pair_counter=counter))
    expected = reference_pair_matrix(law.with_rcut(rcut), ps)
    assert (counter == expected).all(), (
        f"case {index}: n={len(ps)} p={p} c={c} rcut={rcut:.3f} dim={dim} "
        "missed or duplicated in-range pairs"
    )


@pytest.mark.parametrize("index", range(_NCASES))
def test_non_divisor_replication_rejected(index):
    rng = _case_rng(index)
    p = int(rng.choice(_PS))
    non_divisors = [c for c in range(2, p) if p % c != 0]
    if not non_divisors:
        pytest.skip(f"p={p} has no non-divisor in (1, p)")
    c = int(rng.choice(non_divisors))
    with pytest.raises(ValueError):
        allpairs_config(p, c)


def test_harness_draws_uneven_blocks():
    """The generator must actually exercise n that team counts don't divide."""
    uneven = multi_team = 0
    for index in range(_NCASES):
        rng = _case_rng(index)
        p, c = _draw_pc(rng)
        ps = _draw_particles(rng, p, c, dim=2)
        nteams = p // c
        multi_team += nteams > 1
        uneven += nteams > 1 and len(ps) % nteams != 0
    # Every multi-team case is uneven by construction, and most draws
    # produce more than one team (c == p collapses to a single team).
    assert uneven == multi_team
    assert multi_team >= _NCASES // 2


def test_case_streams_are_stable():
    """Case i's draws don't depend on how many cases the harness has."""
    a = spawn_rngs(_HARNESS_SEED, _NCASES)[3].integers(2**31, size=4)
    b = spawn_rngs(_HARNESS_SEED, _NCASES + 5)[3].integers(2**31, size=4)
    assert np.array_equal(a, b)
