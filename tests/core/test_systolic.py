"""The systolic algorithm family: correctness, coverage, costs, tiers."""

import numpy as np
import pytest

from repro.core import RunSpec, list_algorithms, run
from repro.machines import GenericMachine, InstantMachine
from repro.physics import ParticleSet, reference_forces, reference_pair_matrix
from repro.theory import (
    half_systolic_cost,
    hyper_systolic_cost,
    systolic_ring_cost,
)

from tests.conftest import assert_forces_close

FAMILY = ("half_systolic", "hyper_systolic", "systolic_ring")


class TestRegistration:
    def test_family_is_registered(self):
        names = list_algorithms()
        for name in FAMILY:
            assert name in names

    def test_c_is_rejected(self):
        ps = ParticleSet.uniform_random(16, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="c"):
            run(RunSpec(machine=GenericMachine(nranks=4),
                        algorithm="systolic_ring", particles=ps, c=2))


class TestCorrectness:
    @pytest.mark.parametrize("name", FAMILY)
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_forces_match_reference(self, name, p, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm=name,
                          particles=particles_2d, law=law))
        assert np.array_equal(out.ids, np.sort(particles_2d.ids))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("name", FAMILY)
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_uneven_blocks(self, name, p, law):
        ps = ParticleSet.uniform_random(4 * p + 3, 2, 1.0, seed=7)
        ref = reference_forces(law, ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm=name,
                          particles=ps, law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("name", FAMILY)
    @pytest.mark.parametrize("p", [2, 4, 7, 8])
    def test_every_pair_covered_exactly_once(self, name, p, law):
        n = 3 * p + 1
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=3)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm=name,
                    particles=ps, law=law, pair_counter=counter))
        assert (counter == reference_pair_matrix(law, ps)).all()

    @pytest.mark.parametrize("p,k", [(8, 5), (16, 7), (16, 8)])
    def test_hyper_explicit_k(self, p, k, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="hyper_systolic", particles=particles_2d,
                          hyper_k=k, law=law))
        assert_forces_close(out.forces, ref)


class TestCosts:
    @pytest.mark.parametrize("p", [2, 8, 16])
    def test_ring_shift_messages(self, p, law, particles_2d):
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="systolic_ring", particles=particles_2d,
                          law=law))
        assert out.report.max_messages("shift") == \
            systolic_ring_cost(len(particles_2d), p).messages

    @pytest.mark.parametrize("p", [2, 8, 16])
    def test_half_ring_messages(self, p, law, particles_2d):
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="half_systolic", particles=particles_2d,
                          law=law))
        measured = out.report.max_messages("shift") + \
            out.report.max_messages("return")
        assert measured == half_systolic_cost(len(particles_2d), p).messages

    @pytest.mark.parametrize("p", [16, 32, 64])
    def test_hyper_beats_ring_latency_and_bandwidth(self, p):
        # The K ~ 2 sqrt(p) replication only pays off once p is large
        # enough that 2(K-1) < p-1; below that the plain ring wins.
        n = 4 * p
        ring = systolic_ring_cost(n, p)
        from repro.core.commsched import default_hyper_k
        hyper = hyper_systolic_cost(n, p, default_hyper_k(p))
        assert hyper.messages < ring.messages
        assert hyper.words < ring.words

    def test_hyper_words_scale_as_sqrt_p(self):
        n = 1 << 14
        from repro.core.commsched import default_hyper_k
        w = {p: hyper_systolic_cost(n, p, default_hyper_k(p)).words
             for p in (64, 256, 1024)}
        # W ~ 2 sqrt(p) n/p = O(n/sqrt(p)): quadrupling p halves the words.
        assert w[256] == pytest.approx(w[64] / 2, rel=0.35)
        assert w[1024] == pytest.approx(w[256] / 2, rel=0.35)


class TestHeuristicTier:
    @pytest.mark.parametrize("name", FAMILY)
    @pytest.mark.parametrize("p", [3, 8])
    def test_traffic_matches_event_tier(self, name, p):
        ps = ParticleSet.uniform_random(4 * p + 1, 2, 1.0, seed=5)
        m = GenericMachine(nranks=p)
        ev = run(RunSpec(machine=m, algorithm=name, particles=ps))
        he = run(RunSpec(machine=m, algorithm=name, particles=ps,
                         engine_tier="heuristic"))
        for ra, rb in zip(ev.run.report.traces, he.run.report.traces):
            assert set(ra.phases) == set(rb.phases)
            for ph, pa in ra.phases.items():
                pb = rb.phases[ph]
                assert (pa.messages_sent, pa.bytes_sent,
                        pa.messages_received, pa.bytes_received) == \
                    (pb.messages_sent, pb.bytes_sent,
                     pb.messages_received, pb.bytes_received)
