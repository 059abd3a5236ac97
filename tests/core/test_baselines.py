"""Baseline decompositions: correctness, equivalences, cost structure."""

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.machines import GenericMachine, InstantMachine, Intrepid
from repro.physics import ParticleSet, reference_forces, reference_pair_matrix
from repro.theory import force_decomposition_cost, particle_decomposition_cost

from tests.conftest import assert_forces_close


class TestParticleDecompositions:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 12])
    def test_allgather_matches_reference(self, p, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="particle_allgather",
                          particles=particles_2d, law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 12])
    def test_ring_matches_reference(self, p, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="particle_ring", particles=particles_2d,
                          law=law))
        assert_forces_close(out.forces, ref)

    def test_ring_equals_ca_c1(self, law, particles_2d):
        """The CA algorithm at c=1 degenerates into the systolic ring."""
        m = GenericMachine(nranks=8)
        ring = run(RunSpec(machine=m, algorithm="particle_ring",
                           particles=particles_2d, law=law))
        ca = run(RunSpec(machine=m, algorithm="allpairs",
                         particles=particles_2d, c=1, law=law))
        assert_forces_close(ring.forces, ca.forces)
        # Same message structure: p shifts of the same block size.
        assert (ring.report.max_messages("shift")
                == ca.report.max_messages("shift"))

    def test_tree_allgather_on_intrepid(self, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=Intrepid(8, cores_per_node=4),
                          algorithm="particle_allgather",
                          particles=particles_2d, law=law, use_tree=True))
        assert_forces_close(out.forces, ref)

    def test_tree_faster_than_software_allgather(self, law, particles_2d):
        tree = run(RunSpec(machine=Intrepid(16, cores_per_node=4),
                           algorithm="particle_allgather",
                           particles=particles_2d, law=law, use_tree=True))
        soft = run(RunSpec(machine=Intrepid(16, cores_per_node=4, tree=False),
                           algorithm="particle_allgather",
                           particles=particles_2d, law=law))
        assert (tree.report.max_time("allgather")
                < soft.report.max_time("allgather"))

    def test_coverage(self, law):
        n = 40
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=9)
        for name in ("particle_allgather", "particle_ring"):
            counter = np.zeros((n, n), dtype=np.int64)
            run(RunSpec(machine=InstantMachine(nranks=8), algorithm=name,
                        particles=ps, law=law, pair_counter=counter))
            assert (counter == reference_pair_matrix(law, ps)).all()

    def test_ring_latency_linear_in_p(self, law):
        """S_particle = O(p): message count grows with machine size."""
        ps = ParticleSet.uniform_random(32, 2, 1.0, seed=1)
        m4 = run(RunSpec(machine=GenericMachine(nranks=4),
                         algorithm="particle_ring", particles=ps, law=law))
        m16 = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="particle_ring", particles=ps, law=law))
        s4 = m4.report.max_messages("shift")
        s16 = m16.report.max_messages("shift")
        assert s4 == particle_decomposition_cost(32, 4).messages
        assert s16 == particle_decomposition_cost(32, 16).messages


class TestForceDecomposition:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_matches_reference(self, p, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="force_decomposition",
                          particles=particles_2d, law=law))
        assert_forces_close(out.forces, ref)

    def test_requires_square_p(self, law, particles_2d):
        with pytest.raises(ValueError):
            run(RunSpec(machine=GenericMachine(nranks=8),
                        algorithm="force_decomposition",
                        particles=particles_2d, law=law))

    def test_coverage(self, law):
        n = 36
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=10)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=16),
                    algorithm="force_decomposition", particles=ps, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law, ps)).all()

    def test_logarithmic_latency(self, law):
        """S_force = O(log p): few messages even on larger machines."""
        ps = ParticleSet.uniform_random(64, 2, 1.0, seed=2)
        out = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="force_decomposition", particles=ps,
                          law=law))
        crit = out.report.critical_messages()
        bound = force_decomposition_cost(64, 16).messages
        assert crit <= 4 * bound

    def test_less_bandwidth_than_ring(self, law):
        ps = ParticleSet.uniform_random(256, 2, 1.0, seed=3)
        ring = run(RunSpec(machine=GenericMachine(nranks=64),
                           algorithm="particle_ring", particles=ps, law=law))
        fd = run(RunSpec(machine=GenericMachine(nranks=64),
                         algorithm="force_decomposition", particles=ps,
                         law=law))
        # W_force = O(n/sqrt(p) log p) < W_particle = O(n) at p=64.
        assert fd.report.critical_bytes() < ring.report.critical_bytes()


class TestSpatialDecomposition:
    @pytest.mark.parametrize("p", [4, 8, 16])
    @pytest.mark.parametrize("rcut", [0.15, 0.3])
    def test_matches_reference_2d(self, p, rcut, law, particles_2d):
        ref = reference_forces(law.with_rcut(rcut), particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="spatial", particles=particles_2d,
                          rcut=rcut, box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p", [4, 8])
    def test_matches_reference_1d(self, p, law, particles_1d):
        ref = reference_forces(law.with_rcut(0.2), particles_1d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="spatial", particles=particles_1d,
                          rcut=0.2, box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)

    def test_coverage(self, law):
        n = 50
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=11)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=16), algorithm="spatial",
                    particles=ps, rcut=0.3, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(0.3), ps)).all()

    def test_halo_message_count_is_neighborhood_size(self, law, particles_2d):
        out = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="spatial", particles=particles_2d,
                          rcut=0.26, box_length=1.0, law=law))
        # 4x4 regions, cutoff spans 2 cells: interior sends to its full
        # reachable neighborhood, far fewer than p-1=15 for corner ranks.
        msgs = [tr.phases["halo"].messages_sent
                for tr in out.report.traces if "halo" in tr.phases]
        assert max(msgs) < 16
        assert min(msgs) >= 3

    def test_smaller_cutoff_fewer_neighbors(self, law, particles_2d):
        small = run(RunSpec(machine=GenericMachine(nranks=16),
                            algorithm="spatial", particles=particles_2d,
                            rcut=0.1, box_length=1.0, law=law))
        big = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="spatial", particles=particles_2d,
                          rcut=0.6, box_length=1.0, law=law))
        assert (small.report.max_messages("halo")
                < big.report.max_messages("halo"))
