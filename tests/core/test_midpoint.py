"""The midpoint method baseline (Section II-D related work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunSpec, run
from repro.machines import GenericMachine, InstantMachine
from repro.physics import ForceLaw, ParticleSet, reference_forces, reference_pair_matrix

from tests.conftest import assert_forces_close


class TestCorrectness:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    @pytest.mark.parametrize("dim,rcut", [(1, 0.2), (2, 0.3)])
    def test_forces_match_reference(self, p, dim, rcut, law):
        ps = ParticleSet.uniform_random(70, dim, 1.0, seed=91)
        ref = reference_forces(law.with_rcut(rcut), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="midpoint", particles=ps, rcut=rcut,
                          box_length=1.0, law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p", [4, 9, 16])
    def test_each_pair_owned_by_exactly_one_midpoint(self, p, law):
        n = 60
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=92)
        rcut = 0.25
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="midpoint",
                    particles=ps, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()

    def test_single_rank_degenerates_to_serial(self, law):
        ps = ParticleSet.uniform_random(40, 2, 1.0, seed=93)
        out = run(RunSpec(machine=GenericMachine(nranks=1),
                          algorithm="midpoint", particles=ps, rcut=0.3,
                          box_length=1.0, law=law))
        assert_forces_close(out.forces,
                            reference_forces(law.with_rcut(0.3), ps))

    @settings(max_examples=10, deadline=None)
    @given(p=st.sampled_from([4, 8, 16]), seed=st.integers(0, 500),
           rcut=st.sampled_from([0.15, 0.3]))
    def test_coverage_property(self, p, seed, rcut):
        law = ForceLaw()
        n = 40
        ps = ParticleSet.uniform_random(n, 2, 1.0, seed=seed)
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="midpoint",
                    particles=ps, rcut=rcut, box_length=1.0, law=law,
                    pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()


class TestImportRegion:
    def test_smaller_import_than_spatial_decomposition(self, law):
        """Section II-D: 'a smaller import region for a typical number of
        processors' — the midpoint halo reaches r_c/2 instead of r_c."""
        ps = ParticleSet.uniform_random(200, 2, 1.0, seed=94)
        m = GenericMachine(nranks=16)
        spatial = run(RunSpec(machine=m, algorithm="spatial", particles=ps,
                              rcut=0.3, box_length=1.0, law=law))
        midpoint = run(RunSpec(machine=m, algorithm="midpoint", particles=ps,
                               rcut=0.3, box_length=1.0, law=law))
        assert (midpoint.report.max_bytes("halo")
                < spatial.report.max_bytes("halo"))
        assert (midpoint.report.max_messages("halo")
                <= spatial.report.max_messages("halo"))

    def test_has_return_phase(self, law):
        ps = ParticleSet.uniform_random(80, 2, 1.0, seed=95)
        out = run(RunSpec(machine=GenericMachine(nranks=16),
                          algorithm="midpoint", particles=ps, rcut=0.3,
                          box_length=1.0, law=law))
        assert "return" in out.report.phase_labels()

    def test_computes_on_neutral_territory(self, law):
        """Some pairs are evaluated by a processor owning neither particle
        — the defining property of neutral-territory methods."""
        # Two particles straddling a region boundary whose midpoint falls
        # in a third region cannot occur in 1D with 2 regions, so build a
        # 1D case with 4 regions: particles in regions 0 and 2, midpoint
        # in region 1.
        law2 = law.with_rcut(0.6)
        pos = np.array([[0.20], [0.60]])
        ps = ParticleSet(pos, np.zeros((2, 1)), np.arange(2))
        n = 2
        counter = np.zeros((n, n), dtype=np.int64)
        out = run(RunSpec(machine=InstantMachine(nranks=4),
                          algorithm="midpoint", particles=ps, rcut=0.6,
                          box_length=1.0, law=law, pair_counter=counter))
        assert counter.sum() == 2  # the pair, both directions
        ref = reference_forces(law2, ps)
        assert_forces_close(out.forces, ref)
