"""3-D cutoff decompositions: the Section IV-C generalization beyond the
paper's 1-D/2-D experiments (its related work — Snir, Shaw, Anton — is all
3-D, and the window machinery here is dimension-generic)."""

import numpy as np
import pytest

from repro.core import RunSpec, cutoff_config, run
from repro.machines import GenericMachine, InstantMachine
from repro.physics import ForceLaw, ParticleSet, PhantomSet, reference_forces, reference_pair_matrix

from tests.conftest import assert_forces_close


class TestCutoff3D:
    @pytest.mark.parametrize("p,c", [(8, 1), (8, 2), (27, 1)])
    @pytest.mark.parametrize("rcut", [0.3, 0.55])
    def test_forces_match_reference(self, p, c, rcut, law):
        ps = ParticleSet.uniform_random(80, 3, 1.0, seed=101)
        ref = reference_forces(law.with_rcut(rcut), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=p), algorithm="cutoff",
                          particles=ps, c=c, rcut=rcut, box_length=1.0, dim=3,
                          law=law))
        assert_forces_close(out.forces, ref)

    @pytest.mark.parametrize("p,c", [(8, 2), (16, 2), (27, 3)])
    def test_coverage(self, p, c, law):
        n = 50
        ps = ParticleSet.uniform_random(n, 3, 1.0, seed=102)
        rcut = 0.4
        counter = np.zeros((n, n), dtype=np.int64)
        run(RunSpec(machine=InstantMachine(nranks=p), algorithm="cutoff",
                    particles=ps, c=c, rcut=rcut, box_length=1.0, dim=3,
                    law=law, pair_counter=counter))
        assert (counter == reference_pair_matrix(law.with_rcut(rcut), ps)).all()

    def test_3d_window_is_cube(self):
        cfg = cutoff_config(64, 1, rcut=0.3, box_length=1.0, dim=3)
        assert cfg.geometry.team_dims == (4, 4, 4)
        assert cfg.geometry.spanned_cells(0.3) == (2, 2, 2)
        # Physical window is (2m+1)^3 = 125 offsets... clipped by aliasing
        # on the 4-wide grid; all positions still schedule exactly once.
        cfg.schedule.validate()

    def test_periodic_3d(self, law):
        ps = ParticleSet.uniform_random(60, 3, 1.0, seed=103)
        rcut = 0.3
        ref = reference_forces(law.with_rcut(rcut).with_box(1.0), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                          particles=ps, c=2, rcut=rcut, box_length=1.0, dim=3,
                          law=law, periodic=True))
        assert_forces_close(out.forces, ref)

    def test_neighbor_count_grows_with_dimension(self):
        """'Communication avoidance becomes especially important in higher
        dimensions because the number of neighbors is exponential in the
        dimensionality' (Section IV-C)."""
        n = 4096
        msgs = {}
        for dim, p in ((1, 64), (2, 64), (3, 64)):
            res = run(RunSpec(machine=GenericMachine(nranks=p),
                              algorithm="cutoff", particles=PhantomSet(n, dim), c=1, rcut=0.4,
                              box_length=1.0))
            msgs[dim] = res.report.max_messages("shift")
        assert msgs[1] < msgs[2] <= msgs[3] + 1

    def test_pencil_decomposition_of_3d_particles(self, law):
        """2-D team grid over 3-D particles (pencil regions)."""
        ps = ParticleSet.uniform_random(60, 3, 1.0, seed=104)
        rcut = 0.35
        ref = reference_forces(law.with_rcut(rcut), ps)
        out = run(RunSpec(machine=GenericMachine(nranks=8), algorithm="cutoff",
                          particles=ps, c=2, rcut=rcut, box_length=1.0, dim=2,
                          law=law))
        assert_forces_close(out.forces, ref)
