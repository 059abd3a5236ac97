"""Rank-layout ablation: 'rows' (the analyzed mapping) vs 'teams'.

Both layouts must compute identical physics; they differ only in which
communication becomes local.  With team members contiguous ('teams'), the
broadcast/reduce trees become intra-node while the shifts stretch — the
inverse of the trade-off the default mapping makes.
"""

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.machines import GenericMachine, GenericTorus
from repro.model import allpairs_breakdown
from repro.physics import ParticleSet, PhantomSet, reference_forces
from repro.simmpi import ReplicatedGrid

from tests.conftest import assert_forces_close


class TestGridLayouts:
    def test_teams_layout_mapping(self):
        g = ReplicatedGrid(p=12, c=3, layout="teams")
        assert g.team_ranks(0) == [0, 1, 2]  # contiguous team
        assert g.team_ranks(1) == [3, 4, 5]
        assert g.row_ranks(0) == [0, 3, 6, 9]
        for r in range(12):
            assert g.rank_at(g.row_of(r), g.col_of(r)) == r

    def test_rows_layout_is_default(self):
        assert ReplicatedGrid(p=8, c=2).layout == "rows"

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            ReplicatedGrid(p=8, c=2, layout="diagonal")

    def test_layouts_partition_identically(self):
        for layout in ("rows", "teams"):
            g = ReplicatedGrid(p=24, c=4, layout=layout)
            seen = sorted(r for col in range(g.nteams) for r in g.team_ranks(col))
            assert seen == list(range(24))


class TestLayoutPhysics:
    @pytest.mark.parametrize("layout", ["rows", "teams"])
    @pytest.mark.parametrize("p,c", [(8, 2), (12, 3), (16, 4)])
    def test_forces_identical(self, layout, p, c, law, particles_2d):
        ref = reference_forces(law, particles_2d)
        out = run(RunSpec(machine=GenericMachine(nranks=p),
                          algorithm="allpairs", particles=particles_2d, c=c,
                          law=law, layout=layout))
        assert_forces_close(out.forces, ref)

    def test_layouts_agree_with_each_other(self, law):
        ps = ParticleSet.uniform_random(64, 2, 1.0, seed=71)
        m = GenericMachine(nranks=8)
        rows = run(RunSpec(machine=m, algorithm="allpairs", particles=ps, c=2,
                           law=law, layout="rows"))
        teams = run(RunSpec(machine=m, algorithm="allpairs", particles=ps, c=2,
                            law=law, layout="teams"))
        assert np.allclose(rows.forces, teams.forces)


class TestLayoutTradeoff:
    def test_teams_layout_cheapens_collectives(self):
        """Contiguous team members land on the same node: the bcast/reduce
        trees run over shared memory while the shifts stretch."""
        m = GenericTorus(nranks=64, cores_per_node=4)
        c = 4
        rows = run(RunSpec(machine=m, algorithm="allpairs",
                           particles=PhantomSet(8192),
                           c=c, layout="rows")).report
        teams = run(RunSpec(machine=m, algorithm="allpairs",
                            particles=PhantomSet(8192),
                            c=c, layout="teams")).report
        coll_rows = rows.max_time("bcast") + rows.max_time("reduce")
        coll_teams = teams.max_time("bcast") + teams.max_time("reduce")
        assert coll_teams < coll_rows

    def test_analytic_model_supports_layouts(self):
        from repro.machines import Hopper

        m = Hopper(96, cores_per_node=12)
        rows = allpairs_breakdown(m, 4096, 4, layout="rows")
        teams = allpairs_breakdown(m, 4096, 4, layout="teams")
        assert teams.get("bcast") < rows.get("bcast")
        assert rows.total > 0 and teams.total > 0

    def test_analytic_matches_sim_for_teams_layout(self):
        m = GenericTorus(nranks=64, cores_per_node=4, alpha=2e-6, beta=5e-10,
                         pair_time=5e-8)
        sim = run(RunSpec(machine=m, algorithm="allpairs",
                          particles=PhantomSet(8192), c=4,
                          layout="teams"))
        model = allpairs_breakdown(m, 8192, 4, layout="teams")
        assert model.meta["makespan"] == pytest.approx(sim.elapsed, rel=0.05)
