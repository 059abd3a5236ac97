"""Tour of the reproduction's extensions beyond the paper.

Four short experiments:

1. **Symmetric forces** — the Newton's-third-law optimization the paper
   skipped, at the paper's Figure 2b scale (what-if analysis);
2. **Periodic boundaries** — the boundary load imbalance of the cutoff
   runs, and its disappearance under a periodic box;
3. **Velocity Verlet** — energy drift vs. the paper-style Euler loop;
4. **Weak scaling** — the strong-scaling story retold with constant
   per-core work.

    python examples/extensions_tour.py
"""

import numpy as np

from repro.core import (
    RunSpec,
    SimulationConfig,
    allpairs_config,
    run,
    run_simulation,
    team_blocks_even,
)
from repro.machines import GenericTorus, Hopper
from repro.model import (
    allpairs_breakdown,
    allpairs_weak_scaling,
    symmetric_breakdown,
)
from repro.physics import (
    ForceLaw,
    ParticleSet,
    PhantomSet,
    kinetic_energy,
    potential_energy,
)


def symmetric_what_if() -> None:
    print("=== 1. Exploiting force symmetry (Hopper, 24,576 cores, "
          "196,608 particles) ===")
    m = Hopper(24576)
    for c in (1, 16, 64):
        std = allpairs_breakdown(m, 196608, c)
        sym = symmetric_breakdown(m, 196608, c)
        print(f"  c={c:3d}: {std.total * 1e3:8.2f} ms -> "
              f"{sym.total * 1e3:8.2f} ms ({std.total / sym.total:.2f}x)")
    print("  (the paper: 'we do not apply optimizations to exploit the "
          "symmetry')\n")


def periodic_imbalance() -> None:
    print("=== 2. Boundary load imbalance, reflective vs periodic ===")
    m = Hopper(96, cores_per_node=12)
    for periodic in (False, True):
        res = run(RunSpec(machine=m, algorithm="cutoff",
                          particles=PhantomSet(9216, 1), c=1,
                          rcut=0.25, box_length=1.0, periodic=periodic))
        pairs = [r.npairs for r in res.run.results]
        label = "periodic  " if periodic else "reflective"
        print(f"  {label}: scans min={min(pairs)} max={max(pairs)} "
              f"(spread {max(pairs) - min(pairs)}), "
              f"max shift wait {res.report.max_time('shift') * 1e3:.3f} ms")
    print("  (the paper attributes its cutoff inefficiency to this "
          "boundary effect)\n")


def verlet_vs_euler() -> None:
    print("=== 3. Velocity Verlet vs symplectic Euler (energy drift) ===")
    law = ForceLaw(k=1e-5, softening=5e-3)
    ps = ParticleSet.uniform_random(96, 2, 1.0, max_speed=0.02, seed=1)
    cfg = allpairs_config(8, 2)
    for integ in ("euler", "verlet"):
        scfg = SimulationConfig(cfg=cfg, law=law, dt=8e-3, nsteps=50,
                                box_length=1.0, integrator=integ)
        out = run_simulation(GenericTorus(nranks=8, cores_per_node=2), scfg,
                             team_blocks_even(ps, cfg.grid.nteams))
        final = out.particles
        e0 = kinetic_energy(ps.vel) + potential_energy(law, ps.pos)
        e1 = kinetic_energy(final.vel) + potential_energy(law, final.pos)
        print(f"  {integ:7s}: relative energy drift over 50 steps = "
              f"{100 * abs(e1 - e0) / abs(e0):.4f}%")
    print()


def weak_scaling() -> None:
    print("=== 4. Weak scaling on Hopper (n grows as sqrt(p)) ===")
    series = allpairs_weak_scaling(lambda p: Hopper(p), 24576,
                                   [1536, 6144, 24576], [1, 4, 16])
    for c, pts in series.items():
        row = "  ".join(f"p={p}: {e:.3f}" for p, _, _, e in pts)
        print(f"  c={c:3d}: {row}")
    print("  (1.0 = perfect weak scaling; same collapse/recovery as Fig. 3)")


def main() -> None:
    symmetric_what_if()
    periodic_imbalance()
    verlet_vs_euler()
    weak_scaling()
    assert np.isfinite(1.0)  # keep numpy imported for doc parity


if __name__ == "__main__":
    main()
