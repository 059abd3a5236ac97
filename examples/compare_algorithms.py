"""Every registered algorithm on one workload, side by side.

The algorithm registry (``repro.core.runner``) makes the paper's central
comparison a one-liner: run each applicable algorithm — the CA all-pairs
and cutoff algorithms, the symmetric variant, and the Section II
baselines — on the *same* particles and machine, and tabulate per-phase
times, critical-path message/byte counts (the paper's S and W terms),
and the max force deviation from the serial reference.

    python examples/compare_algorithms.py
"""

from repro.core import RunSpec, get_algorithm, list_algorithms, run
from repro.experiments import compare_algorithms, render_comparison
from repro.machines import GenericTorus
from repro.physics import ParticleSet


def main() -> None:
    machine = GenericTorus(nranks=16, cores_per_node=4)
    particles = ParticleSet.uniform_random(256, dim=2, box_length=1.0,
                                           max_speed=0.1, seed=2013)

    # The registry knows each algorithm's capabilities.
    print("registered algorithms:")
    for name in list_algorithms():
        print(f"  {name:22s} {get_algorithm(name).summary}")

    # One declarative spec runs any of them through the same pipeline.
    out = run(RunSpec(machine=machine, algorithm="symmetric",
                      particles=particles, c=2))
    print(f"\nsymmetric, c=2: simulated step time "
          f"{out.elapsed * 1e3:.4f} ms, "
          f"S={out.report.critical_messages()} messages on the "
          f"critical path")

    # ...and the comparison harness sweeps the whole registry.
    print(f"\n{machine.describe()}, n={len(particles)}, c=2, rcut=0.3\n")
    result = compare_algorithms(machine, particles, c=2, rcut=0.3)
    print(render_comparison(result))


if __name__ == "__main__":
    main()
