"""repro — a reproduction of "A Communication-Optimal N-Body Algorithm for
Direct Interactions" (Driscoll, Georganas, Koanantakool, Solomonik, Yelick;
IEEE IPDPS 2013).

The package provides, from the bottom up:

* :mod:`repro.simmpi` — a deterministic discrete-event simulated MPI
  (generator-coroutine ranks, rendezvous point-to-point, software tree
  collectives, hardware-collective hooks, per-phase tracing);
* :mod:`repro.machines` — machine models of the paper's platforms (Hopper
  Cray XE-6, Intrepid BlueGene/P with its collective tree network) plus
  generic test machines;
* :mod:`repro.physics` — the paper's test problem: particles in a
  reflective box under a repulsive inverse-square force, with optional
  cutoff, vectorized kernels and serial references;
* :mod:`repro.core` — the paper's contribution: the communication-avoiding
  all-pairs algorithm (Algorithm 1), the cutoff algorithm in 1-D and its
  d-dimensional generalization (Algorithm 2 / Section IV-C), the
  particle/force/spatial decomposition baselines, a multi-timestep driver
  with spatial re-assignment, and a runtime autotuner for the replication
  factor;
* :mod:`repro.theory` — the communication lower bounds and optimality
  proofs as executable checks;
* :mod:`repro.model` — a closed-form analytic performance model,
  cross-validated against the event simulator, that regenerates the
  paper's 24K/32K-core experiments;
* :mod:`repro.experiments` — drivers for every evaluation figure.

Quickstart::

    from repro.core import RunSpec, run
    from repro.machines import GenericMachine
    from repro.physics import ParticleSet

    particles = ParticleSet.uniform_random(512, dim=2, box_length=1.0)
    out = run(RunSpec(machine=GenericMachine(nranks=16), algorithm="allpairs",
                      particles=particles, c=4))
    print(out.report.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
