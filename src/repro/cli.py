"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``figures [IDS...]``
    Regenerate evaluation figure panels (default: all of 2a-7d) at the
    paper's scale and print the plotted series as tables.
``validate FIGURE [--ranks P] [--particles N] [--cs C,C,...]``
    Re-run a figure's experiment at event-simulation scale (real message
    passing) and print the resulting breakdown.
``tune [--machine M] [--ranks P] [--particles N] [--rcut R] [--dim D]``
    Autotune the replication factor for a machine/problem and print the
    ranked candidates.
``simulate [--ranks P] [-c C] [--particles N] [--steps S] ...``
    Run a small functional MD simulation end to end and report physics
    (energy drift) plus the simulated-machine phase breakdown.
``algorithms``
    List every algorithm in the registry with its capabilities
    (replication knob, fault-recovery mode, requirements).
``compare [--ranks P] [-c C] [--particles N] [--algorithms A,B,...] ...``
    Run registered algorithms on one shared workload/machine and tabulate
    phase times, message/byte counts and force agreement side by side
    (``--workers N`` parallelizes the rows; ``--engine-tier heuristic``
    swaps in the vectorized phase-advance simulator).
``profile --algo NAME [--p P] [-c C] [--n N] ...``
    Run one algorithm with full observability: write its metrics registry
    as JSON and its timeline as a Chrome trace (loadable in Perfetto /
    ``chrome://tracing``), and print the metrics summary.
``soak [--trials N] [--seed S] [--schedule POLICY] [--workers N] ...``
    Randomized chaos campaign (faults + checkpoint/resume), asserting
    bitwise agreement with fault-free references; ``--schedule`` runs the
    chaos legs under a perturbed engine interleaving and ``--workers``
    fans the trials out over worker processes.
``schedfuzz [--algorithms A,B,...] [--schedules N] [--workers N] ...``
    Interleaving fuzzer: run every registered algorithm under N explored
    scheduler policies and assert bitwise-identical forces, virtual times
    and communication volumes; failures dump replayable JSON artifacts.
    ``--workers`` fans the campaign out over worker processes.
``sweep --algorithms A,B,... [--ranks P,P,...] [--cache DIR] ...``
    Resilient configuration sweep: expand a grid of run descriptors and
    execute them through the supervised executor (``--retry`` /
    ``--task-timeout`` recover crashed and hung workers) with a durable
    content-addressed run cache consulted first — re-running an
    identical sweep is served from cache with zero engine recomputes.
    Tasks that fail every attempt land in a replayable ``--quarantine``
    JSON artifact.
``serve [--host H] [--port P] [--cache DIR] [--workers N] ...``
    Boot the sweep-orchestration service: a localhost HTTP daemon that
    accepts batches of sweep descriptors (``POST /jobs``), deduplicates
    them against the durable run cache and against identical in-flight
    jobs (single-flight coalescing), executes cold work through the
    supervised executor, and serves per-job status (``GET /jobs/<id>``),
    service counters (``GET /stats``) and an HTML dashboard
    (``GET /dashboard``).  See ``docs/service.md``.

``compare``, ``soak`` and ``schedfuzz`` accept the same ``--retry`` /
``--task-timeout`` / ``--cache`` resilience flags when running with
``--workers``; cached or retried runs stay bitwise identical to serial.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["build_parser", "main", "parse_faults"]


def parse_faults(spec: str):
    """Parse a ``--faults`` specification into a
    :class:`~repro.simmpi.faults.FaultSchedule`.

    The spec is a comma-separated list of events:

    ==================  ====================================================
    ``kill:R@T``        kill rank ``R`` at virtual time ``T`` seconds
    ``kill:R#N``        kill rank ``R`` once it has executed ``N`` ops
    ``delay:S>D:SEC``   delay the next ``S -> D`` transfer by ``SEC`` seconds
    ``drop:S>D[:K]``    drop the next ``S -> D`` transfer ``K`` times
                        (default 1; each drop costs a retry round-trip)
    ``corrupt:S>D``     flip one payload bit on the next ``S -> D`` transfer
    ``seed:N``          seed the schedule's per-channel random streams
    ``drop_prob:P``     random model: drop each transfer with prob. ``P``
    ``delay_prob:P``    random model: delay each transfer with prob. ``P``
    ``corrupt_prob:P``  random model: corrupt each transfer with prob. ``P``
    ``checksum:on``     verify payload CRCs; caught corruption is
                        retransmitted instead of delivered (``on``/``off``)
    ``backoff:B``       multiply the retry timeout by ``B`` per attempt
    ``retries:N``       retransmit budget before a transfer times out
    ==================  ====================================================

    Example: ``kill:3@1e-4,drop:0>1:2,seed:7`` or
    ``corrupt_prob:0.01,checksum:on,backoff:2,seed:7``.
    """
    from repro.simmpi.faults import (CorruptTransfer, DelayTransfer,
                                     DropTransfer, FaultSchedule, KillRank)

    def _flag(text: str) -> bool:
        low = text.strip().lower()
        if low in ("on", "true", "1", "yes"):
            return True
        if low in ("off", "false", "0", "no"):
            return False
        raise ValueError(f"expected on/off, got {text!r}")

    def _channel(text: str) -> tuple[int, int]:
        src, sep, dst = text.partition(">")
        if not sep:
            raise ValueError(
                f"fault channel must look like SRC>DST, got {text!r}"
            )
        return int(src), int(dst)

    events = []
    kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        kind, sep, rest = item.partition(":")
        if not sep:
            raise ValueError(f"malformed fault event {item!r}")
        if kind == "seed":
            kwargs["seed"] = int(rest)
        elif kind in ("drop_prob", "delay_prob", "corrupt_prob"):
            kwargs[kind] = float(rest)
        elif kind == "checksum":
            kwargs["checksum"] = _flag(rest)
        elif kind == "backoff":
            kwargs["retry_backoff"] = float(rest)
        elif kind == "retries":
            kwargs["max_retries"] = int(rest)
        elif kind == "kill":
            if "@" in rest:
                rank, at = rest.split("@", 1)
                events.append(KillRank(int(rank), at_time=float(at)))
            elif "#" in rest:
                rank, ops = rest.split("#", 1)
                events.append(KillRank(int(rank), after_ops=int(ops)))
            else:
                raise ValueError(
                    f"kill needs R@TIME or R#OPS, got {rest!r}"
                )
        elif kind == "delay":
            chan, sep2, sec = rest.rpartition(":")
            if not sep2:
                raise ValueError(f"delay needs S>D:SECONDS, got {rest!r}")
            src, dst = _channel(chan)
            events.append(DelayTransfer(src, dst, seconds=float(sec)))
        elif kind == "drop":
            if rest.count(":"):
                chan, _, times = rest.rpartition(":")
                src, dst = _channel(chan)
                events.append(DropTransfer(src, dst, times=int(times)))
            else:
                src, dst = _channel(rest)
                events.append(DropTransfer(src, dst))
        elif kind == "corrupt":
            src, dst = _channel(rest)
            events.append(CorruptTransfer(src, dst))
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected kill, delay, drop, "
                "corrupt, seed, drop_prob, delay_prob, corrupt_prob, "
                "checksum, backoff or retries)"
            )
    return FaultSchedule(events=tuple(events), **kwargs)


def _add_resilience_flags(p) -> None:
    """Attach the shared executor flags (fleet, retry, cache) to a subparser."""
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="run the command's work units (rows, trials, "
                        "schedules, sweep points, cold jobs) across N "
                        "supervised worker processes (0 = serial, the "
                        "default; results are bitwise identical)")
    p.add_argument("--retry", type=int, default=0, metavar="K",
                   help="retry each failed/crashed/hung task up to K more "
                        "times with exponential backoff (default 0: one "
                        "attempt only)")
    p.add_argument("--retry-delay", type=float, default=0.05,
                   metavar="SECONDS",
                   help="base backoff delay before the first retry "
                        "(doubles per attempt; default 0.05)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill and retry any task still running after this "
                        "many seconds (default: no timeout)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="durable content-addressed run cache: results of "
                        "identical earlier runs are served from DIR "
                        "instead of recomputed, and new results stored")


def _retry_policy(args):
    """``--retry``/``--retry-delay`` flags -> RetryPolicy (or None)."""
    if not getattr(args, "retry", 0):
        return None
    from repro.core.parallel import RetryPolicy

    return RetryPolicy(max_attempts=args.retry + 1,
                       base_delay=args.retry_delay)


def _executor_args(args) -> dict:
    """The :func:`_add_resilience_flags` flags as harness keyword arguments."""
    return {"workers": args.workers, "retry": _retry_policy(args),
            "task_timeout": args.task_timeout, "cache": args.cache}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Communication-Optimal N-Body "
                    "Algorithm for Direct Interactions' (IPDPS 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate evaluation figures")
    p_fig.add_argument("ids", nargs="*", metavar="FIG",
                       help="panel ids like 2a 3b 6c (default: all)")
    p_fig.add_argument("--chart", action="store_true",
                       help="render ASCII charts instead of tables")
    p_fig.add_argument("--format", dest="fmt", default="table",
                       choices=["table", "csv", "json"],
                       help="output format (overridden by --chart)")

    p_val = sub.add_parser("validate",
                           help="scaled-down event-simulation of a figure")
    p_val.add_argument("figure", metavar="FIG", help="panel id, e.g. 2a")
    p_val.add_argument("--ranks", type=int, default=64)
    p_val.add_argument("--particles", type=int, default=4096)
    p_val.add_argument("--cs", default="1,2,4,8",
                       help="comma-separated replication factors")

    p_tune = sub.add_parser("tune", help="autotune the replication factor")
    p_tune.add_argument("--machine", default="generic",
                        choices=["generic", "hopper", "intrepid"])
    p_tune.add_argument("--ranks", type=int, default=64)
    p_tune.add_argument("--particles", type=int, default=4096)
    p_tune.add_argument("--rcut", type=float, default=None,
                        help="cutoff radius (omit for all-pairs)")
    p_tune.add_argument("--dim", type=int, default=2)

    p_sim = sub.add_parser("simulate", help="run a functional MD simulation")
    p_sim.add_argument("--ranks", type=int, default=16)
    p_sim.add_argument("-c", "--replication", type=int, default=2)
    p_sim.add_argument("--particles", type=int, default=256)
    p_sim.add_argument("--steps", type=int, default=10)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--rcut", type=float, default=None)
    p_sim.add_argument("--dim", type=int, default=2)
    p_sim.add_argument("--integrator", default="euler",
                       choices=["euler", "verlet"])
    p_sim.add_argument("--periodic", action="store_true")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults, e.g. 'kill:3#20' or 'drop:0>1:2,seed:7' "
             "(kill:R@T | kill:R#N | delay:S>D:SEC | drop:S>D[:K] | "
             "corrupt:S>D | seed:N | drop_prob:P | checksum:on | backoff:B "
             "| retries:N, comma-separated); rank kills need "
             "replication c >= 2",
    )
    p_sim.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write checkpoints to DIR during the run")
    p_sim.add_argument("--checkpoint-every", type=int, default=1,
                       metavar="K",
                       help="checkpoint cadence in steps (with "
                            "--checkpoint-dir; default 1)")
    p_sim.add_argument("--resume-from", default=None, metavar="FILE",
                       help="resume from a checkpoint file instead of a "
                            "fresh initial state (the configuration must "
                            "match the run that wrote it)")

    sub.add_parser("algorithms",
                   help="list the registered algorithms and capabilities")

    p_cmp = sub.add_parser(
        "compare",
        help="run registered algorithms side by side on one workload")
    p_cmp.add_argument("--machine", default="generic",
                       choices=["generic", "hopper", "intrepid"])
    p_cmp.add_argument("--ranks", type=int, default=16)
    p_cmp.add_argument("--particles", type=int, default=128)
    p_cmp.add_argument("-c", "--replication", type=int, default=2,
                       help="replication factor where the algorithm has one")
    p_cmp.add_argument("--algorithms", default=None, metavar="A,B,...",
                       help="comma-separated registry names "
                            "(default: every algorithm)")
    p_cmp.add_argument("--rcut", type=float, default=None,
                       help="cutoff radius (required by cutoff-windowed "
                            "algorithms; omit to skip them)")
    p_cmp.add_argument("--dim", type=int, default=2)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault schedule applied to every run (same grammar as "
             "simulate --faults); schedules that kill ranks run only on "
             "algorithms with kill recovery — the rest are skipped with "
             "the reason listed",
    )
    p_cmp.add_argument(
        "--schedule", default=None, metavar="POLICY",
        help="scheduler policy for every run: fifo | random[:SEED] | "
             "adversarial[:SEED] (forces must be bitwise identical to "
             "the default FIFO schedule)",
    )
    p_cmp.add_argument(
        "--engine-tier", default="event", choices=["event", "heuristic"],
        help="simulator tier: 'event' (exact, per-message) or 'heuristic' "
             "(vectorized phase-advance; same traffic, no forces — see "
             "docs/performance.md)",
    )
    _add_resilience_flags(p_cmp)

    p_prof = sub.add_parser(
        "profile",
        help="run one algorithm and export metrics JSON + a Chrome trace")
    p_prof.add_argument("--algo", required=True, metavar="NAME",
                        help="registry name or canonical alias "
                             "(e.g. ca_allpairs, allpairs, particle_ring)")
    p_prof.add_argument("--p", "--ranks", dest="ranks", type=int, default=16,
                        help="rank count of the simulated machine")
    p_prof.add_argument("-c", "--c", "--replication", dest="replication",
                        type=int, default=1)
    p_prof.add_argument("--n", "--particles", dest="particles", type=int,
                        default=256)
    p_prof.add_argument("--machine", default="generic",
                        choices=["generic", "hopper", "intrepid"])
    p_prof.add_argument("--rcut", type=float, default=None,
                        help="cutoff radius (required by cutoff-windowed "
                             "algorithms)")
    p_prof.add_argument("--dim", type=int, default=None)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--out-dir", default=".", metavar="DIR",
                        help="directory for the exported files (default: .)")

    p_soak = sub.add_parser(
        "soak",
        help="randomized chaos campaign: faults + checkpoint/resume, "
             "asserting bitwise agreement with fault-free references")
    p_soak.add_argument("--trials", type=int, default=10)
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument("--first-trial", type=int, default=0, metavar="I",
                        help="start at trial index I (replay a failure "
                             "from a longer campaign)")
    p_soak.add_argument("--no-kills", action="store_true",
                        help="restrict the schedules to transient faults")
    p_soak.add_argument("--out-dir", default=None, metavar="DIR",
                        help="directory for failure artifacts "
                             "(default: a temp dir)")
    p_soak.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop early after this much wall time")
    p_soak.add_argument(
        "--schedule", default=None, metavar="POLICY",
        help="scheduler policy for the chaos/resume runs: fifo | "
             "random[:SEED] | adversarial[:SEED]; the fault-free "
             "reference stays FIFO, so the bitwise check also proves "
             "schedule independence (recorded in failure artifacts)",
    )
    _add_resilience_flags(p_soak)

    p_fuzz = sub.add_parser(
        "schedfuzz",
        help="interleaving fuzzer: explore perturbed engine schedules per "
             "algorithm and assert bitwise-identical forces and traffic")
    p_fuzz.add_argument("--algorithms", default=None, metavar="A,B,...",
                        help="comma-separated registry names or phantom "
                             "units (allpairs_phantom, cutoff_phantom, "
                             "symmetric_phantom; default: all of them)")
    p_fuzz.add_argument("--schedules", type=int, default=100,
                        help="explored schedules per algorithm (default 100)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (schedule i is a pure function "
                             "of (seed, i))")
    p_fuzz.add_argument("--first-schedule", type=int, default=0, metavar="I",
                        help="start at schedule index I (replay a failure "
                             "from a longer campaign)")
    p_fuzz.add_argument("--out-dir", default=None, metavar="DIR",
                        help="directory for bad-trace artifacts "
                             "(default: a temp dir)")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop early after this much wall time")
    _add_resilience_flags(p_fuzz)

    p_sweep = sub.add_parser(
        "sweep",
        help="resilient configuration sweep: supervised executor with "
             "retry/timeout, poison-task quarantine, and a durable "
             "content-addressed run cache")
    p_sweep.add_argument("--algorithms", default=None, metavar="A,B,...",
                         help="comma-separated registry names "
                              "(default: every algorithm)")
    p_sweep.add_argument("--machine", default="generic",
                         choices=["generic", "torus", "hopper", "intrepid"])
    p_sweep.add_argument("--ranks", default="16", metavar="P,P,...",
                         help="comma-separated rank counts (default 16)")
    p_sweep.add_argument("--cs", default="1", metavar="C,C,...",
                         help="comma-separated replication factors "
                              "(default 1; clamped to 1 for algorithms "
                              "without a replication knob)")
    p_sweep.add_argument("--particles", default="64", metavar="N,N,...",
                         help="comma-separated particle counts (default 64)")
    p_sweep.add_argument("--seeds", default="0", metavar="S,S,...",
                         help="comma-separated workload seeds (default 0)")
    p_sweep.add_argument("--rcut", type=float, default=None,
                         help="cutoff radius (required by cutoff-windowed "
                              "algorithms; omit to skip them)")
    p_sweep.add_argument("--dim", type=int, default=None)
    p_sweep.add_argument("--hyper-k", type=int, default=None,
                         help="hypercube fan-out k where applicable")
    p_sweep.add_argument(
        "--engine-tier", default="event", choices=["event", "heuristic"],
        help="simulator tier for every sweep point")
    _add_resilience_flags(p_sweep)
    p_sweep.add_argument("--quarantine", default=None, metavar="FILE",
                         help="write tasks that failed every attempt to a "
                              "replayable JSON artifact at FILE")
    p_sweep.add_argument("--out", default=None, metavar="FILE",
                         help="write the sweep records as JSON to FILE")
    p_sweep.add_argument("--expect-cached", action="store_true",
                         help="fail (exit 1) if any sweep point was NOT "
                              "served from the cache — CI uses this to "
                              "prove a warm cache does zero recomputation")

    p_serve = sub.add_parser(
        "serve",
        help="run the sweep-orchestration service: an HTTP job queue "
             "that dedupes against the run cache and in-flight jobs, "
             "with /stats counters and an HTML /dashboard")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1; the "
                              "service has no auth — keep it local)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (default 8321; 0 picks an "
                              "ephemeral port and prints it)")
    _add_resilience_flags(p_serve)
    p_serve.add_argument("--quarantine", default=None, metavar="FILE",
                         help="write jobs that failed every attempt to a "
                              "replayable JSON artifact at FILE")

    return parser


def _machine(name: str, p: int):
    from repro.machines import GenericTorus, Hopper, Intrepid, node_cores

    factory = {"hopper": Hopper, "intrepid": Intrepid}.get(name, GenericTorus)
    return factory(p, cores_per_node=node_cores(name, p))


def _cmd_figures(args, out) -> int:
    from repro.experiments import (PAPER_FIGURES, chart_figure, export_csv,
                                   export_json, render_figure, run_figure)

    ids = args.ids or sorted(PAPER_FIGURES)
    unknown = [f for f in ids if f not in PAPER_FIGURES]
    if unknown:
        print(f"unknown figure ids: {', '.join(unknown)} "
              f"(known: {', '.join(sorted(PAPER_FIGURES))})", file=sys.stderr)
        return 2
    if args.chart:
        renderer = chart_figure
    else:
        renderer = {"table": render_figure, "csv": export_csv,
                    "json": export_json}[args.fmt]
    for fid in ids:
        print(renderer(run_figure(PAPER_FIGURES[fid])), file=out)
        print(file=out)
    return 0


def _cmd_validate(args, out) -> int:
    from repro.experiments import PAPER_FIGURES, render_figure, validate_figure

    if args.figure not in PAPER_FIGURES:
        print(f"unknown figure id {args.figure!r}", file=sys.stderr)
        return 2
    cs = tuple(int(x) for x in args.cs.split(","))
    res = validate_figure(PAPER_FIGURES[args.figure], p=args.ranks,
                          n=args.particles, cs=cs)
    print(f"[event simulation: {args.ranks} ranks, {args.particles} "
          f"particles]", file=out)
    print(render_figure(res), file=out)
    return 0


def _cmd_tune(args, out) -> int:
    from repro.core import autotune_c

    machine = _machine(args.machine, args.ranks)
    kwargs = {}
    if args.rcut is not None:
        kwargs = dict(rcut=args.rcut, box_length=1.0, dim=args.dim)
    result = autotune_c(machine, args.particles, **kwargs)
    print(machine.describe(), file=out)
    print(result.summary(), file=out)
    print(f"chosen replication factor: c = {result.best_c}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    import numpy as np

    from repro.core import (
        SimulationConfig,
        allpairs_config,
        cutoff_config,
        run_simulation,
        team_blocks_even,
        team_blocks_spatial,
    )
    from repro.physics import (
        ForceLaw,
        ParticleSet,
        kinetic_energy,
        potential_energy,
    )

    machine = _machine("generic", args.ranks)
    law = ForceLaw(k=1e-5, softening=5e-3)
    particles = ParticleSet.uniform_random(
        args.particles, args.dim, 1.0, max_speed=0.02, seed=args.seed
    )
    if args.rcut is None:
        cfg = allpairs_config(args.ranks, args.replication)
        blocks = team_blocks_even(particles, cfg.grid.nteams)
        elaw = law
    else:
        cfg = cutoff_config(args.ranks, args.replication, rcut=args.rcut,
                            box_length=1.0, dim=args.dim,
                            periodic=args.periodic)
        blocks = team_blocks_spatial(particles, cfg.geometry)
        elaw = law.with_rcut(args.rcut)
        if args.periodic:
            elaw = elaw.with_box(1.0)
    scfg = SimulationConfig(cfg=cfg, law=law, dt=args.dt, nsteps=args.steps,
                            box_length=1.0, periodic=args.periodic,
                            integrator=args.integrator)

    faults = parse_faults(args.faults) if args.faults else None
    policy = None
    if args.checkpoint_dir is not None:
        from repro.core import CheckpointPolicy

        policy = CheckpointPolicy(directory=args.checkpoint_dir,
                                  every=args.checkpoint_every)

    e0 = kinetic_energy(particles.vel) + potential_energy(elaw, particles.pos)
    result = run_simulation(machine, scfg, blocks if args.resume_from is None
                            else None, faults=faults, checkpoint=policy,
                            resume_from=args.resume_from)
    final = result.particles
    e1 = kinetic_energy(final.vel) + potential_energy(elaw, final.pos)

    print(f"{args.steps} steps of {len(final)} particles on "
          f"{machine.describe()}", file=out)
    if faults is not None:
        deaths = result.run.deaths
        if deaths:
            print(f"rank deaths absorbed: "
                  + ", ".join(f"rank {r} at t={t:.3e}s"
                              for r, t in sorted(deaths.items())), file=out)
            for ev in result.recovered:
                print(f"  recovered by rank {ev.recovered_by} "
                      f"({ev.replayed_updates} updates replayed)", file=out)
        else:
            print("fault schedule injected; no rank deaths triggered",
                  file=out)
    for step, path in result.checkpoints:
        print(f"checkpoint after step {step}: {path}", file=out)
    if args.resume_from is not None:
        print(f"resumed from {args.resume_from}", file=out)
    print(f"energy drift: {100 * abs(e1 - e0) / max(abs(e0), 1e-30):.4f}%",
          file=out)
    print(f"simulated machine time: {result.run.elapsed * 1e3:.3f} ms",
          file=out)
    print(result.report.summary(), file=out)
    assert np.isfinite(final.pos).all()
    return 0


def _cmd_algorithms(args, out) -> int:
    from repro.core import get_algorithm, list_algorithms

    print(f"{'name':<22} {'c':<5} {'faults':<10} requirements",
          file=out)
    for name in list_algorithms():
        alg = get_algorithm(name)
        needs = []
        if alg.needs_rcut:
            needs.append("rcut")
        if alg.square_p:
            needs.append("square p")
        print(
            f"{name:<22} "
            f"{'yes' if alg.supports_c else 'no':<5} "
            f"{alg.fault_mode:<10} "
            f"{', '.join(needs) if needs else '-'}",
            file=out,
        )
        if alg.summary:
            print(f"    {alg.summary}", file=out)
    return 0


def _cmd_compare(args, out) -> int:
    from repro.experiments import compare_algorithms, render_comparison
    from repro.physics import ParticleSet

    machine = _machine(args.machine, args.ranks)
    particles = ParticleSet.uniform_random(args.particles, args.dim, 1.0,
                                           seed=args.seed)
    names = (None if args.algorithms is None
             else [a.strip() for a in args.algorithms.split(",") if a.strip()])
    faults = parse_faults(args.faults) if args.faults else None
    result = compare_algorithms(
        machine, particles, algorithms=names, c=args.replication,
        rcut=args.rcut, faults=faults, schedule=args.schedule,
        engine_tier=args.engine_tier, **_executor_args(args),
    )
    print(f"{len(result.entries)} algorithms on {machine.describe()}, "
          f"{args.particles} particles, c={args.replication}", file=out)
    print(render_comparison(result), file=out)
    return 0


def _cmd_profile(args, out) -> int:
    import os

    from repro.core.runner import RunSpec, get_algorithm, run
    from repro.metrics import (MetricsRegistry, resolve_algorithm,
                               write_chrome_trace)

    name = resolve_algorithm(args.algo)
    try:
        alg = get_algorithm(name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    if alg.needs_rcut and args.rcut is None:
        print(f"algorithm {name!r} needs a cutoff radius: pass --rcut",
              file=sys.stderr)
        return 2

    machine = _machine(args.machine, args.ranks)
    metrics = MetricsRegistry()
    spec = RunSpec(
        machine=machine, algorithm=name, n=args.particles,
        c=args.replication if alg.supports_c else 1,
        rcut=args.rcut, dim=args.dim, seed=args.seed, metrics=metrics,
        engine_opts={"record_events": True},
    )
    result = run(spec)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(args.out_dir, f"profile_{args.algo}")
    metrics_path = f"{stem}.metrics.json"
    with open(metrics_path, "w") as fh:
        fh.write(metrics.to_json())
        fh.write("\n")
    trace_path = write_chrome_trace(
        f"{stem}.trace.json", result.trace,
        process_name=f"repro {args.algo} p={args.ranks} "
                     f"c={spec.c} n={args.particles}",
    )

    print(f"{args.algo} on {machine.describe()}, n={args.particles}, "
          f"c={spec.c}", file=out)
    print(metrics.summary(), file=out)
    print(f"metrics JSON:  {metrics_path}", file=out)
    print(f"chrome trace:  {trace_path}  "
          "(load in https://ui.perfetto.dev or chrome://tracing)", file=out)
    return 0


def _cmd_soak(args, out) -> int:
    from repro.experiments.soak import run_soak

    report = run_soak(
        trials=args.trials,
        seed=args.seed,
        first_trial=args.first_trial,
        with_kills=not args.no_kills,
        out_dir=args.out_dir,
        time_budget=args.time_budget,
        schedule=args.schedule,
        **_executor_args(args),
    )
    print(report.summary(), file=out)
    if not report.ok:
        sched = "" if args.schedule is None else f" --schedule {args.schedule}"
        print(f"SOAK FAILED: rerun with --seed {args.seed} "
              f"--first-trial {report.failures[0].index} --trials 1{sched}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_schedfuzz(args, out) -> int:
    from repro.experiments.schedfuzz import run_schedfuzz

    names = (None if args.algorithms is None
             else [a.strip() for a in args.algorithms.split(",") if a.strip()])
    report = run_schedfuzz(
        names,
        schedules=args.schedules,
        seed=args.seed,
        first_schedule=args.first_schedule,
        out_dir=args.out_dir,
        time_budget=args.time_budget,
        **_executor_args(args),
    )
    print(report.summary(), file=out)
    if not report.ok:
        print(f"SCHEDULE FUZZ FAILED (seed={args.seed})", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args, out) -> int:
    import json

    from repro.core.runner import list_algorithms
    from repro.experiments.sweep import expand_grid, run_sweep

    def _ints(text: str) -> list[int]:
        return [int(x) for x in text.split(",") if x.strip()]

    names = ([a.strip() for a in args.algorithms.split(",") if a.strip()]
             if args.algorithms is not None else list_algorithms())
    try:
        tasks, skipped = expand_grid(
            names, ps=_ints(args.ranks), cs=_ints(args.cs),
            ns=_ints(args.particles), seeds=_ints(args.seeds),
            rcut=args.rcut, dim=args.dim, hyper_k=args.hyper_k,
            engine_tier=args.engine_tier, machine=args.machine,
        )
    except KeyError as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    for name, reason in skipped.items():
        print(f"skipped {name}: {reason}", file=out)
    if not tasks:
        print("sweep: nothing to run (every algorithm was skipped)",
              file=sys.stderr)
        return 2
    if args.expect_cached and not args.cache:
        print("sweep: --expect-cached needs --cache DIR (without a cache "
              "nothing can be served, so the assertion can never hold)",
              file=sys.stderr)
        return 2
    report = run_sweep(tasks, quarantine=args.quarantine,
                       **_executor_args(args))
    print(report.summary(), file=out)
    if args.out:
        records = [
            {"task": d,
             "status": o.status,
             "attempts": o.attempts,
             "elapsed": None if o.value is None else o.value["elapsed"],
             "critical_messages": (None if o.value is None
                                   else o.value["critical_messages"]),
             "critical_bytes": (None if o.value is None
                                else o.value["critical_bytes"]),
             "error": o.error}
            for d, o in zip(report.tasks, report.outcomes)
        ]
        with open(args.out, "w") as fh:
            json.dump({"format": "repro-sweep-v1", "records": records},
                      fh, indent=2)
            fh.write("\n")
        print(f"records JSON: {args.out}", file=out)
    if args.expect_cached:
        # "coalesced" outcomes never touched an engine either — they
        # shared an in-batch duplicate's (cached) result, so only
        # computed/failed points break the zero-recompute promise.
        recomputed = [o for o in report.outcomes
                      if o.status not in ("cached", "coalesced")]
        if recomputed:
            print(f"SWEEP NOT FULLY CACHED: {len(recomputed)} of "
                  f"{len(report.outcomes)} points recomputed "
                  f"(indices {[o.index for o in recomputed]})",
                  file=sys.stderr)
            return 1
    if not report.ok:
        print(f"SWEEP FAILED: {len(report.failures)} of "
              f"{len(report.outcomes)} points produced no result",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.service import JobQueue, serve

    queue = JobQueue(quarantine=args.quarantine, **_executor_args(args))
    announce = (lambda line: print(line, file=out, flush=True))
    try:
        asyncio.run(serve(queue, host=args.host, port=args.port,
                          announce=announce))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=out)
    except OSError as exc:
        print(f"repro serve: cannot bind {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    handler = {
        "figures": _cmd_figures,
        "validate": _cmd_validate,
        "tune": _cmd_tune,
        "simulate": _cmd_simulate,
        "algorithms": _cmd_algorithms,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
        "soak": _cmd_soak,
        "schedfuzz": _cmd_schedfuzz,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
