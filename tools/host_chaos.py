#!/usr/bin/env python
"""Host-level chaos gate: kill real workers, demand bitwise-identical results.

Where ``python -m repro soak`` injects faults into the *simulated* machine,
this gate injects them into the *host* executor: the ``REPRO_HOST_CHAOS``
hook (see ``repro.core.parallel``) SIGKILLs, hangs, or crashes worker
processes mid-task, deterministically in ``(seed, task index, attempt)``.
Three legs, each asserting the purity contract — a sweep's merged output
must not depend on how many times its workers died:

1. **Sweep parity** — a small configuration sweep runs serially (the
   reference), then again across ``--workers`` processes while chaos
   SIGKILLs workers mid-task; with retries the merged records must be
   bitwise identical to the serial reference.
2. **Soak parity** — the chaos-soak campaign (simulated faults +
   checkpoint/resume) runs serially, then under the same host chaos; the
   per-trial verdicts must agree exactly.
3. **Poison quarantine** — chaos set to kill *every* attempt makes every
   sweep task a poison task; the gate asserts they all land in the
   replayable quarantine artifact (uploaded by CI), then replays the
   artifact with chaos lifted and demands the recovered records match the
   serial reference bitwise.

Usage::

    PYTHONPATH=src python tools/host_chaos.py --out-dir chaos-artifacts

Exit status is non-zero on any parity break or quarantine miss.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys


def _digest(report) -> str:
    """Canonical digest of a sweep report's task records (order included)."""
    h = hashlib.sha256()
    for desc, outcome in zip(report.tasks, report.outcomes):
        h.update(repr(sorted(desc.items())).encode())
        v = outcome.value
        if v is None:
            h.update(b"<no value>")
            continue
        h.update(repr((v["fingerprint"], v["elapsed"],
                       v["critical_messages"], v["critical_bytes"],
                       v["forces_dtype"], v["forces_shape"],
                       v["ids_dtype"])).encode())
        h.update(v["forces"] or b"")
        h.update(v["ids"] or b"")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--retry", type=int, default=3, metavar="K",
                        help="retries per task after the first attempt "
                             "(default 3)")
    parser.add_argument("--task-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-task hang timeout (default 60)")
    parser.add_argument("--chaos-p", type=float, default=0.5,
                        help="per-attempt worker-kill probability "
                             "(default 0.5)")
    parser.add_argument("--chaos-seed", type=int, default=11)
    parser.add_argument("--soak-trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0,
                        help="soak campaign seed")
    parser.add_argument("--out-dir", default="chaos-artifacts", metavar="DIR",
                        help="quarantine + failure artifacts land here "
                             "(CI uploads it; default chaos-artifacts)")
    parser.add_argument("--skip-soak", action="store_true",
                        help="run only the sweep-parity and poison legs")
    args = parser.parse_args(argv)

    from repro.core.parallel import HOST_CHAOS_ENV, RetryPolicy
    from repro.experiments.soak import run_soak
    from repro.experiments.sweep import expand_grid, run_sweep

    os.makedirs(args.out_dir, exist_ok=True)
    retry = RetryPolicy(max_attempts=args.retry + 1, base_delay=0.05)
    tasks, _skipped = expand_grid(
        ["allpairs", "symmetric"], ps=(8,), cs=(1, 2), ns=(24,), seeds=(0,))
    failures = 0
    saved = os.environ.get(HOST_CHAOS_ENV)

    def _chaos(spec: str | None) -> None:
        if spec is None:
            os.environ.pop(HOST_CHAOS_ENV, None)
        else:
            os.environ[HOST_CHAOS_ENV] = spec

    try:
        # Leg 1: sweep parity under worker SIGKILLs.
        _chaos(None)
        reference = run_sweep(tasks)
        want = _digest(reference)
        _chaos(f"p={args.chaos_p},seed={args.chaos_seed},mode=kill")
        chaotic = run_sweep(tasks, workers=args.workers, retry=retry,
                            task_timeout=args.task_timeout)
        got = _digest(chaotic)
        retried = sum(1 for o in chaotic.outcomes if o.attempts > 1)
        print(f"sweep parity: {len(tasks)} tasks, {retried} retried after "
              f"worker kills, digest {'MATCH' if got == want else 'MISMATCH'}")
        if got != want or not chaotic.ok:
            print(chaotic.summary(), file=sys.stderr)
            print(f"HOST CHAOS FAILED: sweep under worker kills diverged "
                  f"from serial reference ({got} != {want})", file=sys.stderr)
            failures += 1

        # Leg 2: soak parity — simulated faults *and* host chaos at once.
        if not args.skip_soak:
            _chaos(None)
            ref_soak = run_soak(trials=args.soak_trials, seed=args.seed,
                                out_dir=os.path.join(args.out_dir, "serial"))
            _chaos(f"p={args.chaos_p},seed={args.chaos_seed},mode=kill")
            chaos_soak = run_soak(
                trials=args.soak_trials, seed=args.seed,
                out_dir=os.path.join(args.out_dir, "chaos"),
                workers=args.workers, retry=retry,
                task_timeout=args.task_timeout)
            same = ref_soak.trials == chaos_soak.trials
            print(f"soak parity: {args.soak_trials} trials, verdicts "
                  f"{'MATCH' if same else 'MISMATCH'}")
            if not same or not chaos_soak.ok:
                print(chaos_soak.summary(), file=sys.stderr)
                print("HOST CHAOS FAILED: soak verdicts under worker kills "
                      "diverged from the serial campaign", file=sys.stderr)
                failures += 1

        # Leg 3: poison tasks -> quarantine -> replay clean.
        quarantine = os.path.join(args.out_dir, "quarantine.json")
        _chaos(f"p=1.0,seed={args.chaos_seed},mode=raise,attempts=9999")
        poisoned = run_sweep(tasks, workers=args.workers,
                             retry=RetryPolicy(max_attempts=2,
                                               base_delay=0.01),
                             quarantine=quarantine)
        n_quarantined = sum(1 for o in poisoned.outcomes if o.quarantined)
        print(f"poison leg: {n_quarantined}/{len(tasks)} tasks quarantined "
              f"-> {quarantine}")
        if n_quarantined != len(tasks) or not os.path.exists(quarantine):
            print("HOST CHAOS FAILED: poison tasks did not all reach the "
                  "quarantine artifact", file=sys.stderr)
            failures += 1
        else:
            from repro.experiments.sweep import replay_quarantine

            _chaos(None)
            replayed = replay_quarantine(quarantine)
            same = _digest(replayed) == want
            print(f"replay leg: quarantined tasks replayed clean, digest "
                  f"{'MATCH' if same else 'MISMATCH'}")
            if not same:
                print("HOST CHAOS FAILED: quarantine replay diverged from "
                      "the serial reference", file=sys.stderr)
                failures += 1
    finally:
        _chaos(saved)

    if failures:
        return 1
    print("host chaos gate: all legs passed (results independent of worker "
          "deaths, hangs and poison tasks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
