#!/usr/bin/env python
"""Communication-volume lock + model validation (CI gate).

Two checks, both about keeping the paper's quantitative claims honest:

1. **Comm-volume lock** — every registered algorithm runs at a pinned
   configuration on *both* engine tiers (the exact event simulator and
   the vectorized heuristic tier, which promises identical traffic), and
   the measured per-rank maxima and run totals must equal
   ``benchmarks/METRICS_LOCK.json`` bit for bit on each.
   Any change to an algorithm's communication volume — intended or not —
   shows up as a diff here and must be re-recorded with ``--update``,
   making comm-volume changes reviewable instead of silent.  An algorithm
   registered but missing from the lock fails the gate, so the lock can't
   lag the registry.

2. **Model validation** — :func:`repro.metrics.validate.validate_models`
   sweeps (p, c, n) per algorithm and checks measured S (messages) and W
   (words) against the closed forms in :mod:`repro.theory` within
   constant-factor tolerance bands (see ``docs/observability.md``) —
   again on both engine tiers.

Usage::

    PYTHONPATH=src python tools/metrics_gate.py            # check (CI)
    PYTHONPATH=src python tools/metrics_gate.py --update   # re-record lock
    PYTHONPATH=src python tools/metrics_gate.py --skip-models

Exit status 0 when both checks hold; 1 otherwise with a full listing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running as a plain script from the repo root.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - import plumbing
    sys.path.insert(0, str(_SRC))

LOCK_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "METRICS_LOCK.json"

#: The pinned measurement configuration.  Frozen: changing it invalidates
#: every recorded volume at once (re-record with --update and explain in
#: the PR).  p=16 is square (force decomposition) and rcut=0.3 satisfies
#: the cutoff-windowed algorithms.
PINNED = {"p": 16, "n": 64, "c": 2, "rcut": 0.3, "seed": 0}

#: Extra pinned configurations beyond the one-size-fits-all PINNED run:
#: the d-dimensional cutoff window (Section IV-C) on a 2-D and a 3-D
#: team grid, and the three CA algorithms over a ``PhantomSet(n, dim)``
#: workload (``"phantom": True``).  Locked on both engine tiers like the
#: per-algorithm table.
EXTRA_CASES = {
    "allpairs_phantom": {"algorithm": "allpairs", "p": 16, "n": 64, "c": 2,
                         "rcut": None, "dim": 2, "seed": 0, "phantom": True},
    "cutoff_phantom": {"algorithm": "cutoff", "p": 16, "n": 64, "c": 2,
                       "rcut": 0.3, "dim": 1, "seed": 0, "phantom": True},
    "symmetric_phantom": {"algorithm": "symmetric", "p": 16, "n": 64,
                          "c": 2, "rcut": None, "dim": 2, "seed": 0,
                          "phantom": True},
    "cutoff_dim2": {"algorithm": "cutoff", "p": 16, "n": 64, "c": 2,
                    "rcut": 0.3, "dim": 2, "seed": 0},
    "cutoff_dim3": {"algorithm": "cutoff", "p": 27, "n": 81, "c": 1,
                    "rcut": 0.3, "dim": 3, "seed": 0},
}


def measure(name: str, engine_tier: str = "event") -> dict:
    """One algorithm's exact comm volume at the pinned configuration.

    Traffic is exact on *both* engine tiers — the heuristic tier promises
    the event simulator's message/byte counts to the bit, so the same
    lock gates both.
    """
    from repro.core.runner import RunSpec, get_algorithm, run
    from repro.machines import GenericMachine

    alg = get_algorithm(name)
    spec = RunSpec(
        machine=GenericMachine(nranks=PINNED["p"]),
        algorithm=name,
        n=PINNED["n"],
        c=PINNED["c"] if alg.supports_c else 1,
        rcut=PINNED["rcut"] if alg.needs_rcut else None,
        seed=PINNED["seed"],
        engine_tier=engine_tier,
    )
    return _volumes(run(spec).report)


def measure_case(case: dict, engine_tier: str = "event") -> dict:
    """One :data:`EXTRA_CASES` configuration's exact comm volume."""
    from repro.core.runner import RunSpec, run
    from repro.machines import GenericMachine
    from repro.physics.particles import PhantomSet

    spec = RunSpec(
        machine=GenericMachine(nranks=case["p"]),
        algorithm=case["algorithm"],
        particles=(PhantomSet(case["n"], case["dim"])
                   if case.get("phantom") else None),
        n=case["n"],
        c=case["c"],
        rcut=case["rcut"],
        dim=case["dim"],
        seed=case["seed"],
        engine_tier=engine_tier,
    )
    return _volumes(run(spec).report)


def _volumes(report) -> dict:
    total_messages = 0
    total_bytes = 0
    for tr in report.traces:
        for tot in tr.phases.values():
            total_messages += tot.messages_sent
            total_bytes += tot.bytes_sent
    return {
        "critical_messages": int(report.critical_messages()),
        "critical_bytes": int(report.critical_bytes()),
        "total_messages": int(total_messages),
        "total_bytes": int(total_bytes),
    }


def measure_all(engine_tier: str = "event") -> dict:
    from repro.core.runner import list_algorithms

    return {name: measure(name, engine_tier) for name in list_algorithms()}


def check_lock(problems: list[str]) -> None:
    """Compare measured volumes against the committed lock, exactly."""
    if not LOCK_PATH.exists():
        problems.append(
            f"{LOCK_PATH.name} does not exist — record it with "
            "'python tools/metrics_gate.py --update'"
        )
        return
    lock = json.loads(LOCK_PATH.read_text())
    if lock.get("config") != PINNED:
        problems.append(
            f"lock config {lock.get('config')} != pinned {PINNED} — "
            "re-record with --update"
        )
        return
    locked = lock.get("algorithms", {})
    for engine_tier in ("event", "heuristic"):
        measured = measure_all(engine_tier)
        for name in sorted(set(locked) | set(measured)):
            if name not in locked:
                problems.append(
                    f"algorithm {name!r} is registered but has no locked "
                    "comm volume — record it with --update"
                )
                continue
            if name not in measured:
                problems.append(
                    f"lock entry {name!r} is no longer a registered "
                    "algorithm — drop it with --update"
                )
                continue
            for key, want in locked[name].items():
                got = measured[name].get(key)
                if got != want:
                    problems.append(
                        f"[{engine_tier}] {name}.{key}: measured {got}, "
                        f"locked {want} — comm volume changed; if intended, "
                        "re-record with --update"
                    )
        locked_extra = lock.get("extra_cases", {})
        for cname, case in EXTRA_CASES.items():
            entry = locked_extra.get(cname)
            if entry is None:
                problems.append(
                    f"extra case {cname!r} has no locked comm volume — "
                    "record it with --update")
                continue
            if entry.get("config") != case:
                problems.append(
                    f"extra case {cname!r} config changed (locked "
                    f"{entry.get('config')}, pinned {case}) — re-record "
                    "with --update")
                continue
            got_case = measure_case(case, engine_tier)
            for key, want in entry.get("volumes", {}).items():
                got = got_case.get(key)
                if got != want:
                    problems.append(
                        f"[{engine_tier}] extra case {cname}.{key}: "
                        f"measured {got}, locked {want} — comm volume "
                        "changed; if intended, re-record with --update")
        for cname in locked_extra:
            if cname not in EXTRA_CASES:
                problems.append(
                    f"locked extra case {cname!r} is no longer pinned — "
                    "drop it with --update")
        if not problems:
            print(f"comm-volume lock OK [{engine_tier} tier]: "
                  f"{len(measured)} algorithms + {len(EXTRA_CASES)} extra "
                  f"cases match {LOCK_PATH.name}")


def update_lock() -> None:
    measured = measure_all()
    extra = {name: {"config": case, "volumes": measure_case(case)}
             for name, case in EXTRA_CASES.items()}
    LOCK_PATH.parent.mkdir(exist_ok=True)
    LOCK_PATH.write_text(json.dumps(
        {"schema": 1, "config": PINNED, "algorithms": measured,
         "extra_cases": extra},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"recorded comm volumes of {len(measured)} algorithms and "
          f"{len(extra)} extra cases to {LOCK_PATH}")


def check_models(problems: list[str]) -> None:
    from repro.metrics.validate import validate_models

    for engine_tier in ("event", "heuristic"):
        report = validate_models(engine_tier=engine_tier)
        print(f"model validation [{engine_tier} tier]:")
        print(report.summary())
        if not report.ok:
            for cv in report.cases:
                for msg in cv.failures:
                    problems.append(
                        f"model {cv.case.name} [{engine_tier}]: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="re-record the comm-volume lock instead of checking")
    ap.add_argument("--skip-models", action="store_true",
                    help="only run the comm-volume lock check")
    args = ap.parse_args(argv)

    problems: list[str] = []
    if args.update:
        update_lock()
    else:
        check_lock(problems)
    if not args.skip_models:
        check_models(problems)

    if problems:
        print("metrics gate FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
