#!/usr/bin/env python
"""One-entry-point check (CI gate).

A registered algorithm is launched one way only:
``run(RunSpec(machine=..., algorithm="<name>", ...))``.  The gate fails
when a second way reappears:

* :mod:`repro.core` exports a ``run_*`` name other than the ``EXEMPT``
  multi-step drivers;
* any module under ``src/repro/`` binds a top-level ``run_<name>`` (a
  ``def``, or an assignment such as a ``partial`` or an alias) for a
  registered algorithm ``<name>``;
* a registry name ends in ``_virtual``: a modeled run is the real
  algorithm over a ``PhantomSet`` workload, not a second registration.

Exit status 0 when none happens; 1 with a listing of every violation
otherwise.

Usage::

    PYTHONPATH=src python tools/check_registry.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# Allow running as a plain script from the repo root.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - import plumbing
    sys.path.insert(0, str(_SRC))

#: run_* entry points that are deliberately NOT registry algorithms.
EXEMPT = {
    "run_simulation": "multi-timestep driver, not a single-step algorithm",
    "run_simulation_virtual": "multi-timestep driver over phantom blocks "
                              "with a modeled reassign phase",
}


def _top_level_names(tree: ast.Module):
    """``(name, lineno)`` of every top-level def / assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.lineno


def problems(src_root: Path = _SRC) -> list[str]:
    """Every second entry point found under ``src_root/repro``."""
    import repro.core as core
    from repro.core import list_algorithms

    found = [
        f"repro.core exports {name}; launch registered algorithms "
        f"through run(RunSpec(...))"
        for name in sorted(core.__all__)
        if name.startswith("run_") and name not in EXEMPT
    ]
    found += [
        f"registry name {name!r} ends in '_virtual'; run the real algorithm "
        f"over a PhantomSet workload instead of registering a modeled twin"
        for name in list_algorithms() if name.endswith("_virtual")
    ]
    shims = {f"run_{name}" for name in list_algorithms()}
    for path in sorted((src_root / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, lineno in _top_level_names(tree):
            if name in shims:
                found.append(
                    f"{path.relative_to(src_root)}:{lineno} defines {name}, "
                    f"a second entry point for registered algorithm "
                    f"{name[len('run_'):]!r}")
    return found


def main() -> int:
    from repro.core import list_algorithms

    found = problems()
    if found:
        print("one-entry-point check FAILED:", file=sys.stderr)
        for p in found:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"one-entry-point check OK: {len(list_algorithms())} algorithms "
          f"launched through run(RunSpec(...)); exempt drivers: "
          f"{', '.join(sorted(EXEMPT))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
