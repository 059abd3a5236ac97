"""Runtime autotuning of the replication factor ``c``.

The paper leaves open "the question of how to select the replication factor
c, which ... can be autotuned at runtime by trying multiple factors".  This
module implements that future-work item: it enumerates the feasible
replication factors for a machine/problem, measures each with a cheap
step over a phantom workload — or a user-supplied measurement function —
and ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.runner import RunSpec, run
from repro.physics.particles import PhantomSet
from repro.util import require

__all__ = ["TuningResult", "autotune_c", "candidate_cs"]


def candidate_cs(p: int, *, max_c: int | None = None) -> list[int]:
    """Feasible replication factors: divisors ``c`` of ``p`` with
    ``c <= sqrt(p)`` (the paper's memory-replication range), optionally
    capped at ``max_c``."""
    require(p >= 1, "p must be >= 1")
    out = []
    c = 1
    while c * c <= p:
        if p % c == 0 and (max_c is None or c <= max_c):
            out.append(c)
        c += 1
    return out


@dataclass
class TuningResult:
    """Ranked measurements from an autotuning sweep."""

    #: (c, modeled seconds per step), best first.
    ranked: list[tuple[int, float]]

    @property
    def best_c(self) -> int:
        return self.ranked[0][0]

    @property
    def best_time(self) -> float:
        return self.ranked[0][1]

    def time_of(self, c: int) -> float:
        """Modeled time per step at replication ``c`` (KeyError if unmeasured)."""
        for cc, t in self.ranked:
            if cc == c:
                return t
        raise KeyError(f"c={c} was not measured")

    def summary(self) -> str:
        """The ranked candidates as an aligned table (best-relative times)."""
        lines = [f"{'c':>6} {'time/step':>14} {'vs best':>8}"]
        best = self.best_time
        for c, t in self.ranked:
            lines.append(f"{c:>6} {t:>14.6e} {t / best:>8.2f}x")
        return "\n".join(lines)


def autotune_c(
    machine,
    n: int,
    *,
    rcut: float | None = None,
    box_length: float | None = None,
    dim: int = 2,
    candidates: list[int] | None = None,
    measure: Callable[[int], float] | None = None,
) -> TuningResult:
    """Measure every candidate ``c`` and rank them (fastest first).

    By default each candidate is timed with one CA step over a
    ``PhantomSet(n, dim)`` on ``machine`` — all-pairs when ``rcut`` is
    ``None``, cutoff otherwise (``box_length`` required).  Pass ``measure``
    to time candidates some other way (e.g. a run over real particles); it
    receives ``c`` and returns seconds.
    """
    p = machine.nranks
    if candidates is None:
        candidates = candidate_cs(p)
    require(len(candidates) > 0, "no candidate replication factors")
    for c in candidates:
        require(p % c == 0, f"candidate c={c} does not divide p={p}")

    if measure is None:
        spec = dict(machine=machine, algorithm="allpairs",
                    particles=PhantomSet(n, dim))
        if rcut is not None:
            require(box_length is not None, "cutoff tuning needs box_length")
            spec.update(algorithm="cutoff", rcut=rcut, box_length=box_length)

        def measure(c: int) -> float:
            return run(RunSpec(c=c, **spec)).elapsed

    timed = sorted(((c, float(measure(c))) for c in candidates), key=lambda x: x[1])
    return TuningResult(ranked=timed)
