"""Per-rank, per-phase virtual-time and traffic accounting.

The paper's evaluation plots are stacked breakdowns of execution time per
timestep into *Computation*, *Communication (Shift)*, *Communication
(Reduce)*, and — with a cutoff — *Communication (Re-assign)*.  The tracer
reproduces exactly that attribution: every blocking operation a rank performs
is charged to the phase label that was active when the operation was issued,
and message/byte counters are kept per phase as well so the theoretical cost
expressions (S, W) can be checked against observed traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NullTrace", "PhaseTotals", "RankTrace", "TimelineEvent",
           "TraceReport", "RECOVER_PHASE", "RETRY_PHASE", "timeline_to_json"]

#: Phase label applied when the program has not pushed any phase.
DEFAULT_PHASE = "other"

#: Phase charged with retransmit traffic under fault injection (dropped or
#: checksum-rejected transfers); kept separate from the algorithm phases so
#: fault overhead is visible in every breakdown.
RETRY_PHASE = "retry"

#: Phase charged with replication-aware recovery work (failure sync, block
#: re-fetch, replayed updates, degraded reductions).
RECOVER_PHASE = "recover"


@dataclass
class PhaseTotals:
    """Aggregated activity within one phase on one rank."""

    seconds: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Retransmissions charged to this phase: dropped transfers plus
    #: checksum-rejected deliveries, each re-sent on the wire.
    retries: int = 0
    #: Deliveries that were corrupted in flight, caught by the payload CRC,
    #: and replaced by a clean retransmit (counted at the receiver).
    redelivered: int = 0

    def merge(self, other: "PhaseTotals") -> None:
        """Add another phase's totals into this one (field-wise sum)."""
        self.seconds += other.seconds
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.retries += other.retries
        self.redelivered += other.redelivered


@dataclass
class RankTrace:
    """All phase totals for one rank."""

    rank: int
    phases: dict[str, PhaseTotals] = field(default_factory=dict)

    def phase(self, label: str) -> PhaseTotals:
        """Get-or-create this rank's totals for phase ``label``."""
        tot = self.phases.get(label)
        if tot is None:
            tot = self.phases[label] = PhaseTotals()
        return tot

    def add_time(self, label: str, seconds: float) -> None:
        self.phase(label).seconds += seconds

    def add_send(self, label: str, nbytes: int) -> None:
        """Charge one sent message of ``nbytes`` to phase ``label``."""
        tot = self.phase(label)
        tot.messages_sent += 1
        tot.bytes_sent += nbytes

    def add_recv(self, label: str, nbytes: int) -> None:
        """Charge one received message of ``nbytes`` to phase ``label``."""
        tot = self.phase(label)
        tot.messages_received += 1
        tot.bytes_received += nbytes

    def add_retry(self, label: str, nbytes: int) -> None:
        """Charge one retransmission: an extra message + bytes on the wire."""
        tot = self.phase(label)
        tot.messages_sent += 1
        tot.bytes_sent += nbytes
        tot.retries += 1

    def add_redelivery(self, label: str) -> None:
        """Record one checksum-caught corruption replaced by a clean copy."""
        self.phase(label).redelivered += 1

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.phases.values())


class _NullPhaseTotals(PhaseTotals):
    """A write-only accumulator: additions land here and are never read."""

    __slots__ = ()


class NullTrace:
    """A do-nothing stand-in for :class:`RankTrace`.

    Installed on every rank when the engine runs with
    ``record_phases=False``: accounting calls hit these no-ops instead of
    branching at every call site, so the hot path stays straight-line and
    per-phase dictionaries are never built.  One shared instance serves all
    ranks (it holds no state worth reading).
    """

    __slots__ = ("_sink",)

    rank = -1
    phases: dict[str, PhaseTotals] = {}
    total_seconds = 0.0

    def __init__(self):
        self._sink = _NullPhaseTotals()

    def phase(self, label: str) -> PhaseTotals:
        return self._sink

    def add_time(self, label: str, seconds: float) -> None:
        pass

    def add_send(self, label: str, nbytes: int) -> None:
        pass

    def add_recv(self, label: str, nbytes: int) -> None:
        pass

    def add_retry(self, label: str, nbytes: int) -> None:
        pass

    def add_redelivery(self, label: str) -> None:
        pass


class TraceReport:
    """Cross-rank view over the per-rank traces of one simulation run."""

    def __init__(self, traces: list[RankTrace]):
        self.traces = traces

    @property
    def nranks(self) -> int:
        return len(self.traces)

    def phase_labels(self) -> list[str]:
        """Every phase label seen, in first-appearance order across ranks."""
        labels: list[str] = []
        for tr in self.traces:
            for lab in tr.phases:
                if lab not in labels:
                    labels.append(lab)
        return labels

    def max_time(self, label: str) -> float:
        """Maximum over ranks of time spent in ``label`` (critical-path proxy)."""
        return max((tr.phases[label].seconds for tr in self.traces if label in tr.phases), default=0.0)

    def mean_time(self, label: str) -> float:
        """Mean over ranks of virtual seconds spent in phase ``label``."""
        if not self.traces:
            return 0.0
        return sum(tr.phases.get(label, PhaseTotals()).seconds for tr in self.traces) / len(self.traces)

    def max_messages(self, label: str) -> int:
        """Max over ranks of messages *sent* in ``label`` — the latency cost S."""
        return max(
            (tr.phases[label].messages_sent for tr in self.traces if label in tr.phases),
            default=0,
        )

    def max_bytes(self, label: str) -> int:
        """Max over ranks of bytes sent in ``label`` — the bandwidth cost W."""
        return max(
            (tr.phases[label].bytes_sent for tr in self.traces if label in tr.phases),
            default=0,
        )

    def total_retries(self, label: str | None = None) -> int:
        """Retransmissions across ranks, in ``label`` or in all phases."""
        if label is None:
            return sum(t.retries for tr in self.traces for t in tr.phases.values())
        return sum(
            tr.phases[label].retries for tr in self.traces if label in tr.phases
        )

    def total_redelivered(self, label: str | None = None) -> int:
        """Checksum-caught redeliveries across ranks (``label`` or all)."""
        if label is None:
            return sum(
                t.redelivered for tr in self.traces for t in tr.phases.values()
            )
        return sum(
            tr.phases[label].redelivered for tr in self.traces if label in tr.phases
        )

    def total_messages(self) -> int:
        return sum(
            tot.messages_sent for tr in self.traces for tot in tr.phases.values()
        )

    def total_bytes(self) -> int:
        return sum(tot.bytes_sent for tr in self.traces for tot in tr.phases.values())

    def critical_messages(self) -> int:
        """Max over ranks of total messages sent (all phases)."""
        return max(
            (sum(t.messages_sent for t in tr.phases.values()) for tr in self.traces),
            default=0,
        )

    def critical_bytes(self) -> int:
        """Max over ranks of total bytes sent (all phases)."""
        return max(
            (sum(t.bytes_sent for t in tr.phases.values()) for tr in self.traces),
            default=0,
        )

    def breakdown(self) -> dict[str, float]:
        """Phase label -> max-over-ranks seconds, in first-seen label order."""
        return {lab: self.max_time(lab) for lab in self.phase_labels()}

    def phase_table(self) -> dict[str, dict[str, float]]:
        """Per-phase accounting as plain data, in first-seen label order.

        Each entry maps a phase label to ``max_s`` / ``mean_s`` (seconds)
        and ``max_messages`` / ``max_bytes`` (per-rank maxima — the paper's
        S and W cost terms).  This is the machine-readable form of
        :meth:`summary`, consumed by the cross-algorithm comparison
        harness and the CLI.
        """
        return {
            lab: {
                "max_s": self.max_time(lab),
                "mean_s": self.mean_time(lab),
                "max_messages": self.max_messages(lab),
                "max_bytes": self.max_bytes(lab),
                "retries": self.total_retries(lab),
                "redelivered": self.total_redelivered(lab),
            }
            for lab in self.phase_labels()
        }

    def summary(self) -> str:
        """The per-phase table: max/mean seconds, traffic maxima, retries."""
        lines = [
            f"{'phase':<12} {'max(s)':>12} {'mean(s)':>12} {'maxmsgs':>8} "
            f"{'maxbytes':>12} {'retries':>8} {'redeliv':>8}"
        ]
        for lab in self.phase_labels():
            lines.append(
                f"{lab:<12} {self.max_time(lab):>12.6f} {self.mean_time(lab):>12.6f} "
                f"{self.max_messages(lab):>8d} {self.max_bytes(lab):>12d} "
                f"{self.total_retries(lab):>8d} {self.total_redelivered(lab):>8d}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TimelineEvent:
    """One timestamped activity on one rank (optional engine recording).

    ``kind`` is ``compute`` (local work), ``wait`` (blocked in a wait),
    ``xfer`` (a completed transfer, recorded on both endpoints), or
    ``hwcoll`` (a hardware collective).  ``peer`` is the other endpoint of
    a transfer, -1 otherwise.
    """

    rank: int
    phase: str
    kind: str
    t_start: float
    t_end: float
    nbytes: int = 0
    peer: int = -1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def timeline_to_json(events: list[TimelineEvent]) -> str:
    """Serialize a recorded timeline, sorted by start time then rank.

    The format is a plain JSON array of objects — easy to feed to any
    Gantt/trace viewer or to pandas.
    """
    import json

    rows = [
        {
            "rank": e.rank,
            "phase": e.phase,
            "kind": e.kind,
            "t_start": e.t_start,
            "t_end": e.t_end,
            "nbytes": e.nbytes,
            "peer": e.peer,
        }
        for e in sorted(events, key=lambda e: (e.t_start, e.rank, e.t_end))
    ]
    return json.dumps(rows, indent=1)
