"""Spans, Chrome-trace export and cProfile module attribution for the harness.

Everything here observes the program from outside: spans wrap calls the
harness itself makes into public functions, and the attribution reads a
``cProfile`` run of one untouched pass.  Nothing in ``src/`` is patched.
"""

from __future__ import annotations

import json
import pstats
import threading
import time
from contextlib import contextmanager

#: Source-path fragments -> layer, most specific first.  A layer is a
#: directory (or one file), so the attribution survives renames inside it.
LAYER_PATHS = (
    ("/repro/core/commsched.py", "core.commsched"),
    ("/repro/physics/", "physics"),
    ("/repro/simmpi/", "simmpi"),
    ("/repro/core/runcache.py", "core.runcache"),
    ("/repro/core/parallel.py", "core.parallel"),
    ("/repro/core/", "core"),
    ("/repro/experiments/", "experiments"),
    ("/repro/service/", "service"),
    ("/repro/", "repro.other"),
)


class Spans:
    """In-memory span recorder; one stack per thread, written out at exit.

    A span is ``(name, start, end, parent, pass_id)``: ``parent`` is the
    index of the enclosing span on the same thread (``None`` at top level)
    and ``pass_id`` groups the spans of one pass / one job.
    """

    def __init__(self):
        self.events: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, pass_id: int | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        event = {"name": name, "parent": stack[-1] if stack else None,
                 "pass": pass_id, "tid": threading.get_ident()}
        with self._lock:
            event["id"] = len(self.events)
            self.events.append(event)
        stack.append(event["id"])
        event["start"] = time.perf_counter()
        try:
            yield event
        finally:
            event["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        """Duration in seconds of every finished span called ``name``."""
        return [e["end"] - e["start"] for e in self.events
                if e["name"] == name and "end" in e]

    def per_pass(self, *names: str) -> list[float]:
        """Summed duration of the named spans per pass id, in pass order."""
        sums: dict = {}
        for e in self.events:
            if e["name"] in names and "end" in e and e["pass"] is not None:
                sums[e["pass"]] = sums.get(e["pass"], 0.0) + e["end"] - e["start"]
        return [sums[k] for k in sorted(sums)]

    def write_chrome(self, path: str, other: dict) -> None:
        """Write the spans as Chrome-trace JSON (open in Perfetto / chrome://tracing).

        ``other`` (the run's per-layer metrics and host record) travels in
        the format's free-form ``otherData`` block.
        """
        done = [e for e in self.events if "end" in e]
        origin = min((e["start"] for e in done), default=0.0)
        tids = {tid: i for i, tid in enumerate(sorted({e["tid"] for e in done}))}
        events = [{
            "name": e["name"], "cat": e["name"].rsplit(".", 1)[0], "ph": "X",
            "ts": (e["start"] - origin) * 1e6,
            "dur": (e["end"] - e["start"]) * 1e6,
            "pid": 1, "tid": tids[e["tid"]],
            "args": {"id": e["id"], "parent": e["parent"], "pass": e["pass"]},
        } for e in done]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other}, fh)


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to (``None``: not the program's)."""
    for fragment, layer in LAYER_PATHS:
        if fragment in filename:
            return layer
    return None


def attribute_profile(profile) -> tuple[dict, dict]:
    """Self time and call counts per layer from one ``cProfile`` run.

    A function's self time goes to its own layer.  Time inside foreign
    code (NumPy, builtins, stdlib) goes to the nearest *calling* layer,
    found by walking the profile's caller edges — otherwise the kernel's
    NumPy work would count for nobody.  Foreign time no layer called is
    reported under ``"harness"``.  Returns ``(seconds, calls)``.
    """
    stats = pstats.Stats(profile).stats
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}

    def give(func, amount: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] = seconds.get(layer, 0.0) + amount
            return
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[3] for edge in callers.values())
        if not callers or weight <= 0 or depth > 12:
            seconds["harness"] = seconds.get("harness", 0.0) + amount
            return
        for caller, edge in callers.items():
            give(caller, amount * edge[3] / weight, depth + 1)

    for func, (_cc, ncalls, self_time, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] = seconds.get(layer, 0.0) + self_time
            calls[layer] = calls.get(layer, 0) + ncalls
        elif callers:
            # Per-caller self time is exact; only the walk above it is shared out.
            for caller, edge in callers.items():
                give(caller, edge[2], 0)
        else:
            seconds["harness"] = seconds.get("harness", 0.0) + self_time
    return seconds, calls


def profile_calls(profile, path_fragment: str, function: str) -> int:
    """How often ``function`` in a file matching ``path_fragment`` ran."""
    return sum(entry[1] for func, entry in pstats.Stats(profile).stats.items()
               if func[2] == function and path_fragment in func[0])
