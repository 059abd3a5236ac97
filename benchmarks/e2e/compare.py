"""Summary statistics and the ``--compare`` verdicts.

The rules follow the benchmark contract: a timing is a median with its
quartiles and sample count; a metric regressed when the second median is
worse than the first by more than the metric's bound; and when the
run-to-run spread is wider than the bound and the two sets interleave the
row is ``unresolved``, never ``ok``.
"""

from __future__ import annotations

import json
import statistics


def summarize(values) -> dict:
    """Median, quartiles and sample count of ``values`` (at least one)."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def collect(result_file: dict) -> dict:
    """``{(workload, metric): [values]}`` over a file's untraced runs."""
    out: dict = {}
    for run in result_file["runs"]:
        if run["trace"]:
            continue
        for name, cell in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(cell["value"])
    return out


def failed_share(result_file: dict) -> float:
    """Failed ops over attempted ops, across every run of the file."""
    attempted = sum(r["attempted"] for r in result_file["runs"])
    return sum(r["failed"] for r in result_file["runs"]) / max(attempted, 1)


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """``(ok | regressed | unresolved, worsening)`` of set ``b`` against ``a``.

    ``worsening`` is the share of ``a``'s median by which ``b``'s median is
    worse (negative: better).
    """
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (sb["median"] - sa["median"]) / sa["median"]
    if better == "lower":
        apart = max(b) < min(a) or min(b) > max(a)
    else:
        apart = min(b) > max(a) or max(b) < min(a)
    if max(spread(sa), spread(sb)) > bound and not apart:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare_files(path_a: str, path_b: str, end_to_end: list, out=print) -> int:
    """Print one row per (metric, workload); return the process exit code."""
    with open(path_a) as fh:
        file_a = json.load(fh)
    with open(path_b) as fh:
        file_b = json.load(fh)
    a, b = collect(file_a), collect(file_b)
    bad = 0
    out(f"A = {path_a}   B = {path_b}   ratio = B median / A median (base A)")
    out(f"{'workload':22s} {'metric':16s} {'A median [q1..q3] n':>38s} "
        f"{'B median [q1..q3] n':>38s} {'B/A':>7s} {'bound':>6s} verdict")
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        for (workload, mname), va in sorted(a.items()):
            if mname != name or (workload, name) not in b:
                continue
            vb = b[(workload, name)]
            sa, sb = summarize(va), summarize(vb)
            word, _ = verdict(va, vb, metric["better"], bound)
            bad += word == "regressed"
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}..{s['q3']:.6g}] n={s['n']}"
                     for s in (sa, sb)]
            out(f"{workload:22s} {name:16s} {cells[0]:>38s} {cells[1]:>38s} "
                f"{sb['median'] / sa['median']:7.3f} {bound:6.2f} {word}"
                f"  (base {sa['median']:.6g} {metric['unit']})")
    fa, fb = failed_share(file_a), failed_share(file_b)
    out(f"failed_share: A {fa:.6g}  B {fb:.6g}"
        + ("  HIGHER in B" if fb > fa else ""))
    return 1 if bad or fb > fa else 0
