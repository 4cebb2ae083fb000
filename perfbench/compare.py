"""Compare two result sets, metric by metric and workload by workload.

A result set is a directory of run records written by run.py.  Each run
contributes its reported value (the run's median) for each metric; the
runs of the two sets are paired in file-name order.  The verdict
follows the pairing rule: "better" needs the new side to win at least
nine tenths of the pairs (ties count for neither) and the medians to
differ by more than the base's interquartile range; a spread wider than
the bound makes a non-better metric "unresolved" unless every new run
beats every base run; otherwise the new median is "worse" when it is
worse than the base median by more than the bound, else "within bound".
Per-layer metrics have no bound: they read better, worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    q1, mb, q3 = quartiles(base)
    mn = statistics.median(new)
    spread = q3 - q1
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * (mn - mb) > spread:
        return "better"
    if bound is None:
        if losses >= 0.9 * len(pairs) and sign * (mb - mn) > spread:
            return "worse"
        return "within bound" if mb == mn and spread == 0 else "unresolved"
    scale = abs(mb) or 1.0
    every_run_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread / scale > bound and not every_run_better:
        return "unresolved"
    return "worse" if sign * (mb - mn) / scale > bound else "within bound"


def load(directory) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def _series(records, trace: int):
    """{(workload, metric): [value per run]} and {workload: [runs, attempted, failed]}."""
    values: dict[tuple[str, str], list[float]] = {}
    ops: dict[str, list[int]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        tally = ops.setdefault(rec["workload"], [0, 0, 0])
        tally[0] += 1
        tally[1] += rec["attempted"]
        tally[2] += rec["failed"]
        for name, m in rec["metrics"].items():
            values.setdefault((rec["workload"], name), []).append(m["value"])
    return values, ops


def compare(base_dir, new_dir, spec: dict) -> list[str]:
    """Lines of the comparison report; spec is the content of BENCHMARK.json."""
    base, new = load(base_dir), load(new_dir)
    lines = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = {m["name"]: m for m in spec[key]}
        bv, bops = _series(base, trace)
        nv, nops = _series(new, trace)
        workloads = sorted({w for w, _ in bv} & {w for w, _ in nv})
        if not workloads:
            continue
        lines.append(f"== {key} (trace {trace})")
        for w in workloads:
            lines.append(
                "-- {}: base {} runs, attempted {} failed {}; new {} runs, attempted {} failed {}".format(
                    w, *bops[w], *nops[w]
                )
            )
            for name, m in metrics.items():
                b, n = bv.get((w, name)), nv.get((w, name))
                if not b or not n:
                    continue
                bq, nq = quartiles(b), quartiles(n)
                lines.append(
                    f"{name:32s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                    f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']:8s} "
                    f"{verdict(b, n, m.get('better', 'lower'), m.get('bound'))}"
                )
    return lines
