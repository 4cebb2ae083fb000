"""Benchmark of halidon: one command, end to end or layer by layer.

    python3 perfbench/run.py --workload bulk-m202 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run sets up, runs whole rounds of its workload for --seconds, checks
every output against the oracle, writes a results record (and, traced,
its spans) under --results, and prints one JSON line last on stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The metric names, units and bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(metric: str, values) -> dict:
    """Median and quartiles of a run's samples with their count, and from
    40 samples on the worst-side percentile with at least ten samples beyond it."""
    q1, med, q3 = compare.quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "samples": len(values)}
    if len(values) >= 40:
        pct = int(100 * (1 - 10 / len(values)))
        cuts = statistics.quantiles(values, n=100)
        out["tail"] = {"pct": pct, "value": cuts[100 - pct - 1] if "_per_s" in metric else cuts[pct - 1]}
    return out


def figures(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each end-to-end figure of a run: the median of its samples.

    A metric made of parts (``cli_session_s:keygen``, ``analyze_s:491063``)
    is the sum of each part's median.
    """
    out: dict[str, float] = {}
    for key, values in samples.items():
        metric = key.split(":")[0]
        out[metric] = out.get(metric, 0.0) + statistics.median(values)
    return out


def scaled(samples: dict[str, list[float]], scales: dict[str, list[float]]) -> dict[str, list[float]]:
    """Every sample at the reference host speed: a time times its
    operation's scale, a rate divided by it."""
    return {
        key: [v / k if key.split(":")[0].endswith("_per_s") else v * k for v, k in zip(values, scales[key])]
        for key, values in samples.items()
    }


def measure(name: str, seed: int, seconds: float, trace: bool, results: Path, tiny: bool = False) -> dict:
    """Run one workload and return its results record."""
    workload = workloads.WORKLOADS[name]
    if tiny:
        workload = workloads.tiny(workload)
    stamp = f"{name}-trace{int(trace)}-seed{seed}-{time.time_ns()}"
    workdir = results / f"work-{stamp}"
    workdir.mkdir(parents=True)
    try:
        oracle.validate_published()
        run = workloads.Run(workload, seed, trace, workdir)
        rounds = run.run(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = tracing.layer_metrics(run.tracer)
        wanted = spec["per_layer"]
        run.tracer.dump(results / f"{stamp}.spans.jsonl")
    else:
        values = figures(scaled(run.samples, run.scales))
        wanted = spec["end_to_end"]
    return {
        "stamp": stamp,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "rounds": rounds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "correct": not run.problems,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        # a metric without one successful operation reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
        # the run's own samples at the reference host speed (a traced run's
        # are as measured, and carry span overhead), then as measured
        "samples": {k: {**summary(k, v), "values": v} for k, v in scaled(run.samples, run.scales).items()},
        "wall": {k: {**summary(k, v), "values": v} for k, v in run.samples.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "results", help="directory for run records")
    parser.add_argument("--tiny", action="store_true", help="seconds-long inputs, for smoke tests")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"), help="compare two directories of records")
    args = parser.parse_args(argv)

    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("\n".join(compare.compare(*args.compare, spec)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "halidon").is_dir():
        print("error: no src/halidon to measure in this checkout", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.results, args.tiny)
    (args.results / f"{record['stamp']}.json").write_text(json.dumps(record, indent=1))
    for line in record["problems"] + record["errors"]:
        print(line, file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
