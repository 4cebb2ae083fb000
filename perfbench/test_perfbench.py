"""Tests of the benchmark itself: the oracle, compare mode, and a tiny run of each workload.

The workload runs go through subprocesses because a run re-imports
halidon to time the import, which must not disturb other tests.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracle
import published
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_oracle_reproduces_the_published_vectors():
    oracle.validate_published()


def test_oracle_rejects_what_is_wrong():
    n, m, w, vec, corrected = published.TEN_POINT_CORRECTED
    circulated = (46, 19019, 3314, 10082, 48017, 4, 80347, 18172, 68413, 52627)
    assert oracle.dft(n, m, w, vec) == corrected != circulated
    assert not oracle.is_root_literal(49, 6, 18)
    assert not oracle.is_root_literal(491063, 202, pow(239823, 2, 491063))
    assert oracle.is_root_by_primes((607, 809), 202, 239823)
    assert not oracle.is_root_by_primes((607, 809), 101, 239823)
    assert oracle.is_prime(1000000007) and not oracle.is_prime(1000000007 * 3)
    assert oracle.check_factors(91, [(7, 1), (13, 1)]) == []
    assert oracle.check_factors(91, [(91, 1)]) == ["factor 91 of 91 is not prime"]


def test_oracle_transforms_invert_each_other():
    n, m, w = published.SESSION_N, published.SESSION_M, published.SESSION_OMEGA
    coeffs = tuple(range(m))
    assert oracle.idft(n, m, w, oracle.dft(n, m, w, coeffs)) == coeffs
    assert oracle.synthesis(n, m, w, oracle.spectrum(n, m, w, coeffs)) == coeffs


def test_analysis_check_catches_a_missing_or_wrong_root():
    text = "\n".join([
        "n = 91 = 7 * 13", "phi(n) = 72", "psi(n) = 6",
        "Z(91) is a halidon ring with index m = 6 and w = 10",
        "primitive 6th roots of unity (4): 10 17 75 82",
    ]) + "\n"
    problems, rep = oracle.check_analysis(91, text, random.Random(0))
    assert problems == [] and rep["roots"] == [10, 17, 75, 82]
    short = text.replace("(4): 10 17 75 82", "(3): 10 17 75")
    assert oracle.check_analysis(91, short, random.Random(0))[0] == ["analyze 91: count wrong"]
    wrong = text.replace("75 82", "75 81")
    assert "analyze 91: every root wrong" in oracle.check_analysis(91, wrong, random.Random(0))[0]


BASE = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.5, 100.0]


FLAT = [100.0] * 10


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        (BASE, [v * 0.8 for v in BASE], "lower", 0.1, "better"),
        (BASE, [v * 1.02 for v in BASE], "lower", 0.1, "within bound"),
        (BASE, [v * 1.2 for v in BASE], "lower", 0.1, "worse"),
        (BASE, [v * 1.2 for v in BASE], "higher", 0.1, "better"),
        (BASE, [v * 0.8 for v in BASE], "higher", 0.1, "worse"),
        (FLAT, FLAT, "lower", None, "within bound"),
        (FLAT, [v * 2 for v in FLAT], "lower", None, "worse"),
        (FLAT, [v * 0.5 for v in FLAT], "lower", None, "better"),
        (BASE, BASE[::-1], "lower", None, "unresolved"),
    ],
)
def test_verdicts(base, new, better, bound, expected):
    assert compare.verdict(base, new, better, bound) == expected


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [40.0] * 10, "lower", 0.1) == "better"
    assert compare.verdict(noisy, [45.0] * 9 + [160.0], "lower", 0.1) == "better"
    assert compare.verdict(noisy, [45.0] * 8 + [160.0] * 2, "lower", 0.1) == "unresolved"


def test_compare_report(tmp_path):
    for side, scale in (("base", 1.0), ("new", 1.5)):
        (tmp_path / side).mkdir()
        for i, v in enumerate(BASE):
            record = {
                "workload": "bulk-m202", "trace": 0, "attempted": 33, "failed": 0,
                "metrics": {"analyze_s": {"value": v * scale, "unit": "s"}},
            }
            (tmp_path / side / f"{i:02d}.json").write_text(json.dumps(record))
    lines = compare.compare(tmp_path / "base", tmp_path / "new", SPEC)
    assert "-- bulk-m202: base 10 runs, attempted 330 failed 0; new 10 runs, attempted 330 failed 0" in lines
    (row,) = [line for line in lines if line.startswith("analyze_s")]
    assert row.endswith("worse")


def test_samples_are_scaled_to_the_reference_speed_and_reported_as_medians():
    samples = {"find_omega_s": [1.0, 2.0, 3.0], "dft_encrypt_chars_per_s": [100.0], "analyze_s:7": [1.0],
               "analyze_s:11": [2.0, 4.0]}
    got = run.scaled(samples, {k: [0.5] * len(v) for k, v in samples.items()})
    assert got["find_omega_s"] == [0.5, 1.0, 1.5] and got["dft_encrypt_chars_per_s"] == [200.0]
    assert run.figures(got) == {"find_omega_s": 1.0, "dft_encrypt_chars_per_s": 200.0, "analyze_s": 2.0}
    passes, secs = workloads.calibrate(0.01)
    assert passes >= 1 and secs >= 0.01


def test_benchmark_json_names_every_metric_the_code_makes():
    derived = {"protocol.unattributed_s", "cli.render_s", "trace.overhead_pct"}
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.SPAN_METRICS) | derived
    assert {m["name"] for m in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    """One tiny traced round: outputs correct, nothing failed, every metric reported."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5", "--seconds", "0",
         "--trace", "1", "--tiny", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, out.stderr
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    (record,) = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    for metric in SPEC["end_to_end"]:
        parts = [v for k, v in record["samples"].items() if k.split(":")[0] == metric["name"]]
        assert parts and all(p["median"] > 0 for p in parts)
    spans = [json.loads(line) for line in next(tmp_path.glob("*.spans.jsonl")).read_text().splitlines()]
    assert {s["layer"] for s in spans} >= {
        "arith", "analysis", "dft", "group_ring", "rsa", "codec", "protocol", "cli"
    }


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bulk-m10", "--seed", "5", "--seconds", "0",
         "--trace", "0", "--tiny", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
