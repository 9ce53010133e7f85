"""Each committed speed record (a root ``BENCH_*.json``) must hold up against its own pairs.

A record holds alternating parent/change pairs of ``benchmarks/run.py``
result files per workload, a summary per workload and the claim it supports.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

records = pytest.mark.parametrize(
    "record",
    [json.loads(p.read_text(encoding="utf-8")) for p in RECORDS],
    ids=[p.name for p in RECORDS],
)


def test_a_record_is_committed():
    assert RECORDS


@records
def test_claim_names_benchmark_entries(record):
    assert record["claim"]["metric"] in BETTER
    assert record["claim"]["workload"] in {w["name"] for w in BENCHMARK["workloads"]}


@records
def test_claimed_workload_has_ten_alternating_pairs(record):
    pairs = record["workloads"][record["claim"]["workload"]]["pairs"]
    assert len(pairs) >= 10
    firsts = [pair["first"] for pair in pairs]
    assert set(firsts) <= {"parent", "change"}
    assert all(a != b for a, b in zip(firsts, firsts[1:]))


@records
def test_pairs_compare_like_with_like(record):
    for name, workload in record["workloads"].items():
        for pair in workload["pairs"]:
            parent, change = pair["parent"], pair["change"]
            assert parent["correct"] and change["correct"], (name, pair["pair"])
            assert parent["workload"] == change["workload"] == name
            assert parent["stamp"]["seed"] == change["stamp"]["seed"], (name, pair["pair"])
            assert parent["seconds"] == change["seconds"], (name, pair["pair"])


@records
def test_summaries_recompute_from_pairs(record):
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        for metric, summary in workload["summary"].items():
            if "change_better_pairs" not in summary:
                continue
            sign = 1.0 if BETTER[metric] == "higher" else -1.0
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
            wins = sum(sign * (c - q) > 0 for c, q in zip(change, parent))
            assert summary["change_better_pairs"] == wins, (name, metric)
            assert summary["pairs"] == len(pairs), (name, metric)
            if "second_better_pairs" in summary:  # older records lack the order count
                seconds = [(c, q) if p["first"] == "parent" else (q, c)
                           for p, c, q in zip(pairs, change, parent)]
                wins = sum(sign * (second - first) > 0 for second, first in seconds)
                assert summary["second_better_pairs"] == wins, (name, metric)
