"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q benchmarks/test_smoke.py

Each workload runs once untraced and once traced and must emit every metric
that ``BENCHMARK.json`` names, with its unit; a corrupted output must be
counted as a failed job.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "certify": replace(run.WORKLOADS["certify"], tau_end=0.04),
    "adaptive": replace(run.WORKLOADS["adaptive"], tau_end=0.06),
    "explore": replace(run.WORKLOADS["explore"], points=2, xi_count=5),
}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_unit(name, trace):
    result, _ = run.measure(TINY[name], seed=1, seconds=0.01, trace=trace, probes=1)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    # each distinct job counts once, however many passes ran
    jobs = run.Inputs(TINY[name], 1, run.load_refs()).next_pass()
    assert result["attempted"] == len(jobs)


class _Corrupting:
    """Runs the real CLI, then damages one output file as a faulty program would."""

    def __init__(self, cli, corrupt):
        self.cli, self.corrupt = cli, corrupt

    def main(self, argv):
        code = self.cli.main(argv)
        self.corrupt(Path(argv[argv.index("--out") + 1]))
        return code


def _rewrite_csv(path: Path, column: str, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    j = lines[0].split(",").index(column)
    rows = [line.split(",") for line in lines[1:]]
    edit(rows, j)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def _scale_e_b(out: Path) -> None:
    def edit(rows, j):
        for row in rows:
            row[j] = repr(float(row[j]) * 1.01)

    _rewrite_csv(out / "diagnostics.csv", "E_B", edit)


def _break_conjugate_bound(out: Path) -> None:
    def edit(rows, j):
        rows[0][j] = repr(float(rows[0][j + 1]) + 1e-6)  # the bound is the next column

    _rewrite_csv(out / "conjugate_bounds.csv", "numeric", edit)


@pytest.mark.parametrize(
    "name, job, corrupt",
    [
        ("certify", lambda w: run.simulate_job(w, "unequal"), _scale_e_b),
        ("explore", lambda w: run.table_job(w, "t"), _break_conjugate_bound),
    ],
)
def test_corrupted_output_counts_as_failed(tmp_path, name, job, corrupt):
    w = TINY[name]
    cli, refs, gauge = run.load_program(), run.load_refs(), run.SpeedGauge()
    clean = run.Runner(cli, w, refs, tmp_path / "clean", gauge).run(job(w))
    assert clean.reasons == []
    bad = run.Runner(_Corrupting(cli, corrupt), w, refs, tmp_path / "bad", gauge).run(job(w))
    assert bad.reasons and bad.silent
