"""``tools/bench_record.py`` builds a speed record that passes the committed records' checks."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import test_bench_records as checks

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = {m["name"]: m for m in checks.BENCHMARK["end_to_end"]}

# a stand-in for benchmarks/run.py: writes a result file whose jobs_per_s is the
# number in its tree's SPEED file plus the seed / 1000
STUB_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path(__file__).resolve().parent
speed = float((here.parent / "SPEED").read_text()) + int(args["--seed"]) / 1000
metrics = {"jobs_per_s": speed, "job_ms_p50": 1000 / speed, "wall_s": 6 / speed,
           "setup_s": 0.5, "peak_rss_mb": 70.0}
result = {"workload": args["--workload"], "seconds": float(args["--seconds"]), "trace": 0,
          "stamp": {"seed": int(args["--seed"])}, "correct": True, "attempted": 6,
          "failed": 0, "failures": [], "extras": {}, "job_seconds": [0.1, 0.2],
          "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
(here / "results").mkdir(exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace0.json"
(here / "results" / name).write_text(json.dumps(result))
'''


def _result(workload, jobs_per_s, seed=7):
    metrics = {"jobs_per_s": jobs_per_s, "job_ms_p50": 1000.0 / jobs_per_s,
               "wall_s": 6.0 / jobs_per_s, "setup_s": 0.5, "peak_rss_mb": 70.0}
    return {"workload": workload, "seconds": 30.0, "trace": 0, "stamp": {"seed": seed},
            "correct": True, "attempted": 6, "failed": 0, "failures": [], "extras": {},
            "job_seconds": [0.04] * 3,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def _check(record):
    """Every check the committed records must pass."""
    checks.test_claim_names_benchmark_entries(record)
    checks.test_claimed_workload_has_ten_alternating_pairs(record)
    checks.test_pairs_compare_like_with_like(record)
    checks.test_summaries_recompute_from_pairs(record)


def test_record_from_stub_result_files(tmp_path):
    parent_speed = [20.0, 21.0, 19.5, 20.5, 20.2, 19.8, 20.1, 20.9, 19.9, 20.4]
    change_speed = [25.0, 24.0, 26.0, 19.0, 25.5, 24.5, 25.2, 24.8, 25.1, 24.9]
    pairs = []
    for i, (p, c) in enumerate(zip(parent_speed, change_speed), start=1):
        paths = {}
        for side, speed in (("parent", p), ("change", c)):
            paths[side] = tmp_path / f"{side}-{i}.json"
            paths[side].write_text(json.dumps(_result("certify", speed)), encoding="utf-8")
        pairs.append({"pair": i, "first": "parent" if i % 2 else "change",
                      **{side: bench_record.load_result(path) for side, path in paths.items()}})
    assert all("job_seconds" not in pair[side] for pair in pairs for side in ("parent", "change"))
    record = bench_record.build_record(
        "stub", ("certify", "jobs_per_s"), {"certify": pairs}, END_TO_END, "stub pairs")
    _check(record)
    summary = record["workloads"]["certify"]["summary"]
    assert summary["jobs_per_s"]["change_better_pairs"] == 9
    assert summary["job_ms_p50"]["change_better_pairs"] == 9
    assert summary["setup_s"]["change_better_pairs"] == 0  # ties count for neither side
    # the change ran second in the odd pairs and won all five; the parent ran second in
    # the even ones and won pair 4 alone
    assert summary["jobs_per_s"]["second_better_pairs"] == 6
    assert summary["job_ms_p50"]["second_better_pairs"] == 6
    assert summary["setup_s"]["second_better_pairs"] == 0
    assert summary["jobs_per_s"]["parent_q1_median_q3"] == np.percentile(
        parent_speed, [25, 50, 75]).tolist()
    assert summary["attempted_failed"] == {"parent": [(6, 0)], "change": [(6, 0)]}
    assert all(summary[metric]["within_bound"] for metric in END_TO_END)
    assert record["claim"] == {"workload": "certify", "metric": "jobs_per_s", "met": True}
    # one more lost pair falls below nine tenths
    pairs[0]["change"]["metrics"]["jobs_per_s"]["value"] = 1.0
    again = bench_record.build_record(
        "stub", ("certify", "jobs_per_s"), {"certify": pairs}, END_TO_END, "stub pairs")
    assert not again["claim"]["met"]


def test_a_median_worse_by_more_than_the_bound_reads_outside_it():
    # each median may worsen by 0.25 of the parent's: jobs_per_s 20 -> 16.5 is within, and
    # so are wall_s and job_ms_p50 (6 / and 1000 / jobs_per_s, up by 21%); 20 -> 14.5 is
    # not, nor are they (up by 38%)
    assert END_TO_END["jobs_per_s"]["bound"] == 0.25
    for change_speed, within in ((16.5, True), (14.5, False)):
        pairs = [{"pair": i, "first": "parent" if i % 2 else "change",
                  "parent": _result("certify", 20.0), "change": _result("certify", change_speed)}
                 for i in range(1, 11)]
        record = bench_record.build_record(
            "stub", ("certify", "jobs_per_s"), {"certify": pairs}, END_TO_END, "stub pairs")
        _check(record)
        summary = record["workloads"]["certify"]["summary"]
        assert {m: summary[m]["within_bound"] for m in END_TO_END} == {
            "jobs_per_s": within, "wall_s": within, "job_ms_p50": within,
            "setup_s": True, "peak_rss_mb": True}
        assert not record["claim"]["met"]
    assert bench_record.within_bound(20.0, 25.0, "lower", 0.25)
    assert not bench_record.within_bound(20.0, 25.1, "lower", 0.25)


def test_main_alternates_the_two_trees(tmp_path, monkeypatch):
    for side, speed in (("parent", "20"), ("change", "25")):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(STUB_RUN, encoding="utf-8")
        (tmp_path / side / "SPEED").write_text(speed, encoding="utf-8")
    ran = []
    real_run = bench_record.subprocess.run

    def recording(cmd, cwd, **kwargs):
        ran.append(Path(cwd).name)
        return real_run(cmd, cwd=cwd, **kwargs)

    monkeypatch.setattr(bench_record.subprocess, "run", recording)
    assert bench_record.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--label", "stub", "--claim", "certify:jobs_per_s", "--seed", "3", "--seconds", "1",
        "--pairs", "certify=3", "--out", str(tmp_path),
    ]) == 0
    # each side's timed run right after its own warm-up run
    assert ran == [side for side in ("parent", "change", "change", "parent", "parent", "change")
                   for _ in range(2)]
    record = json.loads((tmp_path / "BENCH_stub.json").read_text(encoding="utf-8"))
    pairs = record["workloads"]["certify"]["pairs"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert {p["change"]["metrics"]["jobs_per_s"]["value"] for p in pairs} == {25.003}
    assert record["claim"]["met"] is False  # a claim needs ten pairs
    checks.test_summaries_recompute_from_pairs(record)


def test_main_discards_each_sides_warm_up_run(tmp_path, monkeypatch):
    # a warm-up result reads 1 job/s; were one kept in a pair, a median would show it
    calls = []

    def stub_run_side(tree, workload, seed, seconds):
        calls.append((tree.name, seconds))
        warm_up = seconds == bench_record.WARMUP_SECONDS
        return _result(workload, 1.0 if warm_up else {"parent": 20.0, "change": 25.0}[tree.name])

    monkeypatch.setattr(bench_record, "run_side", stub_run_side)
    assert bench_record.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--label", "stub", "--claim", "certify:jobs_per_s", "--seed", "3", "--seconds", "30",
        "--pairs", "certify=10", "--out", str(tmp_path),
    ]) == 0
    warm = bench_record.WARMUP_SECONDS
    assert warm < 30
    order = [("parent", "change") if i % 2 else ("change", "parent") for i in range(1, 11)]
    assert calls == [(side, seconds) for pair in order for side in pair
                     for seconds in (warm, 30.0)]
    record = json.loads((tmp_path / "BENCH_stub.json").read_text(encoding="utf-8"))
    pairs = record["workloads"]["certify"]["pairs"]
    assert [(p["parent"]["metrics"]["jobs_per_s"]["value"],
             p["change"]["metrics"]["jobs_per_s"]["value"]) for p in pairs] == [(20.0, 25.0)] * 10
    assert "warm-up" in record["what"]
    assert record["claim"]["met"] is True
    _check(record)


def test_main_rejects_a_claim_on_an_unpaired_workload(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--label", "x",
                           "--claim", "adaptive:jobs_per_s", "--seed", "1", "--seconds", "1",
                           "--pairs", "certify=1"])
