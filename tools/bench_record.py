"""Record a speed claim: alternating parent/change pairs of ``benchmarks/run.py``.

    python3 tools/bench_record.py --parent PARENT_TREE --change CHANGE_TREE \\
        --label NAME --claim certify:jobs_per_s --seed 41 --seconds 30 \\
        --pairs certify=10 --pairs adaptive=5 --pairs explore=5

``PARENT_TREE`` and ``CHANGE_TREE`` are two copies of the repository, one per
side (``git archive COMMIT | tar -x -C DIR`` makes one).  ``run.py`` writes its
result files under each tree's ``benchmarks/results/``, so give exported
copies, not the working tree.  Pair i of a workload runs
``python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0`` once
in each tree, one after the other: the parent first in odd pairs, the change
first in even ones.  Each side's result file goes into the pair as written,
less its per-run ``job_seconds`` list.

The record, ``BENCH_<label>.json`` in the output directory (default: the
working directory), holds the claim, the pairs of every workload and, per
workload and end-to-end metric of ``BENCHMARK.json``, each side's quartiles,
the median ratio, the pairs the change won and the pairs the side run second
won, which shows an order effect (ties count for neither side).  The claim is
met when the change wins at least nine tenths of the claimed workload's pairs
and its median beats the parent's by more than the parent's quartile spread,
over at least ten pairs.
``tests/test_bench_records.py`` re-checks every committed record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NOTE = ("each entry is a result file of benchmarks/run.py as written, less its per-run "
        "job_seconds list; quartiles are linear-interpolation percentiles (numpy default)")


def load_result(path: Path) -> dict:
    """A ``run.py`` result file without its per-run ``job_seconds`` list."""
    result = json.loads(Path(path).read_text(encoding="utf-8"))
    result.pop("job_seconds", None)
    return result


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run one benchmark workload in ``tree`` and return its result file."""
    subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    return load_result(tree / "benchmarks" / "results" / f"{workload}-seed{seed}-trace0.json")


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's quartiles, the median ratio, the change's wins and
    the wins of the side run second."""
    summary = {
        "attempted_failed": {side: sorted({(p[side]["attempted"], p[side]["failed"])
                                           for p in pairs}) for side in ("parent", "change")},
        "failing_keys": {side: sorted({f["key"] for p in pairs for f in p[side]["failures"]})
                         for side in ("parent", "change")},
    }
    for metric, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        # each pair's values in the order its two sides ran
        order = [(q, c) if p["first"] == "parent" else (c, q)
                 for p, q, c in zip(pairs, parent, change)]
        pq, cq = np.percentile(parent, [25, 50, 75]), np.percentile(change, [25, 50, 75])
        summary[metric] = {
            "pairs": len(pairs),
            "change_better_pairs": sum(sign * (c - q) > 0 for c, q in zip(change, parent)),
            "second_better_pairs": sum(sign * (second - first) > 0 for first, second in order),
            "parent_q1_median_q3": pq.tolist(),
            "change_q1_median_q3": cq.tolist(),
            "median_change_over_parent": float(cq[1] / pq[1]),
            "parent_quartile_spread": float(pq[2] - pq[0]),
        }
    return summary


def claim_met(summary: dict, direction: str) -> bool:
    """At least ten pairs, nine tenths of them won, medians apart by more than the parent spread."""
    gain = summary["change_q1_median_q3"][1] - summary["parent_q1_median_q3"][1]
    return (summary["pairs"] >= 10 and 10 * summary["change_better_pairs"] >= 9 * summary["pairs"]
            and (gain if direction == "higher" else -gain) > summary["parent_quartile_spread"])


def build_record(label: str, claim: tuple[str, str], pairs: dict[str, list[dict]],
                 better: dict[str, str], what: str, parent_commit: str | None = None) -> dict:
    """The record of ``pairs``, keyed by workload; each pair holds pair, first, parent, change."""
    workload, metric = claim
    workloads = {name: {"pairs": ps, "summary": summarize(ps, better)}
                 for name, ps in pairs.items()}
    met = claim_met(workloads[workload]["summary"][metric], better[metric])
    return {"label": label, "claim": {"workload": workload, "metric": metric, "met": met},
            "what": what, "note": NOTE, "parent_commit": parent_commit, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC, e.g. certify:jobs_per_s")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        help="WORKLOAD=N, once per workload; N alternating pairs of it")
    parser.add_argument("--parent-commit", help="the parent's commit id, stored in the record")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the record")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    claim = tuple(args.claim.split(":"))
    counts = {w: int(n) for w, n in (spec.split("=") for spec in args.pairs)}
    if len(claim) != 2 or claim[0] not in counts or claim[1] not in better:
        parser.error(f"--claim {args.claim} must name a paired workload and an end-to-end metric")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs: dict[str, list[dict]] = {}
    for workload, n in counts.items():
        pairs[workload] = []
        for i in range(1, n + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], workload, args.seed, args.seconds)
            pairs[workload].append(pair)
            print(f"{workload} pair {i}: " + ", ".join(
                f"{side} {pair[side]['metrics'][claim[1]]['value']:.4g}" for side in order),
                file=sys.stderr)
    what = (f"alternating parent/change pairs of `python3 benchmarks/run.py --workload W "
            f"--seed {args.seed} --seconds {args.seconds:g} --trace 0`, each side run from "
            f"its own copy of the tree by tools/bench_record.py")
    record = build_record(args.label, claim, pairs, better, what, args.parent_commit)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    summary = record["workloads"][claim[0]]["summary"][claim[1]]
    print(f"{path}: {claim[0]} {claim[1]} median x{summary['median_change_over_parent']:.3f}, "
          f"change won {summary['change_better_pairs']}/{summary['pairs']}, "
          f"claim {'met' if record['claim']['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
