"""The rdmix benchmark: one closed-loop client per workload, in one process.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  Jobs go through ``rdmix.cli.main([...])``
in-process, one after another, with BLAS pinned to one thread.  The seed
only picks the inputs; the program sees only the generated config files.
Every job's output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A result file stamped with the machine and code versions
goes to ``benchmarks/results/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported, here or in a probe
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from cases import CASES, SAMPLE_INTERVAL, config_text  # noqa: E402
from layertrace import JOB_SPAN, Tracer, layer_metrics, percentile  # noqa: E402

SETUP_PROBES = 5
CAL_REFERENCE_S = 5e-3  # the speed gauge's kernel time that counts as full speed
CONJ_ALPHAS = (1.0, 1.5, 2.0, 3.0)  # the `rdmix conjugate` default --alpha list
EXPLORE_ALPHAS = (1.0, 1.5, 2.0, 3.0)
M_HAT_LIST = "0.5:1,0.5:1.5,0.75:1.5,1:2,2:3"
SWEEP_FACTORS = (1.0, 1.1, 1.2, 1.3, 1.4)
CONJ_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """What one workload runs; ``kind`` is ``simulate`` or ``explore``."""

    name: str
    kind: str
    tau_end: float = 0.0
    dtau_max: float | None = None  # None keeps the default adaptive controller
    eb_tol: float = 0.0  # largest accepted |E_B / E_B,ref - 1|
    points: int = 0
    xi_count: int = 201


WORKLOADS = {
    "certify": Workload("certify", "simulate", tau_end=0.1, dtau_max=1e-3, eb_tol=1e-3),
    "adaptive": Workload("adaptive", "simulate", tau_end=6.0, eb_tol=6e-2),
    "explore": Workload("explore", "explore", points=64),
}


def load_program():
    """Import the CLI from this checkout's sources."""
    if not (SRC / "rdmix" / "cli.py").is_file():
        raise FileNotFoundError(f"no rdmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rdmix.cli

    return rdmix.cli


# ---------------------------------------------------------------- inputs


@dataclass
class Job:
    """One unit of timed work: a list of CLI calls, checked together."""

    kind: str  # simulate | point | table
    label: str
    key: str  # the same inputs have the same key
    calls: list[tuple[str, list[str]]]  # (output subdirectory, argv)
    configs: dict[str, str] = field(default_factory=dict)  # file name -> text
    point: dict | None = None


def load_refs() -> dict[str, list[tuple[float, float]]]:
    refs = {}
    for label in CASES:
        path = HERE / "refs" / f"{label}.csv"
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            refs[label] = [(float(t), float(e)) for t, e in rows]
    return refs


def simulate_job(w: Workload, label: str) -> Job:
    text = config_text(label, w.tau_end, 1e-3, w.dtau_max)
    return Job("simulate", label, label, [("sim", ["simulate", "--config", "{dir}/run.cfg"])],
               {"run.cfg": text})


def draw_points(rng: random.Random, n: int) -> list[dict]:
    """``n`` explore points by Latin hypercube sampling.

    Each continuous parameter takes one value from each of ``n`` equally
    likely strata of its distribution, in seeded order; (alpha, beta) cycle
    through fixed proportions (alpha uniform on four values, beta uniform on
    {1, alpha}).  This keeps the mix of a run the same from seed to seed.
    """
    def strata(lo: float, hi: float, log: bool) -> list[float]:
        u = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(u)
        if log:
            return [lo * (hi / lo) ** x for x in u]
        return [lo + (hi - lo) * x for x in u]

    d2, k, a_plus = strata(0.25, 8.0, True), strata(0.5, 2.0, True), strata(1.1, 4.0, False)
    points = []
    for i in range(n):
        alpha = EXPLORE_ALPHAS[i % len(EXPLORE_ALPHAS)]
        beta = alpha if (i // len(EXPLORE_ALPHAS)) % 2 else 1.0
        points.append({"alpha": alpha, "beta": beta, "d1": 1.0, "d2": d2[i], "k": k[i],
                       "A_minus": 1.0, "A_plus": a_plus[i]})
    return points


def admissible_p(alpha: float, beta: float) -> list[float]:
    """Entropy exponents with a constants report: 1, plus the sampled p in range."""
    ps = [1.0]
    if alpha == beta:
        lo, hi = alpha - 1.0, max(alpha / 2.0, alpha - 1.0)
        for q in (0.5, alpha - 1.0):
            if q > 0.0 and lo <= q <= hi and q not in ps:
                ps.append(q)
    return ps


def point_job(point: dict, key: str) -> Job:
    lines = [f"problem.{name} = {value!r}" for name, value in point.items()]
    text = "\n".join(lines + ["time.tau_end = 1.0"]) + "\n"  # no grid.L: default width
    values = ",".join(repr(point["A_plus"] * f) for f in SWEEP_FACTORS)
    calls = [
        ("profile", ["profile", "--config", "{dir}/point.cfg"]),
        ("sweep", ["sweep", "--config", "{dir}/point.cfg", "--param", "problem.A_plus",
                   "--values", values]),
    ]
    for q in admissible_p(point["alpha"], point["beta"]):
        calls.append((f"constants-{q:g}", ["constants", "--config", "{dir}/point.cfg",
                                           "--p", repr(q)]))
    label = f"a{point['alpha']:g}b{point['beta']:g}"
    return Job("point", label, key, calls, {"point.cfg": text}, point)


def table_job(w: Workload, key: str) -> Job:
    argv = ["conjugate", f"--xi-range=-5:5:{w.xi_count}", "--m-hat", M_HAT_LIST]
    return Job("table", "conjugate", key, [("conj", argv)])


class Inputs:
    """Seeded passes over a fixed job set: the six cases, or the points plus a table."""

    def __init__(self, w: Workload, seed: int, refs: dict):
        self.w = w
        self.rng = random.Random(seed)
        if w.kind == "simulate":
            self.jobs = [simulate_job(w, label) for label in CASES if label in refs]
            if not self.jobs:
                raise FileNotFoundError("no reference curves under benchmarks/refs")
        else:
            self.jobs = [point_job(p, f"p{i}")
                         for i, p in enumerate(draw_points(self.rng, w.points))]

    def next_pass(self) -> list[Job]:
        """The job set in a new seeded order (an explore pass ends with its table)."""
        order = self.rng.sample(self.jobs, len(self.jobs))
        return order if self.w.kind == "simulate" else order + [table_job(self.w, "table")]


def prepare(w: Workload, seed: int):
    """Set-up: import the program, read the references, draw the first pass."""
    cli = load_program()
    refs = load_refs()
    inputs = Inputs(w, seed, refs)
    return cli, refs, inputs, inputs.next_pass()


# ---------------------------------------------------------------- checks


def read_csv_columns(path: Path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[j]) for row in body] for j, name in enumerate(header)}


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_simulate(out: Path, w: Workload, ref: list[tuple[float, float]]):
    """Failure reasons of one simulate job, and its max |E_B/E_B,ref - 1|."""
    reasons = []
    summary = read_json(out / "summary.json")
    verdicts = summary["verdicts"]
    if not verdicts or not all(v["passed"] for v in verdicts):
        reasons.append("verdict did not pass")
    cols = read_csv_columns(out / "diagnostics.csv")
    expected = round(w.tau_end / SAMPLE_INTERVAL) + 1
    if len(cols["tau"]) != expected:
        reasons.append(f"diagnostics has {len(cols['tau'])} rows, expected {expected}")
        return reasons, math.inf
    err = 0.0
    for tau, e_b, (tau_ref, e_ref) in zip(cols["tau"], cols["E_B"], ref):
        if abs(tau - tau_ref) > 1e-9:
            reasons.append(f"sample at tau={tau} has no reference point")
            return reasons, math.inf
        err = max(err, abs(e_b / e_ref - 1.0))
    if not err <= w.eb_tol:
        reasons.append(f"E_B off its reference by {err:.3g} (> {w.eb_tol:g})")
    return reasons, err


def _check_certificate(obj: dict, what: str) -> list[str]:
    if obj.get("certificate") is None:
        return [] if obj.get("note") else [f"{what}: certificate missing without a note"]
    cert = obj["certificate"]
    bad = [k for k in ("eta", "mu", "K", "gamma") if not finite(cert[k])]
    return [f"{what}: non-finite certificate {bad}"] if bad else []


def check_point(job: Job, dirs: dict[str, Path]) -> list[str]:
    reasons = []
    sweep = read_json(dirs["sweep"] / "sweep.json")
    for row in sweep["rows"]:
        if not (finite(row["theta"]) and finite(row["lambda_star"])):
            reasons.append(f"sweep at {row['value']!r}: non-finite constant")
        reasons += _check_certificate(row, f"sweep at {row['value']!r}")
    for sub, _ in job.calls[2:]:
        payload = read_json(dirs[sub] / "constants.json")
        bad = [k for k, v in payload.items()
               if k not in ("provenance", "certificate", "note") and v is not None
               and not finite(v)]
        if bad:
            reasons.append(f"{sub}: non-finite constants {bad}")
        reasons += _check_certificate(payload, sub)
    return reasons


def check_table(out: Path, w: Workload) -> list[str]:
    reasons = []
    cols = read_csv_columns(out / "conjugate_bounds.csv")
    if len(cols["xi"]) != len(CONJ_ALPHAS) * w.xi_count:
        reasons.append(f"conjugate table has {len(cols['xi'])} rows")
    for a, xi, num, bound in zip(cols["alpha"], cols["xi"], cols["numeric"], cols["bound"]):
        if not 0.0 <= num <= bound + CONJ_TOL:
            reasons.append(f"conjugate at alpha={a:g}, xi={xi:g}: {num!r} outside [0, {bound!r}]")
    m_hat = read_csv_columns(out / "m_hat.csv")["m_hat"]
    if len(m_hat) != len(M_HAT_LIST.split(",")) or not all(finite(v) and v >= 0.25 for v in m_hat):
        reasons.append("m_hat table wrong")
    return reasons


# ---------------------------------------------------------------- running


class SpeedGauge:
    """How much slower than full speed the machine runs at the moment.

    On a shared VM other tenants slow every process by up to 1.9x for
    seconds to minutes at a time, rdmix and other numpy code much alike.  The
    gauge times a fixed numpy kernel on n = 2001 arrays, like the reaction
    solve's, that does not depend on rdmix's code.
    """

    def __init__(self):
        self._x = np.linspace(0.5, 1.5, 2001)
        self.last = self._kernel()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x = self._x
        for _ in range(200):
            x = np.where(x > 1.0, x * 0.999, x * 1.001) + 1e-6 * (np.sqrt(x) - x**1.5)
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        """Slowdown over the interval since the last reading: mean of both ends."""
        now = self._kernel()
        factor = (self.last + now) / (2.0 * CAL_REFERENCE_S)
        self.last = now
        return factor


@dataclass
class Outcome:
    job: Job
    job_id: int
    seconds: float  # as measured
    slowdown: float  # the machine's, while the job ran
    reasons: list[str]
    silent: bool  # every call exited 0, yet a check failed
    eb_err: float = 0.0
    steps: int = 0

    @property
    def scaled(self) -> float:
        """Job time at full machine speed."""
        return self.seconds / self.slowdown


class Runner:
    def __init__(self, cli, w: Workload, refs: dict, workdir: Path, gauge: SpeedGauge):
        self.cli, self.w, self.refs, self.workdir, self.gauge = cli, w, refs, workdir, gauge
        self.next_id = 0

    def run(self, job: Job, tracer: Tracer | None = None) -> Outcome:
        job_id, self.next_id = self.next_id, self.next_id + 1
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for name, text in job.configs.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        dirs = {sub: self.workdir / sub for sub, _ in job.calls}
        argvs = [[a.replace("{dir}", str(self.workdir)) for a in argv]
                 + ["--out", str(dirs[sub]), "--quiet"] for sub, argv in job.calls]
        codes = []
        t0 = time.perf_counter()
        for argv in argvs:
            if tracer is None:
                codes.append(self.cli.main(argv))
            else:
                with tracer.span(JOB_SPAN, job_id):
                    codes.append(self.cli.main(argv))
        seconds = time.perf_counter() - t0
        slowdown = self.gauge.slowdown()
        reasons = [f"{sub} exited {code}" for (sub, _), code in zip(job.calls, codes) if code]
        profile_report = dirs.get("profile", self.workdir) / "profile_report.json"
        if job.kind == "point" and codes[0] and profile_report.is_file():
            invariants = read_json(profile_report)["invariants"]
            reasons += [f"profile invariant {k} failed" for k, ok in invariants.items() if not ok]
        eb_err, steps = 0.0, 0
        if not reasons:
            if job.kind == "simulate":
                more, eb_err = check_simulate(dirs["sim"], self.w, self.refs[job.label])
                steps = read_json(dirs["sim"] / "summary.json")["steps_accepted"]
            elif job.kind == "point":
                more = check_point(job, dirs)
            else:
                more = check_table(dirs["conj"], self.w)
            reasons += more
        silent = bool(reasons) and not any(codes)
        return Outcome(job, job_id, seconds, slowdown, reasons, silent, eb_err, steps)


def end_to_end(w: Workload, outcomes: list[Outcome]):
    """End-to-end metrics (name -> (value, unit)) and workload-specific extras.

    Every timing is scaled to full machine speed by the speed gauge read
    around each job (see README, Noise).  Each job of the fixed set ran once
    per pass; its time is the median of its runs, and the percentiles are
    taken over jobs, so cases of different cost keep equal weight.
    """
    runs: dict[str, list[Outcome]] = {}
    for o in outcomes:
        runs.setdefault(o.job.key, []).append(o)
    median = {key: statistics.median(o.scaled for o in rs) for key, rs in runs.items()}
    jobs = [key for key, rs in runs.items() if rs[0].job.kind != "table"]
    job_ms = [1e3 * median[key] for key in jobs]
    job_s = sum(median[key] for key in jobs)
    metrics = {
        "wall_s": (sum(median.values()), "s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "jobs_per_s": (len(jobs) / job_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        "job_runs": (len(outcomes), "count"),
        "slowdown_p50": (statistics.median(o.slowdown for o in outcomes), "ratio"),
        "job_ms_p50_unscaled": (
            1e3 * statistics.median(statistics.median(o.seconds for o in runs[key])
                                    for key in jobs), "ms"),
    }
    if w.kind == "simulate":
        extras["steps_per_s"] = (sum(runs[key][0].steps for key in jobs) / job_s, "1/s")
        extras["eb_rel_err"] = (max(o.eb_err for o in outcomes), "ratio")
    else:
        evals = len(CONJ_ALPHAS) * w.xi_count + len(M_HAT_LIST.split(","))
        extras["job_ms_p90"] = (percentile(job_ms, 90), "ms")
        extras["conj_evals_per_s"] = (evals / median["table"], "1/s")
    return metrics, extras


def measure(w: Workload, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES):
    """Run one workload; returns (result line, report dict)."""
    setup = []
    for _ in range(0 if trace else probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        setup.append(time.perf_counter() - t0)
    cli, refs, inputs, first = prepare(w, seed)
    runner = Runner(cli, w, refs, HERE / "work" / f"{w.name}-{seed}-{int(trace)}", SpeedGauge())
    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    tracer = Tracer() if trace else None
    if not trace:
        # every pass runs the same job set in a new order, at least twice
        jobs = first
        while len(outcomes) < 2 * len(first) or time.perf_counter() < deadline:
            outcomes += [runner.run(job) for job in jobs]
            jobs = inputs.next_pass()
        metrics, extras = end_to_end(w, outcomes)
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
    else:
        # the same pass untraced and traced, in alternating order: counts come
        # from the first traced pass, timings from all of them
        untraced = traced = 0.0
        count_jobs: set[int] = set()
        pairs = 0
        while not pairs or time.perf_counter() < deadline:
            pairs += 1
            for with_trace in (False, True) if pairs % 2 else (True, False):
                if with_trace:
                    with tracer.installed():
                        done = [runner.run(job, tracer) for job in first]
                    count_jobs = count_jobs or {o.job_id for o in done}
                    traced += sum(o.scaled for o in done)
                else:
                    done = [runner.run(job) for job in first]
                    untraced += sum(o.scaled for o in done)
                outcomes += done
        metrics = layer_metrics(tracer.spans, count_jobs)
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
        # the program's own step count, to cross-check simulate.steps_accepted
        extras = {"summary.steps_accepted": (
            sum(o.steps for o in outcomes if o.job_id in count_jobs), "count")}
    shutil.rmtree(runner.workdir, ignore_errors=True)
    # a job of the fixed set is attempted once and checked on every run; it
    # fails if any run of it fails, so the counts depend on the seed alone,
    # not on how many passes fit in the time
    failed = [o for o in outcomes if o.reasons]
    attempted = len({o.job.key for o in outcomes})
    failed_keys = {o.job.key for o in failed}
    extras["failed_frac"] = (len(failed_keys) / attempted, "ratio")
    result = {
        "correct": not any(o.silent for o in outcomes),
        "attempted": attempted,
        "failed": len(failed_keys),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "failures": [{"key": key, "label": o.job.label, "point": o.job.point,
                      "failed_runs": sum(f.job.key == key for f in failed), "reasons": o.reasons}
                     for key, o in {f.job.key: f for f in failed}.items()],
        "job_seconds": [[o.job.key, o.seconds, o.slowdown] for o in outcomes],
        "spans": tracer.spans if tracer else None,
    }
    return result, report


# ---------------------------------------------------------------- stamping


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def stamp(seed: int) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rdmix").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from an rdmix checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result, report = measure(w, args.seed, args.seconds, bool(args.trace))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    base = results / f"{w.name}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans")
    if spans is not None:
        with open(base.with_suffix(".spans.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "job", "extra"])
            writer.writerows(spans)
    record = {"workload": w.name, "seconds": args.seconds, "trace": args.trace,
              "stamp": stamp(args.seed), **result, **report}
    with open(base.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, m in {**result["metrics"], **report["extras"]}.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for f in report["failures"]:
        print(f"failed {f['key']} ({f['label']}) in {f['failed_runs']} runs: "
              + "; ".join(f["reasons"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
