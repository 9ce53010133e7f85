"""Outside-in tracing of rdmix's layers for the benchmark's traced runs.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
by a wrapper that records a span: name, start, end, parent span, job id and
one extra field (the exception type of a raising call, the step size of a
diffusion solve, or the byte count of a written CSV file).  Several functions are
bound by name at import, so each is wrapped where its caller looks it up.
Spans stay in memory and are written out by the runner at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
from time import perf_counter

# (module, attribute path, span name, extra) -- extra names what to record
TARGETS = (
    ("rdmix.cli", "run", "simulate.run", None),
    ("rdmix.cli", "solve_profile", "profile.solve", None),
    ("rdmix.cli", "compute_constants", "certificates.constants", None),
    ("rdmix.cli", "verify_decay", "certificates.verify", None),
    ("rdmix.cli", "phi_conjugate_numeric", "conjugate.phi_conj", None),
    ("rdmix.cli", "m_hat", "conjugate.m_hat", None),
    ("rdmix.simulate", "solve_profile", "profile.solve", None),
    ("rdmix.simulate", "step", "simulate.step", "error"),
    ("rdmix.entropy", "dissipation_total", "entropy.sample", None),
    ("rdmix.fdops", "DriftDiffusionSolver.step", "fdops.diffusion", "dtau"),
    ("rdmix.fdops", "scalar_residual", "fdops.residual", None),
    ("rdmix.fdops", "jacobian_banded", "fdops.jacobian", None),
    ("rdmix.conjugate", "m_hat", "conjugate.m_hat", None),
    ("rdmix.entropy", "F_p_conjugate", "entropy.fp_conj", None),
    ("rdmix.runio", "parse_config", "runio.parse", None),
    ("rdmix.runio", "write_csv", "runio.csv_write", "bytes"),
    ("rdmix.runio", "write_json", "runio.json_write", None),
)

JOB_SPAN = "cli.job"


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent, job, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    @contextlib.contextmanager
    def span(self, name: str, job: int):
        """Record a harness-level span (one CLI job) that parents the layer spans."""
        self.job = job
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, extra: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec)
                if extra == "error":
                    rec[5] = type(exc).__name__
                raise
            tracer._close(rec)
            if extra == "dtau":
                rec[5] = args[2]  # (self, f, dtau)
            elif extra == "bytes":
                rec[5] = os.path.getsize(args[0])
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, name, extra in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, extra))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], count_jobs: set[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans.

    Timings use every span; counts use only the spans of ``count_jobs`` (one
    fixed pass), so they repeat exactly for a given seed and code.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]

    def durations(name, self_time=False, jobs=None):
        return [
            (rec[2] - rec[1]) - (child_time[i] if self_time else 0.0)
            for i, rec in enumerate(spans)
            if rec[0] == name and (jobs is None or rec[4] in jobs)
        ]

    def ms(values):
        return [1e3 * v for v in values]

    def count(name):
        return len(durations(name, jobs=count_jobs))

    steps = [rec for rec in spans if rec[0] == "simulate.step" and rec[4] in count_jobs]
    accepted = sum(1 for rec in steps if rec[5] is None)
    rejected = len(steps) - accepted
    dtaus_per_job: dict[int, set] = {}
    for rec in spans:
        if rec[0] == "fdops.diffusion" and rec[4] in count_jobs:
            dtaus_per_job.setdefault(rec[4], set()).add(rec[5])
    solves = count("profile.solve")
    residuals, jacobians = count("fdops.residual"), count("fdops.jacobian")
    trials = residuals - solves
    # CSV bytes only: the JSON outputs carry wall-clock times, so their size varies
    written = sum(rec[5] for rec in spans if rec[0] == "runio.csv_write" and rec[4] in count_jobs)
    return {
        "simulate.step_ms_p50": (percentile(ms(durations("simulate.step")), 50), "ms"),
        "simulate.step_ms_p90": (percentile(ms(durations("simulate.step")), 90), "ms"),
        "simulate.reaction_ms_p50": (percentile(ms(durations("simulate.step", True)), 50), "ms"),
        "simulate.steps_accepted": (accepted, "count"),
        "simulate.steps_rejected": (rejected, "count"),
        "simulate.accept_ratio": (accepted / len(steps) if steps else 0.0, "ratio"),
        "simulate.run_self_s": (percentile(durations("simulate.run", True), 50), "s"),
        "fdops.diffusion_ms_p50": (percentile(ms(durations("fdops.diffusion")), 50), "ms"),
        "fdops.diffusion_calls": (count("fdops.diffusion"), "count"),
        "fdops.distinct_dtau": (sum(len(s) for s in dtaus_per_job.values()), "count"),
        "fdops.residual_calls": (residuals, "count"),
        "fdops.jacobian_calls": (jacobians, "count"),
        "fdops.residual_ms_p50": (percentile(ms(durations("fdops.residual")), 50), "ms"),
        "fdops.jacobian_ms_p50": (percentile(ms(durations("fdops.jacobian")), 50), "ms"),
        "profile.solve_ms_p50": (percentile(ms(durations("profile.solve")), 50), "ms"),
        "profile.solve_ms_p90": (percentile(ms(durations("profile.solve")), 90), "ms"),
        "profile.newton_iters": (jacobians, "count"),
        "profile.trial_accept_ratio": (jacobians / trials if trials else 0.0, "ratio"),
        "entropy.sample_ms_p50": (percentile(ms(durations("entropy.sample")), 50), "ms"),
        "entropy.samples": (count("entropy.sample"), "count"),
        "entropy.fp_conj_ms_p50": (percentile(ms(durations("entropy.fp_conj")), 50), "ms"),
        "conjugate.phi_conj_ms_p50": (percentile(ms(durations("conjugate.phi_conj")), 50), "ms"),
        "conjugate.phi_conj_calls": (count("conjugate.phi_conj"), "count"),
        "conjugate.m_hat_ms_p50": (percentile(ms(durations("conjugate.m_hat")), 50), "ms"),
        "conjugate.m_hat_calls": (count("conjugate.m_hat"), "count"),
        "certificates.constants_ms_p50": (
            percentile(ms(durations("certificates.constants")), 50), "ms"),
        "certificates.verify_ms_p50": (percentile(ms(durations("certificates.verify")), 50), "ms"),
        "runio.parse_ms_p50": (percentile(ms(durations("runio.parse")), 50), "ms"),
        "runio.csv_write_ms_p50": (percentile(ms(durations("runio.csv_write")), 50), "ms"),
        "runio.json_write_ms_p50": (percentile(ms(durations("runio.json_write")), 50), "ms"),
        "runio.bytes_written": (written, "bytes"),
        "cli.self_ms_p50": (percentile(ms(durations(JOB_SPAN, True)), 50), "ms"),
    }
