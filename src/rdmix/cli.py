"""Command-line front-end: profile | simulate | verify | constants | conjugate | sweep.

Exit codes: 0 success, 1 verification failure, 2 numerical failure, 3 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, runio
from .certificates import check_entropy_family, compute_constants, select_certificate, verify_decay
from .conjugate import PhiFamily, check_m_hat, m_hat, phi_conjugate_bound, phi_conjugate_numeric
from .errors import DomainError, EmptyCurve, ParseError, RdmixError, UnsupportedRegime
from .profile import profile_invariants, solve_profile
from .simulate import run

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


def _load_config(path: str):
    return runio.parse_config(Path(path).read_text(encoding="utf-8"))


def _outdir(args) -> Path:
    """The ``--out`` directory, created; ``out`` when the flag is not given."""
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_profile(args) -> int:
    config = _load_config(args.config)
    grid = config.make_grid()
    sol = solve_profile(config.data, grid, tol=config.profile_tol)
    out = _outdir(args)
    csv_path = out / "profile.csv"
    runio.write_profile_csv(csv_path, sol)
    checks = profile_invariants(sol, tol=config.profile_tol)
    report = {
        "residual_norm": sol.residual_norm,
        "multiplier_mismatch": sol.multiplier_mismatch(),
        "invariants": checks,
        # boundary magnitudes let users judge the domain-truncation quality
        "tail_magnitudes": {
            key: float(np.abs(getattr(sol, key)[[0, -1]]).max()) for key in ("Lambda", "U1", "V1")
        },
        "profile_csv": str(csv_path),
    }
    runio.write_json(out / "profile_report.json", report)
    if not args.quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if all(checks.values()) else EXIT_NUMERICAL


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _outdir(args)
    t0 = time.time()
    result = run(config)
    p_list = config.effective_p_list()
    diag_path = out / "diagnostics.csv"
    runio.write_diagnostics_csv(diag_path, result.records, p_list)

    notes: list[str] = []
    verdicts = []
    reports = {}
    if result.records:
        # the Boltzmann certificate plus every power-family certificate the
        # sampled entropy list supports; each is judged against its own curve
        for p in dict.fromkeys((1.0, *p_list)):
            try:
                reports[p] = compute_constants(result.profile, config.data, p)
                cert = select_certificate(reports[p], config.data, p)
            except UnsupportedRegime as exc:
                notes.append(f"no certificate for p = {p:g} ({type(exc).__name__}): {exc}")
                continue
            if p == 1.0:
                runio.write_json(out / "certificate.json", asdict(cert))
            curve = [(r.tau, r.E_p[p]) for r in result.records]  # E_p holds 1 as E_B
            verdict = verify_decay(curve, cert, slack=args.slack)
            verdicts.append({"p": p, "certificate": asdict(cert), **asdict(verdict)})

    summary = {
        "tau_end": config.tau_end,
        "samples": len(result.records),
        **result.counters,
        "excess_mass_initial": result.excess_mass_initial,
        "final": (
            {
                "tau": result.records[-1].tau,
                "E_B": result.records[-1].E_B,
                "E_p": {f"{p:g}": result.records[-1].E_p[p] for p in p_list},
            }
            if result.records
            else None
        ),
        "fitted_slope": next((v["fitted_slope"] for v in verdicts if v["p"] == 1.0), None),
        "constants": asdict(reports[1.0]) if 1.0 in reports else None,
        "verdicts": verdicts,
        "notes": notes,
        "diagnostics_csv": str(diag_path),
    }
    runio.write_json(out / "summary.json", summary)
    # everything needed to reproduce the run's outputs byte for byte
    manifest = {
        "config_text": runio.serialize_config(config),
        "code_version": __version__,
        "grid_n": result.profile.grid.n,
        "grid_half_width": result.profile.grid.half_width,
        "dtau_initial": config.dtau_initial,
        "outputs": {"diagnostics": str(diag_path), "summary": str(out / "summary.json")},
        "wall_clock_seconds": time.time() - t0,
    }
    runio.write_json(out / "manifest.json", manifest)
    if not args.quiet:
        print(json.dumps(summary, indent=2, sort_keys=True))
    if verdicts and not all(v["passed"] for v in verdicts):
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    columns = runio.read_diagnostics_csv(args.diagnostics)
    cert = runio.read_certificate_json(args.certificate)
    curve = list(zip(columns["tau"], columns["E_B"]))
    try:
        verdict = verify_decay(curve, cert, slack=args.slack)
    except (DomainError, EmptyCurve) as exc:
        # unsorted tau, a negative entropy or no rows: the file is at fault
        raise ParseError(0, args.diagnostics, str(exc))
    payload = {"certificate": asdict(cert), **asdict(verdict)}
    if args.out:
        runio.write_json(_outdir(args) / "verdict.json", payload)
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if verdict.passed else EXIT_VERIFY_FAIL


def cmd_constants(args) -> int:
    config = _load_config(args.config)
    try:
        check_entropy_family(config.data, args.p)
    except UnsupportedRegime as exc:  # no certificate for this p: the flag is at fault
        raise ParseError(0, "--p", str(exc))
    grid = config.make_grid()
    sol = solve_profile(config.data, grid, tol=config.profile_tol)
    report = compute_constants(sol, config.data, args.p)
    payload = {**asdict(report), **_certificate_or_note(report, config.data, args.p)}
    if args.out:
        runio.write_json(_outdir(args) / "constants.json", payload)
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _certificate_or_note(report, data, p: float) -> dict:
    """``{"certificate": ...}``, or a null certificate and a note on why none applies."""
    try:
        return {"certificate": asdict(select_certificate(report, data, p))}
    except UnsupportedRegime as exc:
        return {"certificate": None, "note": str(exc)}


def _conjugate_flags(args):
    """The alphas, the xi nodes and the (p, alpha) m_hat pairs; ParseError if malformed."""

    def numbers(flag: str, text: str, sep: str, size: int | None = None) -> list[float]:
        try:
            values = [float(tok) for tok in text.split(sep)]
            if (size is None or len(values) == size) and all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
        want = f"{size or 'a list of'} {sep!r}-separated finite numbers"
        raise ParseError(0, flag, f"cannot parse {text!r} as {want}")

    alphas = numbers("--alpha", args.alpha, ",")
    if min(alphas) < 1.0:
        raise ParseError(0, "--alpha", f"each alpha must be >= 1, got {args.alpha!r}")
    lo, hi, count = numbers("--xi-range", args.xi_range, ":", 3)
    if not (count >= 1 and count.is_integer()):
        raise ParseError(0, "--xi-range", f"point count must be a positive integer, got {count:g}")
    pairs = []
    if args.m_hat:
        pairs = [numbers("--m-hat", pair, ":", 2) for pair in args.m_hat.split(",")]
    for p, a in pairs:
        try:
            check_m_hat(p, a)
        except DomainError as exc:
            raise ParseError(0, "--m-hat", str(exc))
    return alphas, np.linspace(lo, hi, int(count)), pairs


def cmd_conjugate(args) -> int:
    alphas, xis, pairs = _conjugate_flags(args)
    out = _outdir(args)
    blocks = []
    for a in alphas:
        numeric = phi_conjugate_numeric(PhiFamily("boltzmann_alpha", a), xis)
        bound = [phi_conjugate_bound(a, xi) for xi in xis.tolist()]
        blocks.append(np.column_stack((np.full_like(xis, a), xis, numeric, bound)))
    bounds_path = out / "conjugate_bounds.csv"
    runio.write_csv(bounds_path, ["alpha", "xi", "numeric", "bound"], np.vstack(blocks))
    written = [str(bounds_path)]
    if pairs:
        mh_rows = [[p, a, m_hat(p, a)] for p, a in pairs]
        mh_path = out / "m_hat.csv"
        runio.write_csv(mh_path, ["p", "alpha", "m_hat"], mh_rows)
        written.append(str(mh_path))
    if not args.quiet:
        print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    runio.parse_config(text)  # the file must parse on its own, also when nothing is swept
    rows = []
    for tok in args.values.split(",") if args.values else []:
        # the swept text replaces the user's value before the species swap
        cfg = runio.parse_config(text, {args.param: tok})
        sol = solve_profile(cfg.data, cfg.make_grid(), tol=cfg.profile_tol)
        report = compute_constants(sol, cfg.data, 1.0)
        rows.append(
            {
                "value": float(tok),
                "theta": report.theta,
                "lambda_star": report.lambda_star,
                "theta_ge_half": report.theta >= 0.5,
                **_certificate_or_note(report, cfg.data, 1.0),
            }
        )
    flagged = [row["value"] for row in rows if row["theta_ge_half"]]
    aggregate = {
        "param": args.param,
        "rows": rows,
        "first_flagged_value": min(flagged) if flagged else None,
    }
    out = _outdir(args)
    runio.write_json(out / "sweep.json", aggregate)
    if not args.quiet:
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ParseErrors, so ``main`` returns 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(0, self.prog, message)


def _slack(text: str) -> float:
    """The ``--slack`` value: a finite nonnegative number, else a usage error."""
    try:
        if 0.0 <= (value := float(text)) < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on first use.

    Building it costs about a millisecond, mostly in message lookups, and
    parsing leaves no state on it.
    """
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output directory (default: out; verify and constants "
                        "write files only when it is given)")
    common.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    config = _Parser(add_help=False, parents=[common])
    config.add_argument("--config", required=True, help="path to a key-value config file")

    parser = _Parser(prog="rdmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profile", parents=[config], help="solve the similarity profile")
    p_sim = sub.add_parser("simulate", parents=[config], help="run the scaled system")
    p_sim.add_argument("--slack", type=_slack, default=0.05)
    p_ver = sub.add_parser("verify", parents=[common], help="judge a diagnostics CSV")
    p_ver.add_argument("--diagnostics", required=True)
    p_ver.add_argument("--certificate", required=True)
    p_ver.add_argument("--slack", type=_slack, default=0.05)
    p_con = sub.add_parser("constants", parents=[config], help="decay constants as JSON")
    p_con.add_argument("--p", type=float, default=1.0)
    p_cj = sub.add_parser("conjugate", parents=[common], help="conjugate bound tables")
    p_cj.add_argument("--alpha", default="1,1.5,2,3")
    p_cj.add_argument("--xi-range", default="-5:5:201", dest="xi_range")
    p_cj.add_argument("--m-hat", default="", dest="m_hat")
    p_sw = sub.add_parser("sweep", parents=[config], help="parameter sweep of constants")
    p_sw.add_argument("--param", default="problem.A_plus", choices=runio.SWEEPABLE)
    p_sw.add_argument("--values", default="")
    return parser


_COMMANDS = {
    "profile": cmd_profile,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "constants": cmd_constants,
    "conjugate": cmd_conjugate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        level = logging.WARNING if args.quiet else logging.INFO
        logging.basicConfig(level=level)  # the first call in a process adds the handler
        logging.getLogger("rdmix").setLevel(level)  # every call sets its own level
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RdmixError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
