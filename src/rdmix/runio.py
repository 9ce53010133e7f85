"""Configuration parsing and deterministic serialization of all outputs.

Configs are plain-text ``section.key = value`` lines with ``#`` comments.
CSV and JSON writers format floats with ``repr`` (shortest round-trip
decimal) and fixed column orders, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .certificates import ConstantsReport, RateCertificate, VerificationVerdict
from .entropy import DiagnosticsRecord
from .errors import DomainError, ParseError
from .profile import ProblemData, ProfileSolution
from .simulate import InitialConditionSpec, SimConfig

logger = logging.getLogger("rdmix")

_REQUIRED = object()


def comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


# key -> (SimConfig field, converter, default); _REQUIRED keys must be present.
# Fields under "data." and "ic." set the ProblemData and InitialConditionSpec
# parts; a None value is left out of serialized text.
_SCHEMA: dict[str, tuple] = {
    "problem.alpha": ("data.alpha", float, _REQUIRED),
    "problem.beta": ("data.beta", float, _REQUIRED),
    "problem.d1": ("data.d1", float, 1.0),
    "problem.d2": ("data.d2", float, 1.0),
    "problem.k": ("data.k", float, 1.0),
    "problem.A_minus": ("data.A_minus", float, _REQUIRED),
    "problem.A_plus": ("data.A_plus", float, _REQUIRED),
    "grid.L": ("grid_half_width", float, None),
    "grid.n": ("grid_n", int, 2001),
    "time.tau_end": ("tau_end", float, _REQUIRED),
    "time.dtau": ("dtau_initial", float, 1e-3),
    "time.dtau_min": ("dtau_min", float, 1e-9),
    "time.dtau_max": ("dtau_max", float, 1e-2),
    "output.sample_interval": ("sample_interval", float, 0.02),
    "ic.kind": ("ic.kind", str, "profile_exact"),
    "ic.amplitude": ("ic.amplitude", float, 0.0),
    "ic.width": ("ic.width", float, 1.0),
    "ic.center": ("ic.center", float, 0.0),
    "ic.path": ("ic.path", str, None),
    "entropy.p_list": ("p_list", comma_floats, None),
    "solver.tol": ("profile_tol", float, 1e-8),
}

# the reaction orders fix the species orientation, so they are validated and
# normalized on parsing and cannot be swept
_ORDERS = ("problem.alpha", "problem.beta")


def parse_config(text: str) -> SimConfig:
    """Parse and validate a key-value config; unknown keys are rejected.

    When beta > alpha the species are swapped into the canonical orientation
    (alpha >= beta) with a logged note; the swap exchanges the diffusivities
    and leaves the equilibria A+- unchanged.
    """
    raw = _read_lines(text)
    parts: dict[str, dict[str, object]] = {"": {}, "data": {}, "ic": {}}
    for key, (fld, conv, default) in _SCHEMA.items():
        if key in raw:
            lineno, text_value = raw[key]
            try:
                value = conv(text_value)
            except ValueError:
                raise ParseError(lineno, key, f"cannot parse {text_value!r} as {conv.__name__}")
        elif default is _REQUIRED:
            raise ParseError(0, key, "required key missing")
        else:
            value = default
        part, _, name = fld.rpartition(".")
        parts[part][name] = value

    data = parts["data"]
    for key in _ORDERS:
        name = key.split(".")[1]
        if data[name] < 1.0:
            raise ParseError(raw[key][0] if key in raw else 0, key, f"{name} must be >= 1")
    if data["beta"] > data["alpha"]:
        logger.info(
            "normalizing orientation: swapping species so alpha >= beta "
            "(alpha=%g, beta=%g, d1=%g, d2=%g -> alpha=%g, beta=%g, d1=%g, d2=%g)",
            data["alpha"], data["beta"], data["d1"], data["d2"],
            data["beta"], data["alpha"], data["d2"], data["d1"],
        )
        data["alpha"], data["beta"] = data["beta"], data["alpha"]
        data["d1"], data["d2"] = data["d2"], data["d1"]

    try:
        problem = ProblemData(**data)
    except DomainError as exc:
        raise ParseError(0, "problem", str(exc))
    try:
        return SimConfig(data=problem, ic=InitialConditionSpec(**parts["ic"]), **parts[""])
    except DomainError as exc:
        raise ParseError(0, "config", str(exc))


def _read_lines(text: str) -> dict[str, tuple[int, str]]:
    """The ``key -> (line number, value text)`` pairs of a config text."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(lineno, stripped, "expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ParseError(lineno, key, "unknown key")
        if key in raw:
            raise ParseError(lineno, key, "duplicate key")
        raw[key] = (lineno, value)
    return raw


def sweep_field(key: str, text: str) -> str:
    """The ProblemData field that holds a sweepable key of the config ``text``.

    That is the key's own field, except that d1 and d2 trade places when
    parsing swapped the species; ParseError for a key that cannot be swept.
    ``text`` must be a config that parses.
    """
    fld = _SCHEMA.get(key, ("",))[0]
    if key in _ORDERS or not fld.startswith("data."):
        raise ParseError(0, key, "unsupported sweep parameter")
    name = fld.split(".", 1)[1]
    alpha, beta = (float(_read_lines(text)[k][1]) for k in _ORDERS)
    if beta > alpha and name in ("d1", "d2"):
        name = "d2" if name == "d1" else "d1"
    return name


def serialize_config(config: SimConfig) -> str:
    """Config text whose parse reproduces ``config`` exactly."""
    lines = []
    for key, (fld, _, _) in _SCHEMA.items():
        value = attrgetter(fld)(config)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        elif not isinstance(value, str):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagnostics_header(p_list: tuple[float, ...]) -> list[str]:
    cols = ["tau", "E_B"]
    cols += [f"E_p_{p:g}" for p in p_list]
    cols += [
        "I_Fisher",
        "D_react",
        "I_Lambda",
        "I_Lambda_1",
        "I_Lambda_2",
        "hellinger_sq",
        "D_B_total",
        "dissipation_residual",
    ]
    return cols


def diagnostics_row(rec: DiagnosticsRecord, p_list: tuple[float, ...]) -> list:
    row = [rec.tau, rec.E_B]
    row += [rec.E_p[p] for p in p_list]
    row += [
        rec.I_Fisher,
        rec.D_react,
        rec.I_Lambda,
        rec.I_Lambda_1,
        rec.I_Lambda_2,
        rec.hellinger_sq,
        rec.D_B_total,
        rec.dissipation_residual,
    ]
    return row


def write_diagnostics_csv(path, records, p_list: tuple[float, ...]) -> None:
    write_csv(path, diagnostics_header(p_list), (diagnostics_row(r, p_list) for r in records))


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV keyed by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(x) for x in row] for row in rows]) if rows else np.zeros((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}


def write_profile_csv(path, sol: ProfileSolution) -> None:
    header = ["y", "U", "V", "Lambda", "U1", "U2", "V1", "V2"]
    rows = zip(sol.grid.nodes, sol.U, sol.V, sol.Lambda, sol.U1, sol.U2, sol.V1, sol.V2)
    write_csv(path, header, ([float(x) for x in row] for row in rows))


def certificate_to_dict(cert: RateCertificate) -> dict:
    return {
        "eta": cert.eta,
        "mu": cert.mu,
        "K": cert.K,
        "gamma": cert.gamma,
        "regime_tag": cert.regime_tag,
    }


def certificate_from_dict(obj: dict) -> RateCertificate:
    return RateCertificate(
        eta=float(obj["eta"]),
        mu=float(obj["mu"]),
        K=float(obj["K"]),
        gamma=float(obj["gamma"]),
        regime_tag=str(obj.get("regime_tag", "")),
    )


def read_certificate_json(path) -> RateCertificate:
    with open(path, encoding="utf-8") as fh:
        return certificate_from_dict(json.load(fh))


def constants_to_dict(report: ConstantsReport) -> dict:
    out = {
        name: getattr(report, name)
        for name in (
            "c_tilde_alpha",
            "lambda_star",
            "mu0",
            "K0",
            "mu1",
            "K1",
            "K2",
            "theta",
            "kappa",
            "mu_tilde",
            "K_tilde",
            "mu_tilde_star",
            "K_star",
        )
    }
    out["provenance"] = dict(report.provenance)
    return out


def verdict_to_dict(verdict: VerificationVerdict) -> dict:
    return {
        "passed": verdict.passed,
        "worst_ratio": verdict.worst_ratio,
        "slack": verdict.slack,
        "fitted_slope": verdict.fitted_slope,
        "fit_window": list(verdict.window),
        "n_samples": verdict.n_samples,
    }


@dataclass
class RunManifest:
    """Everything needed to reproduce a run's outputs byte for byte."""

    config_text: str
    code_version: str
    grid_n: int
    grid_half_width: float
    dtau_initial: float
    outputs: dict[str, str] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "config_text": self.config_text,
            "code_version": self.code_version,
            "grid_n": self.grid_n,
            "grid_half_width": self.grid_half_width,
            "dtau_initial": self.dtau_initial,
            "outputs": dict(self.outputs),
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def write_manifest(path, manifest: RunManifest) -> None:
    write_json(path, manifest.to_dict())
