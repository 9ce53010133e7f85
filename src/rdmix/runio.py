"""Configuration parsing and deterministic serialization of all outputs.

Configs are plain-text ``section.key = value`` lines with ``#`` comments.
CSV and JSON writers format floats with ``repr`` (shortest round-trip
decimal) and fixed column orders, so identical runs produce identical bytes.
The CSV writer takes that ``repr`` once per distinct 64-bit pattern of a
block of rows and reuses the string for every cell with the same bits; a
float's ``repr`` depends on its bits alone, so the bytes are those of
formatting each value in turn.
"""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, fields, replace
from operator import attrgetter

import numpy as np

from .certificates import RateCertificate
from .entropy import DiagnosticsRecord
from .errors import DomainError, ParseError
from .profile import ProblemData, ProfileSolution
from .simulate import InitialConditionSpec, SimConfig

logger = logging.getLogger("rdmix")


def comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


# key -> (SimConfig field, converter).  Fields under "data." and "ic." set the
# ProblemData and InitialConditionSpec parts; a None value is left out of
# serialized text.
_SCHEMA: dict[str, tuple] = {
    "problem.alpha": ("data.alpha", float),
    "problem.beta": ("data.beta", float),
    "problem.d1": ("data.d1", float),
    "problem.d2": ("data.d2", float),
    "problem.k": ("data.k", float),
    "problem.A_minus": ("data.A_minus", float),
    "problem.A_plus": ("data.A_plus", float),
    "grid.L": ("grid_half_width", float),
    "grid.n": ("grid_n", int),
    "time.tau_end": ("tau_end", float),
    "time.dtau": ("dtau_initial", float),
    "time.dtau_min": ("dtau_min", float),
    "time.dtau_max": ("dtau_max", float),
    "output.sample_interval": ("sample_interval", float),
    "ic.kind": ("ic.kind", str),
    "ic.amplitude": ("ic.amplitude", float),
    "ic.width": ("ic.width", float),
    "ic.center": ("ic.center", float),
    "ic.path": ("ic.path", str),
    "entropy.p_list": ("p_list", comma_floats),
    "solver.tol": ("profile_tol", float),
}

# the value of a key left out, per part: its field's dataclass default.  ProblemData
# has none, so its diffusivities and k default to 1 here; a key without a default
# is required
_DEFAULTS: dict[str, dict[str, object]] = {
    "": {f.name: f.default for f in fields(SimConfig) if f.default is not MISSING},
    "data": {"d1": 1.0, "d2": 1.0, "k": 1.0},
    "ic": {f.name: f.default for f in fields(InitialConditionSpec)},
}

# the reaction orders fix the species orientation, so they are validated and
# normalized on parsing and cannot be swept
_ORDERS = ("problem.alpha", "problem.beta")
SWEEPABLE = tuple(
    key for key, (fld, _) in _SCHEMA.items() if fld.startswith("data.") and key not in _ORDERS
)


def parse_config(text: str, overrides: dict[str, str] | None = None) -> SimConfig:
    """Parse and validate a key-value config; unknown keys are rejected.

    ``overrides`` maps keys to value texts that replace the config's own (a
    sweep point); they are validated like the rest.  When beta > alpha the
    species are swapped into the canonical orientation (alpha >= beta) with a
    logged note; the swap exchanges the diffusivities and leaves the
    equilibria A+- unchanged.
    """
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
    raw.update((key, (0, value)) for key, value in (overrides or {}).items())

    parts: dict[str, dict[str, object]] = {"": {}, "data": {}, "ic": {}}
    for key, (fld, conv) in _SCHEMA.items():
        part, _, name = fld.rpartition(".")
        if key in raw:
            lineno, text_value = raw[key]
            try:
                value = conv(text_value)
            except ValueError:
                raise ParseError(lineno, key, f"cannot parse {text_value!r} as {conv.__name__}")
        elif name in _DEFAULTS[part]:
            value = _DEFAULTS[part][name]
        else:
            raise ParseError(0, key, "required key missing")
        parts[part][name] = value

    data = parts["data"]
    for key in _ORDERS:
        name = key.split(".")[1]
        if data[name] < 1.0:
            raise ParseError(raw[key][0] if key in raw else 0, key, f"{name} must be >= 1")
    swap = data["beta"] > data["alpha"]
    if swap:
        data["alpha"], data["beta"] = data["beta"], data["alpha"]
    try:
        # d1 and d2 are still as written, so an error names the user's key
        problem = ProblemData(**data)
    except DomainError as exc:
        raise ParseError(0, "problem", str(exc))
    if swap:
        logger.info(
            "normalizing orientation: swapping species so alpha >= beta "
            "(alpha=%g, beta=%g, d1=%g, d2=%g -> alpha=%g, beta=%g, d1=%g, d2=%g)",
            problem.beta, problem.alpha, problem.d1, problem.d2,
            problem.alpha, problem.beta, problem.d2, problem.d1,
        )
        problem = replace(problem, d1=problem.d2, d2=problem.d1)
    try:
        return SimConfig(data=problem, ic=InitialConditionSpec(**parts["ic"]), **parts[""])
    except DomainError as exc:
        raise ParseError(0, "config", str(exc))


def serialize_config(config: SimConfig) -> str:
    """Config text whose parse reproduces ``config`` exactly."""
    lines = []
    for key, (fld, _) in _SCHEMA.items():
        value = attrgetter(fld)(config)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        elif not isinstance(value, str):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# rows per formatting block: a few hundred keep one block's strings small, at
# nearly the saving of deduplicating the whole table at once
_BLOCK_ROWS = 250


def write_csv(path, header: list[str], rows) -> None:
    """Write ``rows`` (an array, or an iterable of rows) of floats under ``header``.

    Each value is the ``repr`` of a Python float (shortest round-trip decimal;
    ``inf``, ``-inf``, ``nan``, ``-0.0``).  The table is written in blocks of
    ``_BLOCK_ROWS`` rows.  In each block ``repr`` runs once per distinct 64-bit
    pattern and every cell with that pattern gets its string.  A ``repr`` is a
    function of the bits, so the bytes equal those of formatting each value;
    keying on the bits, not the values, keeps ``0.0`` apart from ``-0.0``.
    """
    table = np.array(rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.float64)
    table = table.reshape(-1, len(header)) if table.size == 0 else table
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"rows of shape {table.shape} do not fit {len(header)} columns")
    bits = table.view(np.int64)
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = bits[start:start + _BLOCK_ROWS]
            distinct, inverse = np.unique(block.ravel(), return_inverse=True)
            text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
            fh.write(line * len(block) % tuple(text[inverse].tolist()))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagnostics_header(p_list: tuple[float, ...]) -> list[str]:
    """The DiagnosticsRecord fields in order, E_p expanded to one column per p."""
    return [
        col
        for f in fields(DiagnosticsRecord)
        for col in ([f"E_p_{p:g}" for p in p_list] if f.name == "E_p" else [f.name])
    ]


def write_diagnostics_csv(path, records, p_list: tuple[float, ...]) -> None:
    names = [f.name for f in fields(DiagnosticsRecord)]
    rows = (
        [x for n in names for x in ([r.E_p[p] for p in p_list] if n == "E_p" else [getattr(r, n)])]
        for r in records
    )
    write_csv(path, diagnostics_header(p_list), rows)


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV keyed by header name.

    ParseError when a cell is not a number, a row has the wrong length, or
    the tau or E_B column is missing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(0, str(path), f"not a diagnostics CSV: {exc}")
    for name in ("tau", "E_B"):
        if name not in header:
            raise ParseError(1, str(path), f"no {name} column")
    return {name: data[:, j] for j, name in enumerate(header)}


def write_profile_csv(path, sol: ProfileSolution) -> None:
    header = ["y", "U", "V", "Lambda", "U1", "U2", "V1", "V2"]
    columns = (sol.grid.nodes, sol.U, sol.V, sol.Lambda, sol.U1, sol.U2, sol.V1, sol.V2)
    write_csv(path, header, np.column_stack(columns))


def read_certificate_json(path) -> RateCertificate:
    """The certificate in a JSON file; ParseError when it is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        return RateCertificate(**{
            f.name: str(obj.get(f.name, "")) if f.type == "str" else float(obj[f.name])
            for f in fields(RateCertificate)
        })
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(0, str(path), f"not a certificate: {type(exc).__name__}: {exc}")
