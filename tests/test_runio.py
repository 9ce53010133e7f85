import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rdmix import ProblemData, RateCertificate, SimConfig, InitialConditionSpec, default_grid
from rdmix.entropy import DiagnosticsRecord
from rdmix.errors import ParseError
from rdmix.profile import solve_profile
from rdmix import runio

MINIMAL = """
problem.alpha = 2
problem.beta = 1
problem.A_minus = 1
problem.A_plus = 1.2
time.tau_end = 1.0
"""


def test_parse_minimal_fills_defaults():
    cfg = runio.parse_config(MINIMAL)
    assert cfg.data == ProblemData(2, 1, 1, 1, 1, 1, 1.2)
    assert cfg.grid_n is None
    assert cfg.grid_half_width is None
    assert cfg.dtau_initial == 1e-3
    assert cfg.sample_interval == 0.02
    assert cfg.ic.kind == "profile_exact"
    assert cfg.p_list is None


def test_parse_rejects_small_alpha():
    with pytest.raises(ParseError, match="alpha must be >= 1"):
        runio.parse_config(MINIMAL.replace("problem.alpha = 2", "problem.alpha = 0.5"))


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ParseError, match="unknown key"):
        runio.parse_config(MINIMAL + "problem.gamma = 3\n")
    with pytest.raises(ParseError, match="duplicate"):
        runio.parse_config(MINIMAL + "problem.alpha = 2\n")
    with pytest.raises(ParseError, match="required key missing"):
        runio.parse_config("problem.alpha = 2\n")


def test_parse_comments_and_bad_values():
    cfg = runio.parse_config(MINIMAL + "# a comment\ngrid.n = 501  # inline\n")
    assert cfg.grid_n == 501
    with pytest.raises(ParseError, match="cannot parse"):
        runio.parse_config(MINIMAL + "grid.n = many\n")


def test_grid_keys_override_the_default_rule():
    rule = runio.parse_config(MINIMAL).make_grid()
    assert (rule.half_width, rule.n) == (10.513043539513864, 659)
    # the jump is the larger one of A^beta and of A^alpha: 8 at (2, 1), A+- = (1, 3)
    steep = runio.parse_config(MINIMAL.replace("problem.A_plus = 1.2", "problem.A_plus = 3"))
    assert steep.make_grid() == default_grid(1.0, 1.0, ((1.0, 3.0), (1.0, 9.0)))
    assert steep.make_grid().half_width == 2.0 * math.sqrt(math.log(8.0 / 1e-12))
    # grid.L alone: n from the spacing 0.032 sqrt(min(d1, d2))
    given_L = runio.parse_config(MINIMAL + "grid.L = 5\n").make_grid()
    assert (given_L.half_width, given_L.n) == (5.0, 2 * math.ceil(5.0 / 0.032) + 1)
    # grid.n alone: L from the tail rule
    given_n = runio.parse_config(MINIMAL + "grid.n = 201\n").make_grid()
    assert (given_n.half_width, given_n.n) == (rule.half_width, 201)
    # both: used as given, as in the benchmark cases
    both = runio.parse_config(MINIMAL + "grid.L = 16\ngrid.n = 2001\n").make_grid()
    assert (both.half_width, both.n) == (16.0, 2001)


def test_a_default_grid_past_the_node_limit_names_the_grid_keys():
    with pytest.raises(ParseError, match=r"grid\.n .*grid\.L"):
        runio.parse_config(MINIMAL + "problem.d1 = 1e-4\nproblem.d2 = 1e4\n")
    # given both keys, the same problem parses
    runio.parse_config(MINIMAL + "problem.d1 = 1e-4\nproblem.d2 = 1e4\ngrid.L = 400\ngrid.n = 2001\n")


def test_parse_swaps_orientation(caplog):
    text = """
problem.alpha = 1
problem.beta = 2
problem.d1 = 5
problem.d2 = 7
problem.A_minus = 1
problem.A_plus = 1.3
time.tau_end = 0.5
"""
    with caplog.at_level("INFO", logger="rdmix"):
        cfg = runio.parse_config(text)
    assert cfg.data.alpha == 2 and cfg.data.beta == 1
    assert cfg.data.d1 == 7 and cfg.data.d2 == 5  # swapped with the species
    assert cfg.data.A_minus == 1 and cfg.data.A_plus == 1.3
    assert any("swapping species" in m for m in caplog.messages)
    # swapped text parses to the identical config as the pre-swapped one
    direct = runio.parse_config(text.replace("= 1\nproblem.beta = 2", "= 2\nproblem.beta = 1")
                                .replace("problem.d1 = 5", "problem.d1 = 7")
                                .replace("problem.d2 = 7", "problem.d2 = 5"))
    assert direct == cfg


def test_config_round_trip():
    cfg = SimConfig(
        data=ProblemData(2.5, 1.5, 1.25, 2.0, 0.7, 1.1, 1.9),
        tau_end=3.5,
        grid_n=801,
        grid_half_width=12.0,
        dtau_initial=2e-3,
        dtau_min=1e-8,
        dtau_max=5e-3,
        sample_interval=0.05,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.25, width=1.5, center=-0.5),
        p_list=(1.0, 0.5, 1.5),
        profile_tol=1e-9,
    )
    assert runio.parse_config(runio.serialize_config(cfg)) == cfg


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=1e-4, max_value=1e-2),
    st.none() | st.floats(min_value=1.0, max_value=64.0),
    st.none() | st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4).map(tuple),
    st.sampled_from(["profile_exact", "gaussian_bump", "shifted_erf", "file"]),
    st.floats(min_value=-0.99, max_value=5.0),
    _finite.filter(lambda w: w != 0.0),  # InitialConditionSpec rejects a zero width
    _finite,
    st.none() | st.text("abcxyz0123456789/._-", min_size=1, max_size=12),
)
def test_config_round_trip_random(
    alpha, a_plus, dtau, half_width, p_list, kind, amp, width, center, path
):
    assume(kind != "file" or path is not None)
    cfg = SimConfig(
        data=ProblemData(alpha, 1.0, 1.0, 2.0, 1.0, 1.0, a_plus),
        tau_end=1.0,
        grid_half_width=half_width,
        dtau_initial=dtau,
        dtau_min=min(dtau, 1e-9),
        dtau_max=max(dtau, 1e-2),
        ic=InitialConditionSpec(kind, amplitude=amp, width=width, center=center, path=path),
        p_list=p_list,
    )
    assert runio.parse_config(runio.serialize_config(cfg)) == cfg



def test_readme_config_block_parses_and_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    runio.parse_config(block)
    lines = (line.split("#", 1)[0] for line in block.splitlines())
    assert {line.split("=", 1)[0].strip() for line in lines if "=" in line} == set(runio._SCHEMA)

def test_csv_float_round_trip(tmp_path):
    path = tmp_path / "vals.csv"
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, math.inf, float("nan"), -0.0]
    runio.write_csv(path, ["x"], [[v] for v in values])
    text = path.read_text().strip().splitlines()
    assert text[0] == "x"
    back = [float(line) for line in text[1:]]
    for orig, rt in zip(values, back):
        if math.isnan(orig):
            assert math.isnan(rt)
        else:
            assert rt == orig  # bitwise identical round trip
    assert text[5] == "inf"


def test_diagnostics_csv_round_trip(tmp_path):
    p_list = (1.0, 0.5)
    rec = DiagnosticsRecord(
        tau=0.1,
        E_B=0.5,
        E_p={1.0: 0.5, 0.5: 0.3},
        I_Fisher=0.2,
        D_react=math.inf,
        I_Lambda=-0.01,
        I_Lambda_1=-0.01,
        I_Lambda_2=0.0,
        hellinger_sq=0.15,
        D_B_total=1.0,
    )
    path = tmp_path / "diag.csv"
    runio.write_diagnostics_csv(path, [rec], p_list)
    cols = runio.read_diagnostics_csv(path)
    assert cols["tau"][0] == 0.1
    assert cols["E_p_0.5"][0] == 0.3
    assert cols["D_react"][0] == math.inf
    assert math.isnan(cols["dissipation_residual"][0])


CSV_VALUES = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e-5, 1e-4, 1e16, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan]


def _rowwise(header, rows) -> str:
    """The CSV text formatted one value at a time with ``repr``."""
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def test_write_csv_is_repr_of_each_value(tmp_path):
    rows = [[v, w, 1.0] for v, w in zip(CSV_VALUES, reversed(CSV_VALUES))]
    expected = _rowwise(["a", "b", "c"], rows)
    forms = {
        "ndarray": np.array(rows),
        "list": rows,
        "generator": (list(row) for row in rows),
    }
    for name, form in forms.items():
        path = tmp_path / f"{name}.csv"
        runio.write_csv(path, ["a", "b", "c"], form)
        assert path.read_text() == expected, name
    for line in ("0.1,nan,1.0", "-0.0,inf,1.0", "5e-324,1.7976931348623157e+308,1.0",
                 "1e-05,1e+16,1.0", "0.0001,0.0001,1.0", "-inf,0.3333333333333333,1.0"):
        assert f"\n{line}\n" in expected
    with pytest.raises(ValueError):
        runio.write_csv(tmp_path / "bad.csv", ["a", "b"], rows)


def test_write_csv_keeps_both_zeros_apart(tmp_path):
    # 0.0 == -0.0 as values, so a writer that merged equal values would print one for both
    rows = [[0.0, -0.0, 1.0], [-0.0, 0.0, math.nan], [0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]]
    path = tmp_path / "zeros.csv"
    runio.write_csv(path, ["a", "b", "c"], np.array(rows))
    assert path.read_text() == "a,b,c\n0.0,-0.0,1.0\n-0.0,0.0,nan\n0.0,0.0,-0.0\n-0.0,-0.0,0.0\n"


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                   np.int64(0x7FF8000000000001).view(np.float64).item()]  # a NaN with a payload


@given(
    st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=24),
    st.integers(0, 600),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_rowwise_repr(tmp_path_factory, pool, n_rows, n_cols, seed):
    # the cells repeat a small pool of values, over up to three blocks of rows
    picks = np.random.default_rng(seed).integers(len(pool), size=(n_rows, n_cols))
    table = np.array(pool, dtype=np.float64)[picks]
    header = [f"c{j}" for j in range(n_cols)]
    path = tmp_path_factory.getbasetemp() / "rowwise.csv"
    runio.write_csv(path, header, table)
    assert path.read_text() == _rowwise(header, table.tolist())


def test_profile_csv_is_repr_of_each_value(tmp_path):
    cfg = runio.parse_config(MINIMAL + "problem.d2 = 3.7\n")
    sol = solve_profile(cfg.data, cfg.make_grid(), tol=cfg.profile_tol)
    path = tmp_path / "profile.csv"
    runio.write_profile_csv(path, sol)
    columns = (sol.grid.nodes, sol.U, sol.V, sol.Lambda, sol.U1, sol.U2, sol.V1, sol.V2)
    rows = [[float(x) for x in row] for row in zip(*columns)]
    header = "y,U,V,Lambda,U1,U2,V1,V2".split(",")
    assert path.read_text() == _rowwise(header, rows)
    assert len(rows) == 1265  # the default grid at d = (1, 3.7)


def test_empty_diagnostics_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    runio.write_diagnostics_csv(path, [], (1.0,))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("tau,E_B,E_p_1,")
    cols = runio.read_diagnostics_csv(path)
    assert cols["tau"].size == 0


def test_certificate_json_round_trip(tmp_path):
    cert = RateCertificate(0.4, 0.1, 2.5, 1.0, "test regime")
    path = tmp_path / "cert.json"
    runio.write_json(path, dataclasses.asdict(cert))
    assert runio.read_certificate_json(path) == cert


def test_certificate_json_without_tag_reads_empty_tag(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"eta": 0.5, "mu": 0, "K": 1.5, "gamma": 1}')
    assert runio.read_certificate_json(path) == RateCertificate(0.5, 0.0, 1.5, 1.0, "")
