import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdmix
from rdmix import RateCertificate, gronwall_envelope, solve_profile
from rdmix import cli, runio
from rdmix.cli import main
from rdmix.simulate import build_initial_state, conserved_moment, run

ORACLE_CFG = """
problem.alpha = 2
problem.beta = 2
problem.d1 = 1
problem.d2 = 1
problem.A_minus = 1
problem.A_plus = 2
grid.L = 8
grid.n = 2001
time.tau_end = 0.2
"""

SMALL_SIM_CFG = """
problem.alpha = 2
problem.beta = 2
problem.d1 = 1
problem.d2 = 1
problem.A_minus = 1
problem.A_plus = 2
grid.L = 16
grid.n = 401
time.tau_end = 0.3
time.dtau = 2e-3
time.dtau_max = 2e-3
output.sample_interval = 0.05
ic.kind = gaussian_bump
ic.amplitude = 0.2
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cmd_profile_oracle_case(tmp_path, capsys):
    cfg = _write(tmp_path, ORACLE_CFG)
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "profile_report.json").read_text())
    assert all(report["invariants"].values())
    lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert lines[0] == "y,U,V,Lambda,U1,U2,V1,V2"
    assert len(lines) == 2002


def test_cmd_profile_flat_case(tmp_path):
    cfg = _write(tmp_path, ORACLE_CFG.replace("problem.A_plus = 2", "problem.A_plus = 1"))
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_cmd_profile_unreachable_tolerance(tmp_path, capsys):
    cfg = _write(tmp_path, ORACLE_CFG + "solver.tol = 1e-30\n")
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "NonConvergence" in capsys.readouterr().err


def test_cmd_simulate_and_verify_round_trip(tmp_path):
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "tau_end", "samples", "steps_accepted", "steps_rejected", "steps_rejected_by_cause",
        "reaction_newton_iterations", "reaction_midpoint_fallbacks", "dtau_range", "final",
        "diffusion_factorizations", "diffusion_pivoted_factorizations", "excess_mass_initial",
        "fitted_slope", "constants", "verdicts", "notes", "diagnostics_csv",
    }
    # one step size, factored once for both species, without row interchanges
    counts = summary["diffusion_factorizations"], summary["diffusion_pivoted_factorizations"]
    assert counts == (1, 0)
    assert summary["verdicts"] and summary["verdicts"][0]["passed"]
    causes = summary["steps_rejected_by_cause"]
    assert causes == {"PositivityLoss": 0, "NewtonFailure": 0}
    assert sum(causes.values()) == summary["steps_rejected"]
    assert summary["final"]["E_B"] < summary["verdicts"][0]["certificate"]["eta"]  # decayed well below 1/2
    # the output dataclasses' field names are the file format; pin them
    cert_keys = {"eta", "mu", "K", "gamma", "regime_tag"}
    verdict_keys = {"passed", "worst_ratio", "slack", "fitted_slope", "fit_window", "n_samples"}
    assert set(json.loads((out / "certificate.json").read_text())) == cert_keys
    assert set(summary["verdicts"][0]) == {"p", "certificate"} | verdict_keys
    assert set(summary["verdicts"][0]["certificate"]) == cert_keys
    assert set(summary["constants"]) == {
        "c_tilde_alpha", "lambda_star", "mu0", "K0", "mu1", "K1", "K2", "theta",
        "kappa", "mu_tilde", "K_tilde", "mu_tilde_star", "K_star", "provenance",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "config_text", "code_version", "grid_n", "grid_half_width", "dtau_initial",
        "outputs", "wall_clock_seconds",
    }
    assert set(manifest["outputs"]) == {"diagnostics", "summary"}
    header = (out / "diagnostics.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["tau", "E_B", "E_p_1", "E_p_0.5"]  # each sampled p once
    assert len(set(header)) == len(header)
    # p = 1/2 is sampled but outside alpha = 2's range: a note, not a verdict
    assert [v["p"] for v in summary["verdicts"]] == [1.0]
    (note,) = summary["notes"]
    assert note.startswith("no certificate for p = 0.5")
    assert all(col.startswith("E_p_") for col in header[2:-8])
    assert header[-8:] == [
        "I_Fisher", "D_react", "I_Lambda", "I_Lambda_1", "I_Lambda_2",
        "hellinger_sq", "D_B_total", "dissipation_residual",
    ]
    # standalone verification against the emitted certificate
    rc2 = main(
        [
            "verify",
            "--diagnostics",
            str(out / "diagnostics.csv"),
            "--certificate",
            str(out / "certificate.json"),
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert rc2 == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert set(verdict) == {"certificate"} | verdict_keys
    assert set(verdict["certificate"]) == cert_keys


@pytest.mark.parametrize("kind", ["gaussian_bump", "profile_exact"])
def test_cmd_simulate_reports_the_initial_excess_mass(tmp_path, kind):
    text = SMALL_SIM_CFG.replace("ic.kind = gaussian_bump", f"ic.kind = {kind}")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    reported = json.loads((out / "summary.json").read_text())["excess_mass_initial"]
    config = runio.parse_config(text)
    profile = solve_profile(config.data, config.make_grid(), tol=config.profile_tol)
    expected = conserved_moment(build_initial_state(config, profile), profile)
    assert reported == expected
    if kind == "gaussian_bump":  # beta U + alpha V times the bump 0.2 exp(-y^2), integrated
        assert reported > 0.1
    else:  # the profile itself carries no excess mass
        assert abs(reported) <= 1e-13


def test_cmd_simulate_manifest_names_the_default_grid_of_its_run(tmp_path):
    text = "\n".join(line for line in SMALL_SIM_CFG.splitlines() if not line.startswith("grid."))
    text = text.replace("time.tau_end = 0.3", "time.tau_end = 0.02")
    out = tmp_path / "default"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    grid = runio.parse_config(text).make_grid()
    assert (manifest["grid_half_width"], manifest["grid_n"]) == (grid.half_width, grid.n)
    assert grid.n != 2001
    # the config echo with the manifest's grid written out gives the same run
    pinned = (manifest["config_text"] + f"grid.L = {manifest['grid_half_width']!r}\n"
              f"grid.n = {manifest['grid_n']}\n")
    again = tmp_path / "pinned"
    assert main(["simulate", "--config", _write(tmp_path, pinned, "pinned.cfg"), "--out",
                 str(again), "--quiet"]) == 0
    diagnostics = [(d / "diagnostics.csv").read_bytes() for d in (out, again)]
    assert diagnostics[0] == diagnostics[1]


def test_cmd_simulate_exits_1_when_a_verdict_fails(tmp_path, monkeypatch):
    # a certificate that promises decay far faster than the run's: each verdict
    # fails, and the outputs are written before main returns 1
    def too_fast(report, data, p):
        return RateCertificate(50, 0, 0, 1, "test")

    monkeypatch.setattr(cli, "select_certificate", too_fast)
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write(tmp_path, SMALL_SIM_CFG), "--out", str(out), "--quiet"]
    assert main(argv) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] and not any(v["passed"] for v in summary["verdicts"])
    assert {v["certificate"]["regime_tag"] for v in summary["verdicts"]} == {"test"}


# unequal diffusivities to tau 30 under the default step controller
UNEQUAL_DIFFUSIVITIES_CFG = """
problem.alpha = 1
problem.beta = 1
problem.d1 = 1
problem.d2 = 5
problem.A_minus = 1
problem.A_plus = 3
grid.L = 24
grid.n = 1001
time.tau_end = 30
output.sample_interval = 0.1
entropy.p_list = 1
ic.kind = gaussian_bump
ic.amplitude = 0.2
"""


def test_cmd_simulate_passes_at_unequal_diffusivities_to_tau_30(tmp_path):
    # a Lie step settled on an E_B floor of its own here: with dtau_max 1e-2 this run
    # exited 1 (worst ratio 9.573, late slope +0.0014, 3042 steps); the rebalanced step
    # keeps E_B decaying at the certified rate, and the verdict passes at the default slack
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write(tmp_path, UNEQUAL_DIFFUSIVITIES_CFG), "--out",
            str(out), "--quiet"]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text())
    (verdict,) = summary["verdicts"]
    assert verdict["passed"] and verdict["slack"] == 0.05
    assert verdict["fitted_slope"] < -0.9
    assert summary["final"]["E_B"] < 1e-14


def test_cmd_simulate_tau_end_zero_header_only(tmp_path):
    cfg = _write(tmp_path, SMALL_SIM_CFG.replace("time.tau_end = 0.3", "time.tau_end = 0"))
    out = tmp_path / "zero"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert {key: summary[key] for key in (
        "samples", "steps_accepted", "steps_rejected", "steps_rejected_by_cause",
        "reaction_newton_iterations", "reaction_midpoint_fallbacks", "dtau_range",
        "diffusion_factorizations", "diffusion_pivoted_factorizations",
    )} == {
        "samples": 0, "steps_accepted": 0, "steps_rejected": 0,
        "steps_rejected_by_cause": {"PositivityLoss": 0, "NewtonFailure": 0},
        "reaction_newton_iterations": 0, "reaction_midpoint_fallbacks": 0, "dtau_range": None,
        "diffusion_factorizations": 0, "diffusion_pivoted_factorizations": 0,
    }


def test_cmd_simulate_convection_dominated_species_keeps_pivoted_factors(tmp_path):
    # d2 = 0.01 on L = 16 puts v's cell Peclet number far above 1 at dtau 1e-2
    cfg = _write(tmp_path, """
problem.alpha = 1
problem.beta = 1
problem.d1 = 1
problem.d2 = 0.01
problem.A_minus = 1
problem.A_plus = 2
grid.L = 16
grid.n = 2001
time.tau_end = 0.2
time.dtau = 1e-2
time.dtau_max = 1e-2
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["diffusion_factorizations"], summary["diffusion_pivoted_factorizations"]
    assert counts == (1, 1)  # v's row needs interchanges, so the block kept pivoted factors
    assert len(summary["verdicts"]) == 2 and all(v["passed"] for v in summary["verdicts"])


def test_run_result_keeps_the_reads_of_the_reference_script(tmp_path):
    # benchmarks/make_refs.py writes tau and E_B of each record and prints
    # steps_accepted and wall_time; no test runs that script
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    result = run(runio.parse_config(SMALL_SIM_CFG))
    assert len(result.records) == summary["samples"]
    assert [result.records[-1].tau, result.records[-1].E_B] == [
        summary["final"]["tau"], summary["final"]["E_B"]
    ]
    assert result.steps_accepted == summary["steps_accepted"] > 0
    assert 0.0 < result.wall_time < math.inf


def test_cmd_simulate_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


# a flatness number theta >= 1/2: no rate certificate applies
THETA_CFG = """
problem.alpha = 4
problem.beta = 1
problem.d1 = 1
problem.d2 = 2
problem.A_minus = 0.05
problem.A_plus = 2
grid.L = 16
grid.n = 401
time.tau_end = 0.1
time.dtau = 2e-3
time.dtau_max = 2e-3
output.sample_interval = 0.05
"""


def test_cmd_simulate_theta_too_large_still_simulates(tmp_path):
    cfg = _write(tmp_path, THETA_CFG)
    out = tmp_path / "theta"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0  # no verdict to fail; the run itself completes
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == []
    assert any("ThetaTooLarge" in note for note in summary["notes"])
    assert summary["samples"] == 3


def test_constants_and_sweep_without_a_certificate_hold_a_note(tmp_path):
    cfg = _write(tmp_path, THETA_CFG)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "constants.json").read_text())
    assert payload["certificate"] is None
    assert "theta = 257.449 >= 1/2" in payload["note"]
    argv = ["sweep", "--config", cfg, "--values", "2,1.05", "--out", str(out), "--quiet"]
    assert main(argv) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [row["value"] for row in rows] == [2.0, 1.05]
    for row in rows:
        assert row["certificate"] is None
        assert f"theta = {row['theta']:.6g} >= 1/2" in row["note"]
    assert "theta = 257.449 >= 1/2" in rows[0]["note"]


def test_cmd_simulate_emits_power_family_certificates(tmp_path):
    cfg = _write(
        tmp_path,
        """
problem.alpha = 1
problem.beta = 1
problem.d1 = 1
problem.d2 = 2
problem.A_minus = 1
problem.A_plus = 1.5
grid.L = 16
grid.n = 401
time.tau_end = 0.3
time.dtau = 2e-3
time.dtau_max = 2e-3
output.sample_interval = 0.05
ic.kind = gaussian_bump
ic.amplitude = 0.2
""",
    )
    out = tmp_path / "dual"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    ps = [v["p"] for v in summary["verdicts"]]
    assert ps == [1.0, 0.5]  # Boltzmann plus the Hellinger-family certificate
    assert all(v["passed"] for v in summary["verdicts"])
    etas = {v["p"]: v["certificate"]["eta"] for v in summary["verdicts"]}
    assert etas[1.0] == 0.5
    assert etas[0.5] < 0.5  # damping folded into the rate


def test_cmd_verify_failure_exit_code(tmp_path):
    cert = RateCertificate(0.5, 0.0, 0.0, 1.0, "strict")
    runio.write_json(tmp_path / "cert.json", dataclasses.asdict(cert))
    taus = np.linspace(0.0, 2.0, 11)
    rows = []
    from rdmix.entropy import DiagnosticsRecord

    for t in taus:
        e = math.exp(-0.1 * t)  # far slower than the certificate demands
        rows.append(DiagnosticsRecord(tau=float(t), E_B=e, E_p={1.0: e}))
    runio.write_diagnostics_csv(tmp_path / "diag.csv", rows, (1.0,))
    rc = main(
        [
            "verify",
            "--diagnostics",
            str(tmp_path / "diag.csv"),
            "--certificate",
            str(tmp_path / "cert.json"),
            "--quiet",
        ]
    )
    assert rc == 1


def test_cmd_constants(tmp_path, capsys):
    cfg = _write(tmp_path, ORACLE_CFG)
    rc = main(["constants", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == pytest.approx(0.0, abs=1e-12)
    assert payload["K2"] == pytest.approx(0.0, abs=1e-12)  # d1 = d2: flat multiplier
    assert payload["certificate"]["eta"] == 0.5


def test_cmd_constants_domain_error(tmp_path, capsys, monkeypatch):
    # an inadmissible --p is a usage error, found before the profile is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("the profile was solved for an inadmissible --p")

    monkeypatch.setattr("rdmix.cli.solve_profile", no_solve)
    cfg = _write(tmp_path, ORACLE_CFG)
    rc = main(["constants", "--config", cfg, "--p", "5.0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "outside the admissible range" in capsys.readouterr().err
    unequal = _write(tmp_path, ORACLE_CFG.replace("problem.beta = 2", "problem.beta = 1"), "u.cfg")
    rc = main(["constants", "--config", unequal, "--p", "0.5", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "require equal reaction orders" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# alpha = 1 scales mu0 and K0 by e^(lambda_star/k): about e^53 at k = 1e-3, past
# the float range at k = 1e-5
BOOSTED_CFG = """
problem.alpha = {alpha}
problem.beta = {alpha}
problem.d1 = 1
problem.d2 = {d2}
problem.k = {k}
problem.A_minus = 1
problem.A_plus = 2
grid.n = 401
time.tau_end = 0.1
"""


def test_an_envelope_beyond_the_float_range_is_vacuous(tmp_path):
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=1, d2=3, k="1e-3"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    boltzmann = summary["verdicts"][0]
    assert boltzmann["p"] == 1.0 and boltzmann["certificate"]["mu"] > 1e23
    assert boltzmann["worst_ratio"] == 0.0 and boltzmann["passed"]


@pytest.mark.parametrize("late_entropy, verdict", [(0.0, 0), (0.5, 1)])
def test_verify_an_envelope_past_the_float_range_of_its_exponents(tmp_path, late_entropy, verdict):
    # at tau = 3000, e^((eta - gamma) tau) = e^750 overflows; the envelope 4 e^(-750) is 0.0
    runio.write_json(tmp_path / "cert.json", {"eta": 0.5, "mu": 0.0, "K": 1.0, "gamma": 0.25,
                                              "regime_tag": "test"})
    (tmp_path / "diag.csv").write_text(f"tau,E_B\n0,1\n1,0.5\n3000,{late_entropy}\n")
    rc = main(["verify", "--diagnostics", str(tmp_path / "diag.csv"),
               "--certificate", str(tmp_path / "cert.json"), "--quiet"])
    assert rc == verdict


def test_alpha_one_constants_past_the_float_range_are_a_numerical_failure(tmp_path, capsys):
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=1, d2=3, k="1e-5"))
    for argv in (["constants", "--config", cfg],
                 ["sweep", "--config", cfg, "--param", "problem.k", "--values", "1e-5",
                  "--out", str(tmp_path / "out")]):
        assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UnsupportedRegime" in err
        assert "mu0 = inf leaves the float range" in err


def _main(capsys, argv):
    """Exit code and stderr of one in-process run, which must print no traceback."""
    rc = main(argv + ["--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


# (alpha, d2, k) whose Boltzmann constant named second is past the float range (K1:
# k^100 underflows in the old c_tilde / k^(1/(alpha-1)); mu0: e^(lambda_star/k)
# overflows), and the regimes of the p = 1/2 verdicts that simulate still gives
PAST_RANGE = [
    pytest.param((1.01, 3, "1e-5"), "K1", ["power entropy p=0.5"], id="alpha-1.01"),
    # the p = 1/2 damping swallows the rate: a second note
    pytest.param((1, 3, "1e-5"), "mu0", [], id="alpha-1"),
    pytest.param((1, 1.01, "6e-7"), "mu0", ["hellinger, alpha = 1"], id="hellinger"),
]


@pytest.mark.parametrize("case, name, regimes", PAST_RANGE[::2])
def test_constants_past_the_float_range_in_any_band_are_a_numerical_failure(
    tmp_path, capsys, case, name, regimes
):
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=case[0], d2=case[1], k=case[2]))
    for argv in (["constants", "--config", cfg],
                 ["sweep", "--config", cfg, "--param", "problem.k", "--values", case[2],
                  "--out", str(tmp_path / "out")]):
        rc, err = _main(capsys, argv)
        assert rc == 2 and err.count("\n") == 1 and "UnsupportedRegime" in err
        assert f"{name} = inf leaves the float range" in err


@pytest.mark.parametrize("case, name, regimes", PAST_RANGE)
def test_simulate_without_boltzmann_constants_completes_with_a_note(
    tmp_path, capsys, case, name, regimes
):
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=case[0], d2=case[1], k=case[2]))
    out = tmp_path / "out"
    assert _main(capsys, ["simulate", "--config", cfg, "--out", str(out)]) == (0, "")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["constants"] is None and not (out / "certificate.json").exists()
    assert summary["notes"][0] == (
        f"no certificate for p = 1 (UnsupportedRegime): {name} = inf leaves the float range"
    )
    # each p = 1/2 verdict passes on its own curve; its slope is not the summary's
    assert [v["certificate"]["regime_tag"] for v in summary["verdicts"]] == regimes
    assert all(v["passed"] and v["fitted_slope"] for v in summary["verdicts"])
    assert summary["fitted_slope"] is None


def test_constants_hellinger_certificate_needs_no_boltzmann_constant(tmp_path, capsys):
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=1, d2=1.01, k="6e-7"))
    rc, _ = _main(capsys, ["constants", "--config", cfg, "--p", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    cert = payload["certificate"]
    assert cert["regime_tag"] == "hellinger, alpha = 1"
    assert (cert["mu"], cert["gamma"]) == (0.0, 1.0)
    assert cert["eta"] == pytest.approx(0.338, abs=1e-3) and cert["K"] == pytest.approx(1.29, abs=1e-2)
    # a p != 1 report holds no constant of the Boltzmann bands
    assert all(payload[key] is None for key in ("c_tilde_alpha", "mu0", "K0", "mu1", "K1", "K2"))


def test_growth_term_that_underflows_gives_a_boltzmann_certificate(tmp_path, capsys):
    # at alpha = 1.001 the growth term of K1 underflows to 0: K1 is finite, not inf * 0
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=1.001, d2=3, k="0.5"))
    rc, _ = _main(capsys, ["constants", "--config", cfg, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert rc == 0 and 0.0 < payload["K1"] < math.inf
    assert payload["certificate"]["regime_tag"] == "equal orders, 1 < alpha < 2"
    out = tmp_path / "sim"
    assert _main(capsys, ["simulate", "--config", cfg, "--out", str(out)]) == (0, "")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["notes"] == [] and [v["p"] for v in summary["verdicts"]] == [1.0, 0.5]
    assert summary["fitted_slope"] == summary["verdicts"][0]["fitted_slope"]
    assert summary["constants"]["K1"] == payload["K1"]


@pytest.mark.parametrize("alpha, p", [(1, "0.5000000000005"), (1.5, "0.7500000000005")])
def test_constants_p_just_past_the_admissible_range_is_a_usage_error(
    tmp_path, capsys, monkeypatch, alpha, p
):
    def no_solve(*args, **kwargs):
        raise AssertionError("the profile was solved for an inadmissible --p")

    monkeypatch.setattr("rdmix.cli.solve_profile", no_solve)
    cfg = _write(tmp_path, BOOSTED_CFG.format(alpha=alpha, d2=3, k=1))
    rc, err = _main(capsys, ["constants", "--config", cfg, "--p", p])
    assert rc == 3 and "outside the admissible range" in err


def test_cmd_conjugate_tables(tmp_path):
    out = tmp_path / "conj"
    rc = main(
        [
            "conjugate",
            "--alpha",
            "1,2",
            "--xi-range=-2:2:9",
            "--m-hat",
            "0.5:1,1:2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert rc == 0
    rows = (out / "conjugate_bounds.csv").read_text().splitlines()
    assert rows[0] == "alpha,xi,numeric,bound"
    assert len(rows) == 1 + 2 * 9
    for line in rows[1:]:
        a, xi, num, bound = (float(x) for x in line.split(","))
        assert num <= bound + 1e-9
    mh = (out / "m_hat.csv").read_text().splitlines()
    assert mh[0] == "p,alpha,m_hat"
    assert float(mh[1].split(",")[2]) == pytest.approx(0.5, abs=1e-6)
    assert float(mh[2].split(",")[2]) == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("alpha, message", [
    ("1.001", "phi_conjugate_bound = inf leaves the float range"),
    ("1.0005", "c_tilde_alpha leaves the float range"),
])
def test_cmd_conjugate_past_the_float_range_is_a_numerical_failure(
    tmp_path, capsys, alpha, message
):
    rc, err = _main(capsys, ["conjugate", "--alpha", alpha, "--out", str(tmp_path / "conj")])
    assert rc == 2
    assert err.count("\n") == 1 and "UnsupportedRegime" in err and message in err


def test_cmd_sweep(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_SIM_CFG.replace("problem.beta = 2", "problem.beta = 1").replace(
            "problem.d2 = 1", "problem.d2 = 2"
        ),
    )
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config",
            cfg,
            "--param",
            "problem.A_plus",
            "--values",
            "1.05,1.2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert rc == 0
    agg = json.loads((out / "sweep.json").read_text())
    assert len(agg["rows"]) == 2
    assert agg["rows"][0]["theta"] < agg["rows"][1]["theta"]  # monotone in the gap
    assert agg["first_flagged_value"] is None
    # empty range
    rc2 = main(
        ["sweep", "--config", cfg, "--values", "", "--out", str(out / "e"), "--quiet"]
    )
    assert rc2 == 0
    agg2 = json.loads((out / "e" / "sweep.json").read_text())
    assert agg2["rows"] == []
    # a reaction order or a non-problem key is not sweepable, with or without values
    for param in ("problem.alpha", "grid.n"):
        for values in ("1.5", ""):
            argv = ["sweep", "--config", cfg, "--param", param, "--values", values, "--quiet"]
            assert main(argv + ["--out", str(out / "bad")]) == 3
    # a swept value goes through the config parser's checks
    for param, values in (("problem.d1", "-1"), ("problem.d1", "abc"), ("problem.A_plus", "1.1,")):
        argv = ["sweep", "--config", cfg, "--param", param, f"--values={values}", "--quiet"]
        assert main(argv + ["--out", str(out / "bad")]) == 3


def _swept_data(tmp_path, monkeypatch, text, param, value):
    """The ProblemData that ``rdmix sweep`` solves for one value of ``param``."""
    import rdmix.cli

    seen = []
    solve = rdmix.cli.solve_profile
    def recording_solve(data, grid, tol):
        seen.append(data)
        return solve(data, grid, tol)

    monkeypatch.setattr(rdmix.cli, "solve_profile", recording_solve)
    cfg = _write(tmp_path, text)
    argv = ["sweep", "--config", cfg, "--param", param, "--values", value, "--quiet"]
    assert main(argv + ["--out", str(tmp_path / "sweep")]) == 0
    (swept,) = seen
    return swept


@pytest.mark.parametrize(
    "param", ["problem.A_plus", "problem.A_minus", "problem.k", "problem.d1", "problem.d2"]
)
def test_cmd_sweep_sets_its_own_field(tmp_path, monkeypatch, param):
    swept = _swept_data(tmp_path, monkeypatch, SMALL_SIM_CFG, param, "1.7")
    base = dataclasses.asdict(runio.parse_config(SMALL_SIM_CFG).data)
    changed = {k: v for k, v in dataclasses.asdict(swept).items() if v != base[k]}
    assert changed == {param.split(".")[1]: 1.7}


@pytest.mark.parametrize(
    "param, value, expected",
    [("problem.d1", "3", (2.0, 1.0, 7.0, 3.0)), ("problem.d2", "4", (2.0, 1.0, 4.0, 5.0))],
)
def test_cmd_sweep_swapped_species_sets_the_users_diffusivity(
    tmp_path, monkeypatch, param, value, expected
):
    # beta > alpha: parsing swaps the species, so the user's d1 lives in d2
    text = (
        SMALL_SIM_CFG.replace("problem.alpha = 2", "problem.alpha = 1")
        .replace("problem.d1 = 1", "problem.d1 = 5")
        .replace("problem.d2 = 1", "problem.d2 = 7")
    )
    swept = _swept_data(tmp_path, monkeypatch, text, param, value)
    assert (swept.alpha, swept.beta, swept.d1, swept.d2) == expected


@pytest.mark.parametrize("ic_lines", ["ic.kind = bogus\n", "ic.kind = file\n"])
def test_invalid_initial_condition_is_a_config_error(tmp_path, capsys, ic_lines):
    cfg = _write(tmp_path, ORACLE_CFG + ic_lines)
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "config error" in capsys.readouterr().err


def _ic_rows(n, cell=None):
    """Rows y,u,v of an n-node initial condition; ``cell`` replaces v at the middle node."""
    rows = [[f"{k}", "2.0", "2.0"] for k in range(n)]
    if cell is not None:
        rows[n // 2][2] = cell
    return "y,u,v\n" + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize(
    "text",
    [_ic_rows(11, "abc"), _ic_rows(10), _ic_rows(12), _ic_rows(11, "nan"), _ic_rows(11, "0"),
     _ic_rows(11, "-1.5"), _ic_rows(11, "inf"), "y,u,v\n1,2\n"],
    ids=["non-numeric", "short", "long", "nan", "zero", "negative", "inf", "columns"],
)
def test_malformed_initial_condition_file_is_a_config_error(tmp_path, capsys, text):
    ic = _write(tmp_path, text, "ic.csv")
    text = SMALL_SIM_CFG.replace("grid.n = 401", "grid.n = 11")
    text = text.replace("ic.kind = gaussian_bump", f"ic.kind = file\nic.path = {ic}")
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "ic.path" in err
    # the same file with a good value runs
    _write(tmp_path, _ic_rows(11), "ic.csv")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_initial_condition_past_the_float_range_in_E_B_is_a_numerical_failure(tmp_path, capsys):
    # u = 1e308 is finite and positive, but its relative entropy is not
    ic = _write(tmp_path, _ic_rows(11).replace("\n5,2.0,", "\n5,1e308,"), "ic.csv")
    text = SMALL_SIM_CFG.replace("grid.n = 401", "grid.n = 11")
    text = text.replace("ic.kind = gaussian_bump", f"ic.kind = file\nic.path = {ic}")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    assert "integral is not finite" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("p_list, values, label", [("1,1.0000001", "1.0 and 1.0000001", "1"),
                                                    ("0.5,2,2.0000001", "2.0 and 2.0000001", "2")])
def test_entropy_families_that_share_an_output_label_are_a_config_error(
    tmp_path, capsys, p_list, values, label
):
    # every output names a family by {p:g}: p = 1.0000001 once wrote a second E_p_1
    # column, kept one of the two final E_p values and a note "no certificate for p = 1"
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL_SIM_CFG + f"entropy.p_list = {p_list}\n")
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"config error: config: entropy families {values} share the output label {label}"
    ]
    assert not (out / "diagnostics.csv").exists()
    # families whose labels differ run, one column each
    cfg = _write(tmp_path, SMALL_SIM_CFG + "entropy.p_list = 1,1.00001\n")
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header = (out / "diagnostics.csv").read_text().splitlines()[0].split(",")
    assert [name for name in header if name.startswith("E_p_")] == ["E_p_1", "E_p_1.00001"]


@pytest.mark.parametrize("command", ["profile", "simulate", "constants", "sweep"])
def test_grid_of_fewer_than_five_points_is_a_config_error(tmp_path, capsys, command):
    text = "problem.alpha = 2\nproblem.beta = 1\nproblem.A_minus = 1\nproblem.A_plus = 2\n"
    text += "time.tau_end = 1\ngrid.n = 3\n"
    argv = [command, "--config", _write(tmp_path, text), "--out", str(tmp_path / "out"), "--quiet"]
    argv += ["--param", "problem.d2", "--values", "1,2"] if command == "sweep" else []
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        "config error: config: point count must be odd and >= 5, got 3"
    ]
    # five points is the smallest grid: a result or a typed numerical failure
    _write(tmp_path, text.replace("grid.n = 3", "grid.n = 5"))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 2 and err.startswith("numerical failure: ")), err


def test_usage_errors(tmp_path, capsys):
    # argparse's own errors are usage errors: main returns 3 and raises no SystemExit
    for command in ("profile", "simulate", "constants", "sweep"):  # missing --config
        assert main([command, "--out", str(tmp_path)]) == 3, command
    assert main([]) == 3  # no command
    assert main(["bogus"]) == 3  # an unknown command
    assert main(["verify"]) == 3  # neither --diagnostics nor --certificate
    assert main(["verify", "--certificate", "c.json"]) == 3  # missing --diagnostics
    assert main(["simulate", "--config", "c", "--slack", "abc"]) == 3  # malformed, checked first
    assert main(["simulate", "--config", "c", "--bogus"]) == 3  # an unknown flag
    assert main(["sweep", "--config", "c", "--param", "problem.alpha"]) == 3  # not sweepable
    err = capsys.readouterr().err
    assert "usage: rdmix sweep" in err
    # each case above printed one line, which names the command and has no line 0
    errors = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(errors) == 11 and all(line.startswith("usage error: rdmix") for line in errors)
    assert "usage error: rdmix: argument command: invalid choice: 'bogus'" in err
    assert "line 0" not in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    bad = _write(tmp_path, "problem.alpha = 0.5\n", "bad.cfg")
    assert main(["profile", "--config", bad, "--out", str(tmp_path)]) == 3
    assert main(["profile", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 3
    # config values that are not finite or out of range, and a tau_end whose e^tau overflows
    for key, value in [
        ("time.tau_end", "inf"), ("time.tau_end", "nan"), ("time.tau_end", "710"),
        ("output.sample_interval", "nan"), ("solver.tol", "nan"), ("ic.amplitude", "nan"),
        ("ic.width", "nan"), ("ic.width", "0"), ("entropy.p_list", "1,nan"),
        ("grid.L", "nan"), ("grid.n", "4"), ("solver.tol", "0"),
    ]:
        lines = [line for line in SMALL_SIM_CFG.splitlines() if not line.startswith(key + " ")]
        cfg = _write(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n", "value.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3, key
    assert "line 0" not in capsys.readouterr().err  # a config error with no line names none
    # malformed conjugate and --slack flags, checked before anything is computed
    for flag in ("--alpha=1,x", "--xi-range=1:2", "--xi-range=-5:5:2.7", "--xi-range=-5:5:0",
                 "--m-hat=0.5", "--m-hat=0.5:1,2", "--alpha=nan", "--alpha=inf", "--alpha=0.5",
                 "--xi-range=nan:1:3", "--xi-range=-inf:1:3", "--m-hat=nan:2", "--m-hat=5:2",
                 "--m-hat=1:inf"):
        assert main(["conjugate", flag, "--out", str(tmp_path / "conj"), "--quiet"]) == 3, flag
        flag_name = flag.split("=")[0]
        assert capsys.readouterr().err.startswith(f"usage error: {flag_name}: "), flag
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    assert main(["simulate", "--config", cfg, "--slack=nan", "--out", str(tmp_path)]) == 3
    # malformed verify inputs: a usage error, not a failed verification
    good_cert = '{"eta": 0.5, "mu": 0, "K": 0, "gamma": 1, "regime_tag": "t"}'
    good_csv = "tau,E_B\n0,1\n0.5,0.7\n"
    cases = [
        ('{"eta": 0.5, "K": 0, "gamma": 1}', good_csv),  # no mu
        ("eta = 0.5", good_csv),  # not JSON
        ('{"eta": -1, "mu": 0, "K": 0, "gamma": 1}', good_csv),  # outside the domain
        ("[0.5, 0, 0, 1]", good_csv),  # not an object
        ('"text"', good_csv),  # a JSON string
        ("7", good_csv),  # a JSON number
        ('{"eta": 0.5, "mu": NaN, "K": 0, "gamma": 1}', good_csv),  # a NaN constant
        ('{"eta": 0.5, "mu": 0, "K": Infinity, "gamma": 1}', good_csv),  # an infinite one
        (good_cert, "tau,E_B\n0,1\n0.5,abc\n"),  # non-numeric cell
        (good_cert, "tau,E_B\n0,1\n0.5\n"),  # short row
        (good_cert, "tau,E_p_1\n0,1\n0.5,0.7\n"),  # no E_B column
        (good_cert, "tau,E_B\n0,1\n0.5,-0.2\n"),  # negative entropy
        (good_cert, "tau,E_B\n0.5,1\n0,0.7\n"),  # tau out of order
        (good_cert, "tau,E_B\n0,1\nnan,0.7\n"),  # a NaN tau
        (good_cert, "tau,E_B\nnan,1\n"),  # a NaN tau in the only row
        (good_cert, "tau,E_B\n0,1\n0.5,nan\n"),  # a NaN entropy
        (good_cert, "tau,E_B\n0,inf\n0.5,1\n"),  # an infinite entropy
        (good_cert, "tau,E_B\n"),  # a header and no rows
    ]
    for i, (cert_text, csv_text) in enumerate(cases):
        cert = _write(tmp_path, cert_text, f"cert{i}.json")
        diag = _write(tmp_path, csv_text, f"diag{i}.csv")
        argv = ["verify", "--diagnostics", diag, "--certificate", cert, "--quiet"]
        assert main(argv) == 3, (cert_text, csv_text)
    cert = _write(tmp_path, good_cert, "good.json")
    diag = _write(tmp_path, good_csv, "good.csv")
    assert main(["verify", "--diagnostics", diag, "--certificate", cert, "--quiet"]) == 0
    for slack in ("nan", "inf", "-0.5"):
        argv = ["verify", "--diagnostics", diag, "--certificate", cert, f"--slack={slack}"]
        assert main(argv + ["--quiet"]) == 3, slack


def test_verify_and_constants_write_only_with_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    cert_text = '{"eta": 0.5, "mu": 0, "K": 0, "gamma": 1, "regime_tag": "t"}'
    cert = _write(tmp_path, cert_text, "c.json")
    diag = _write(tmp_path, "tau,E_B\n0,1\n0.5,0.7\n", "d.csv")
    verify = ["verify", "--diagnostics", diag, "--certificate", cert, "--quiet"]
    assert main(verify) == 0
    assert main(["constants", "--config", cfg, "--quiet"]) == 0
    assert not (tmp_path / "out").exists()
    # with --out both write; the commands that always write fall back to ./out
    assert main(verify + ["--out", "v"]) == 0
    assert main(["constants", "--config", cfg, "--quiet", "--out", "c"]) == 0
    assert (tmp_path / "v" / "verdict.json").is_file()
    assert (tmp_path / "c" / "constants.json").is_file()
    assert main(["conjugate", "--alpha", "2", "--xi-range=0:1:2", "--quiet"]) == 0
    assert (tmp_path / "out" / "conjugate_bounds.csv").is_file()


def test_swapped_species_domain_error_names_the_users_key(tmp_path, capsys):
    # beta > alpha: parsing swaps the species, yet the message names the
    # diffusivity as the user wrote it
    text = SMALL_SIM_CFG.replace("problem.alpha = 2", "problem.alpha = 1").replace(
        "problem.d2 = 1", "problem.d2 = 7"
    )
    cfg = _write(tmp_path, text.replace("problem.d1 = 1", "problem.d1 = -1"), "neg.cfg")
    assert main(["profile", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "d1 must be positive" in err and "d2" not in err
    cfg = _write(tmp_path, text)
    argv = ["sweep", "--config", cfg, "--param", "problem.d1", "--values=-1", "--quiet"]
    assert main(argv + ["--out", str(tmp_path / "sweep")]) == 3
    err = capsys.readouterr().err
    assert "d1 must be positive" in err and "d2" not in err


# alpha = beta = 1.5 on a coarse grid: quick, and with a p = 1/2 certificate
SMALL_POWER_CFG = """
problem.alpha = 1.5
problem.beta = 1.5
problem.d1 = 1
problem.d2 = 2
problem.A_minus = 1
problem.A_plus = 2
grid.L = 16
grid.n = 201
time.tau_end = 1
"""


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports this rdmix."""
    src = str(Path(rdmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_out_of_process_outputs_equal_repeated_in_process_calls(tmp_path):
    # the parser and m_hat are built once per process: a fresh process and the
    # second in-process call, which finds both built, write the same bytes
    cfg = _write(tmp_path, SMALL_POWER_CFG)
    commands = {"profile": ["profile"], "constants": ["constants", "--p", "0.5"]}
    for name, argv in commands.items():
        done = _run_python("-m", "rdmix.cli", *argv, "--config", cfg,
                           "--out", str(tmp_path / "fresh" / name), "--quiet")
        assert done.returncode == 0, done.stderr
    for call in ("first", "second"):
        for name, argv in commands.items():
            out = tmp_path / call / name
            assert main(argv + ["--config", cfg, "--out", str(out), "--quiet"]) == 0
    for call in ("first", "second"):
        for name in ("profile/profile.csv", "constants/constants.json"):
            assert (tmp_path / call / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        reports = [json.loads((tmp_path / d / "profile" / "profile_report.json").read_text())
                   for d in (call, "fresh")]
        for report in reports:
            del report["profile_csv"]  # the one path-bearing field
        assert reports[0] == reports[1]


def test_each_call_parses_with_its_own_defaults(tmp_path, monkeypatch):
    seen = []
    for command in ("simulate", "verify", "constants"):
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
    cfg = _write(tmp_path, SMALL_SIM_CFG)
    verify = ["verify", "--diagnostics", "d.csv", "--certificate", "c.json"]
    assert main(verify + ["--slack", "0.5", "--quiet"]) == 0
    assert main(["simulate", "--config", cfg]) == 0
    assert main(verify) == 0
    assert main(["constants", "--config", cfg, "--p", "0.5"]) == 0
    assert main(["constants", "--config", cfg, "--out", "o"]) == 0
    assert [(s["command"], s.get("slack"), s.get("p"), s["quiet"], s["out"]) for s in seen] == [
        ("verify", 0.5, None, True, None),
        ("simulate", 0.05, None, False, None),
        ("verify", 0.05, None, False, None),
        ("constants", None, 0.5, False, None),
        ("constants", None, 1.0, False, "o"),
    ]
    assert cli.build_parser() is cli.build_parser()


def test_quiet_sets_the_log_level_of_each_call(tmp_path):
    # beta > alpha logs an INFO note on parsing; the first call of a process
    # installs the handler, and each call then logs at its own level
    cfg = _write(tmp_path, SMALL_SIM_CFG.replace("problem.alpha = 2", "problem.alpha = 1"))
    code = (
        "import sys\nfrom rdmix.cli import main\n"
        "for quiet in sys.argv[2:]:\n"
        "    argv = ['sweep', '--config', sys.argv[1], '--out', sys.argv[1] + '.out']\n"
        "    assert main(argv + (['--quiet'] if quiet == 'quiet' else [])) == 0\n"
    )
    for order in (("verbose", "quiet"), ("quiet", "verbose")):
        done = _run_python("-c", code, cfg, *order)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("normalizing orientation") == 1, (order, done.stderr)


@pytest.mark.parametrize("alpha, beta, a_plus, code, message", [
    (2, 2, "1e200", 3, "A_plus^alpha leaves the float range"),
    (3, 1, "1e120", 3, "A_plus^alpha leaves the float range"),
    # every equilibrium is finite, but the residual at the first iterate is not
    (2, 1, "1e154", 2, "DomainError: profile Newton step 1"),
])
def test_equilibria_past_the_float_range_are_typed_errors(
    tmp_path, capsys, alpha, beta, a_plus, code, message
):
    text = (ORACLE_CFG.replace("problem.alpha = 2", f"problem.alpha = {alpha}")
            .replace("problem.beta = 2", f"problem.beta = {beta}")
            .replace("problem.A_plus = 2", f"problem.A_plus = {a_plus}")
            .replace("grid.n = 2001", "grid.n = 201"))
    cfg = _write(tmp_path, text)
    rc, err = _main(capsys, ["profile", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == code
    assert message in err and len(err.splitlines()) == 1


MEMO_CFG = """
problem.alpha = 2
problem.beta = 1
problem.d1 = 1
problem.d2 = 2
problem.A_minus = 1
problem.A_plus = 2
grid.L = 16
grid.n = 401
time.tau_end = 0.02
time.dtau = 1e-2
output.sample_interval = 0.01
"""


def test_one_process_solves_each_profile_once(tmp_path, fresh_profile_memo):
    # profile, a sweep over A+ and 1.1 A+, constants and simulate on one config:
    # two distinct profiles, so the solver itself runs twice
    cfg = _write(tmp_path, MEMO_CFG)
    for argv in (
        ["profile"],
        ["sweep", "--param", "problem.A_plus", "--values", "2,2.2"],
        ["constants"],
        ["simulate"],
    ):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / argv[0]), "--quiet"]) == 0
    info = fresh_profile_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
