"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive simulations are shared through session fixtures; every
tolerance is pinned here and matches the stated criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import erf

from rdmix import (
    F_p,
    Grid,
    InitialConditionSpec,
    PhiFamily,
    ProblemData,
    RateCertificate,
    SimConfig,
    State,
    build_initial_state,
    closed_form_profile,
    compute_constants,
    conserved_moment,
    gronwall_envelope,
    hellinger_sq,
    m_hat,
    phi_conjugate_bound,
    phi_conjugate_numeric,
    relative_entropy,
    run,
    select_certificate,
    solve_profile,
    verify_decay,
)
from rdmix.certificates import fit_log_slope
from rdmix.simulate import step, _StepWorkspace


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{name}]: {status} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _certified_config(data: ProblemData, tau_end: float = 6.0) -> SimConfig:
    return SimConfig(
        data=data,
        tau_end=tau_end,
        grid_n=2001,
        grid_half_width=16.0,
        dtau_initial=1e-3,
        dtau_max=1e-3,
        sample_interval=0.02,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.2),
    )


@pytest.fixture(scope="session")
def certified_runs():
    """tau_end = 6 runs for criteria 3, 5, 6 and 12, keyed by label."""
    runs = {}
    for label, data in (
        ("a1", ProblemData(1, 1, 1, 3, 1, 1, 2)),
        ("a15", ProblemData(1.5, 1.5, 1, 3, 1, 1, 2)),
        ("a2", ProblemData(2, 2, 1, 3, 1, 1, 2)),
        ("a4", ProblemData(4, 4, 1, 3, 1, 1, 2)),
        ("equal_diff", ProblemData(2, 2, 1, 1, 1, 1, 2)),
        ("unequal", ProblemData(2, 1, 1, 2, 1, 1, 2)),
    ):
        t0 = time.perf_counter()
        result = run(_certified_config(data))
        runs[label] = (data, result, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="session")
def dissipation_levels():
    """Two-resolution runs of the three criterion-4 configurations."""
    configs = {
        "a1b1": (ProblemData(1, 1, 1, 3, 1, 1, 2), 0.2),
        "a2b2": (ProblemData(2, 2, 1, 3, 1, 1, 2), 0.2),
        "a2b1": (ProblemData(2, 1, 1, 2, 1, 1, 1.2), 0.2),
    }
    out = {}
    for label, (data, amp) in configs.items():
        levels = []
        for n, dt, ds in ((2001, 1e-3, 0.02), (4001, 5e-4, 0.01)):
            cfg = SimConfig(
                data=data,
                tau_end=1.0,
                grid_n=n,
                grid_half_width=16.0,
                dtau_initial=dt,
                dtau_max=dt,
                sample_interval=ds,
                ic=InitialConditionSpec("gaussian_bump", amplitude=amp),
            )
            result = run(cfg)
            levels.append(max(r.dissipation_residual for r in result.records[1:-1]))
        out[label] = levels
    return out


def test_criterion_01_profile_oracle():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    grid = Grid(8.0, 2001)
    t0 = time.perf_counter()
    sol = solve_profile(data, grid, tol=1e-8)
    elapsed = time.perf_counter() - t0
    cf = closed_form_profile(data, grid)
    err = float(np.max(np.abs(sol.U - cf.U)))
    _report(
        1,
        "profile oracle",
        err <= 1e-6 and elapsed < 5.0,
        f"sup-error {err:.3e} (<= 1e-6), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_linear_diffusion_decay():
    # at alpha = beta = 1 and d1 = d2, with u0 = v0, the species stay equal, so the
    # reaction sits at equilibrium and ``run`` integrates the heat equation
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    cfg = SimConfig(
        data=data,
        tau_end=5.0,
        grid_n=2001,
        grid_half_width=16.0,
        dtau_initial=2e-3,
        dtau_max=2e-3,
        sample_interval=0.05,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
        p_list=(1.0, 2.0),
    )
    t0 = time.perf_counter()
    records = run(cfg).records
    details = []
    ok = True
    for kind, p in (("boltzmann", 1.0), ("power", 2.0)):
        e0 = records[0].E_p[p]
        worst = max(r.E_p[p] / (math.exp(-0.5 * r.tau) * e0) for r in records)
        taus = np.array([r.tau for r in records])
        vals = np.array([r.E_p[p] for r in records])
        slope = fit_log_slope(taus, vals, (1.0, 5.0))
        ok = ok and worst <= 1.03 and slope <= -0.47
        details.append(f"{kind}: worst {worst:.4f} (<=1.03), slope {slope:.3f} (<=-0.47)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "linear diffusion decay", ok, "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_criterion_03_equal_diffusivity_pure_decay(certified_runs):
    data, result, elapsed = certified_runs["equal_diff"]
    e0 = result.records[0].E_B
    worst = max(r.E_B / (math.exp(-0.5 * r.tau) * e0) for r in result.records)
    _report(
        3,
        "pure exponential decay",
        worst <= 1.05 and elapsed < 120.0,
        f"worst ratio {worst:.4f} (<= 1.05), runtime {elapsed:.0f}s (< 2min)",
    )


def test_criterion_04_dissipation_identity(dissipation_levels):
    details, ok = [], True
    for label, levels in dissipation_levels.items():
        order = math.log2(levels[0] / levels[1])
        ok = ok and levels[0] <= 0.02 and order >= 1.0
        details.append(f"{label}: resid {levels[0]:.4f} (<=0.02), order {order:.2f} (>=1)")
    _report(4, "dissipation identity", ok, "; ".join(details))


def test_criterion_05_equal_order_certificates(certified_runs):
    details, ok = [], True
    for label in ("a1", "a15", "a2", "a4"):
        data, result, _ = certified_runs[label]
        report = compute_constants(result.profile, data, 1.0)
        cert = select_certificate(report, data, 1.0)
        verdict = verify_decay([(r.tau, r.E_B) for r in result.records], cert, slack=0.05)
        expected_gamma = 1.0 if data.alpha < 2 else 1.0 / (data.alpha - 1.0)
        ok = ok and verdict.passed and cert.eta == 0.5 and cert.gamma == pytest.approx(expected_gamma)
        details.append(f"alpha={data.alpha:g}: worst {verdict.worst_ratio:.3f}")
        if label == "a4":
            ok = ok and verdict.fitted_slope <= -1.0 / 3.0 + 0.05
            details.append(f"alpha=4 slope {verdict.fitted_slope:.3f} (<= -1/3+0.05)")
    _report(5, "equal-order certificates", ok, "; ".join(details))


def test_criterion_06_unequal_order_certificate(certified_runs):
    data, result, _ = certified_runs["unequal"]
    report = compute_constants(result.profile, data, 1.0)
    cert = select_certificate(report, data, 1.0)
    verdict = verify_decay([(r.tau, r.E_B) for r in result.records], cert, slack=0.05)
    ok = report.theta <= 0.2 and cert.eta == pytest.approx(0.5 - report.theta) and verdict.passed
    _report(
        6,
        "unequal-order certificate",
        ok,
        f"theta {report.theta:.4f} (<= 0.2), eta {cert.eta:.4f}, worst {verdict.worst_ratio:.3f}",
    )


def test_criterion_07_conjugate_bounds():
    xis = np.linspace(-5.0, 5.0, 201)
    worst_margin = -np.inf
    worst_quad = -np.inf
    for a in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0):
        fam = PhiFamily("boltzmann_alpha", a)
        for xi, num in zip(xis, phi_conjugate_numeric(fam, xis).tolist()):
            worst_margin = max(worst_margin, num - phi_conjugate_bound(a, float(xi)))
            if abs(xi) <= a:
                worst_quad = max(worst_quad, num - xi**2 / (2.0 * a))
    ok = worst_margin <= 1e-9 and worst_quad <= 1e-9
    _report(
        7,
        "analytic conjugate bounds",
        ok,
        f"worst bound excess {worst_margin:.2e}, worst quadratic excess {worst_quad:.2e}",
    )


def test_criterion_08_quadratic_bound_constants():
    ok = abs(m_hat(0.5, 1.0) - 0.5) <= 1e-4
    details = [f"m_hat(1/2,1)={m_hat(0.5, 1.0):.6f}"]
    for a in (2.0, 2.5, 3.0):
        val = m_hat(a - 1.0, a)
        ok = ok and abs(val - 0.25) <= 1e-4
        details.append(f"m_hat({a-1:g},{a:g})={val:.6f}")
    pairs = [(0.5, 1.0), (0.5, 1.5), (0.5, 2.0), (0.5, 4.0)] + [(a - 1.0, a) for a in (2.0, 2.5, 3.0)]
    for a in (1.0, 1.5, 2.0, 4.0):
        val = m_hat(0.5, a)
        ok = ok and 0.25 - 1e-9 <= val <= a / 2.0 + 1e-9
    worst = -np.inf
    for p, a in pairs:
        mh = m_hat(p, a)
        fam = PhiFamily("general_p_alpha", a, p)
        zetas = np.linspace(-10.0, 10.0, 41)
        for zeta, num in zip(zetas, phi_conjugate_numeric(fam, zetas).tolist()):
            worst = max(worst, num - mh * (p * zeta / a) ** 2)
    ok = ok and worst <= 1e-9
    details.append(f"worst quadratic-conjugate excess {worst:.2e}")
    _report(8, "quadratic bound constants", ok, "; ".join(details))


def test_criterion_09_gronwall_oracle(rng):
    taus = np.linspace(0.0, 10.0, 201)
    cases = [
        (0.4, 1.0, 0.5, 1.0, 1.0),
        (1.2, 0.3, 0.2, 2.0, 0.5),
        (0.7, 0.7, 0.0, 1.5, 2.0),
    ]
    while len(cases) < 20:
        cases.append(
            (
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.1, 3.0)),
            )
        )
    worst = -np.inf
    for eta, gam, mu, K, E0 in cases:
        cert = RateCertificate(eta, mu, K, gam, "oracle")

        def rhs(t, y):
            return [-(eta - mu * math.exp(-t)) * y[0] + K * math.exp(-gam * t)]

        sol = solve_ivp(rhs, (0.0, 10.0), [E0], t_eval=taus, rtol=1e-11, atol=1e-14)
        assert sol.success
        scale = E0 + K
        for t, e in zip(taus, sol.y[0]):
            worst = max(worst, (e - gronwall_envelope(cert, E0, float(t))) / scale)
    _report(9, "decay envelope oracle", worst <= 1e-8, f"worst scaled excess {worst:.2e}")


def test_criterion_10_entropy_inequality_suite(rng, equal_orders_profile):
    violations = 0
    zs = rng.uniform(1e-3, 10.0, size=10_000)
    ps_a = rng.uniform(1e-3, 0.999, size=10_000)
    ps_b = rng.uniform(1e-3, 3.0, size=10_000)
    for z, pa, pb in zip(zs, ps_a, ps_b):
        # Boltzmann domination for p in (0,1) and the half-family lower bound
        if pa * F_p(z, pa) > F_p(z, 1.0) * (1 + 1e-12) + 1e-15:
            violations += 1
        if F_p(z, pb) < (0.5 / max(pb, 1.0 - pb)) * F_p(z, 0.5) * (1 - 1e-12) - 1e-15:
            violations += 1
    prof = equal_orders_profile
    y = prof.grid.nodes
    for _ in range(50):
        au, av = rng.uniform(-0.5, 1.0, size=2)
        state = State(
            prof.grid,
            prof.U * (1 + au * np.exp(-(y**2))),
            prof.V * (1 + av * np.exp(-((y - 0.5) ** 2))),
            0.0,
        )
        he = hellinger_sq(state, prof)
        for p in (0.25, 0.5, 0.75):
            if he > max(p, 1 - p) * relative_entropy(state, prof, p) * (1 + 1e-12) + 1e-15:
                violations += 1
    _report(10, "entropy inequality suite", violations == 0, f"{violations} violations")


def test_criterion_11_conserved_moment():
    data = ProblemData(2, 1, 2, 2, 1, 1, 1.2)  # d1 = d2
    cfg = SimConfig(
        data=data,
        tau_end=2.0,
        grid_n=2001,
        grid_half_width=16.0,
        dtau_initial=5e-4,
        dtau_max=5e-4,
        sample_interval=0.25,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
    )
    grid = cfg.make_grid()
    prof = solve_profile(data, grid)
    state = build_initial_state(cfg, prof)
    m0 = conserved_moment(state, prof)
    ws = _StepWorkspace(grid, data)
    worst = 0.0
    nsteps = int(round(cfg.tau_end / cfg.dtau_initial))
    for s in range(1, nsteps + 1):
        state = step(state, data, cfg.dtau_initial, ws)
        if s % 500 == 0:
            err = abs(conserved_moment(state, prof) - math.exp(-0.5 * state.tau) * m0)
            worst = max(worst, err)
    budget = 1e-4 * abs(m0) + 1e-10
    _report(
        11,
        "conserved moment decay",
        worst <= budget,
        f"worst |m - e^(-tau/2) m0| = {worst:.2e} (budget {budget:.2e})",
    )


def _mixed_term_bound_check(data, result) -> float:
    """Worst excess of the regime inequality along a run's samples."""
    report = compute_constants(result.profile, data, 1.0)
    worst = -np.inf
    for rec in result.records:
        reaction = math.exp(rec.tau) * rec.D_react
        decay = math.exp(-rec.tau)
        if data.alpha == data.beta:
            lhs = rec.I_Lambda - reaction
            if data.alpha == 1.0:
                rhs = report.mu0 * decay * rec.E_B + report.K0 * decay
            elif data.alpha < 2.0:
                rhs = report.mu1 * decay * rec.E_B + report.K1 * decay
            else:
                rhs = report.K2 * math.exp(-rec.tau / (data.alpha - 1.0))
            worst = max(worst, lhs - rhs)
        else:
            worst = max(worst, rec.I_Lambda_2 - report.theta * rec.E_B)
            lhs = rec.I_Lambda_1 - reaction
            if data.alpha >= 2.0:
                rhs = report.K2 * math.exp(-rec.tau / (data.alpha - 1.0))
            else:
                rhs = report.mu1 * decay * rec.E_B + report.K1 * decay
            worst = max(worst, lhs - rhs)
    return worst


def test_criterion_12_pointwise_mixed_term_bounds(certified_runs):
    details, ok = [], True
    for label in ("a1", "a15", "a2", "a4", "unequal"):
        data, result, _ = certified_runs[label]
        worst = _mixed_term_bound_check(data, result)
        ok = ok and worst <= 1e-8
        details.append(f"{label}: excess {worst:.2e}")
    _report(12, "mixed-term inequality checks", ok, "; ".join(details))
