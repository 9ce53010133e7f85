import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from rdmix import (
    ConstantsReport,
    Grid,
    ProblemData,
    RateCertificate,
    closed_form_profile,
    compute_constants,
    gronwall_envelope,
    select_certificate,
    solve_profile,
    verify_decay,
)
from rdmix.conjugate import c_tilde
from rdmix.errors import (
    DomainError, EmptyCurve, ThetaTooLarge, UnsupportedEntropy, UnsupportedRegime
)
from rdmix.fdops import integrate


# ------------------------------------------------------------- constants


def test_constants_vanish_for_flat_profile():
    data = ProblemData(2, 2, 1, 3, 1, 1.4, 1.4)
    sol = solve_profile(data, Grid(16.0, 801))
    rep = compute_constants(sol, data, 1.0)
    assert rep.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert rep.theta == pytest.approx(0.0, abs=1e-12)
    assert rep.K2 == pytest.approx(0.0, abs=1e-12)


def test_constants_equal_orders_example(equal_orders_profile):
    data = equal_orders_profile.data
    rep = compute_constants(equal_orders_profile, data, 1.0)
    assert rep.c_tilde_alpha == pytest.approx(0.25, abs=1e-15)  # (2/4) * (1/2)
    assert rep.K2 > 0 and rep.lambda_star > 0
    assert rep.theta == 0.0


def test_constants_refinement_oracle():
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    vals = []
    for n in (2001, 4001):
        sol = solve_profile(data, Grid(16.0, n))
        vals.append(compute_constants(sol, data, 1.0).K2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


def test_constants_monotone_under_multiplier_growth(equal_orders_profile):
    data = equal_orders_profile.data
    rep1 = compute_constants(equal_orders_profile, data, 1.0)
    doubled = replace(equal_orders_profile, Lambda=2.0 * equal_orders_profile.Lambda)
    rep2 = compute_constants(doubled, data, 1.0)
    assert rep2.K2 > rep1.K2
    assert rep2.lambda_star > rep1.lambda_star
    low = ProblemData(1.5, 1.5, 1, 3, 1, 1, 2)
    sol = solve_profile(low, Grid(16.0, 1001))
    rep_lo = compute_constants(sol, low, 1.0)
    rep_hi = compute_constants(replace(sol, Lambda=3.0 * sol.Lambda), low, 1.0)
    assert rep_hi.K1 > rep_lo.K1 and rep_hi.mu1 > rep_lo.mu1


def test_constants_alpha_one_uses_exponential_boost():
    data = ProblemData(1, 1, 1, 3, 1, 1, 2)
    sol = solve_profile(data, Grid(16.0, 1001))
    rep = compute_constants(sol, data, 1.0)
    boost = math.exp(rep.lambda_star / data.k)
    assert rep.mu0 == pytest.approx(rep.lambda_star**2 * boost / (2 * data.k), rel=1e-12)
    assert rep.K0 > 0
    assert rep.K1 is None and rep.K2 is None


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9, 2.0, 3.0, 4.0])
def test_growth_term_matches_the_coefficient_form(alpha):
    # K1's and K2's growth term is one power per node, (alpha-1)/alpha int (2|alpha
    # Lambda/U|^alpha / (alpha^2 k))^(1/(alpha-1)); where the old product c_tilde /
    # k^(1/(alpha-1)) int |alpha Lambda/U|^(alpha/(alpha-1)) is finite, they agree
    data = ProblemData(alpha, alpha, 1, 3, 1, 1, 2)
    sol = solve_profile(data, Grid(16.0, 401))
    grid, U, Lam = sol.grid, sol.U, sol.Lambda
    power = integrate(grid, np.abs(alpha * Lam / U) ** (alpha / (alpha - 1.0)))
    for k in (0.05, 0.2, 0.5, 1.0, 2.0, 10.0):
        rep = compute_constants(sol, replace(data, k=k), 1.0)
        growth = c_tilde(alpha) / k ** (1.0 / (alpha - 1.0)) * power
        if alpha < 2.0:
            K = integrate(grid, alpha**2 * Lam**2 / (k * U ** (2.0 - alpha))) + growth
            assert rep.K1 == pytest.approx(K, rel=1e-15, abs=0.0) and rep.K2 is None
        else:
            assert rep.K2 == pytest.approx(growth, rel=1e-15, abs=0.0) and rep.K1 is None
        assert rep.c_tilde_alpha == c_tilde(alpha) and rep.mu0 is None and rep.kappa is None


def test_constants_hellinger_matches_power_family():
    # alpha = beta = 1, p = 1/2: the dedicated constants equal the general ones
    data = ProblemData(1, 1, 1, 3, 1, 1, 2)
    sol = solve_profile(data, Grid(16.0, 1001))
    rep = compute_constants(sol, data, 0.5)
    assert rep.mu_tilde_star == pytest.approx(rep.mu_tilde, rel=1e-12)
    assert rep.K_star == pytest.approx(rep.K_tilde, rel=1e-12)
    assert rep.kappa == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_constants_power_family_alpha_ge_2():
    data = ProblemData(3, 3, 1, 2, 1, 1, 1.5)
    sol = solve_profile(data, Grid(12.0, 1001))
    rep = compute_constants(sol, data, 2.0)  # p = alpha - 1
    assert rep.mu_tilde == 0.0
    assert rep.K_tilde > 0
    with pytest.raises(DomainError):
        compute_constants(sol, data, 0.7)  # outside [alpha-1, alpha-1]


def test_constants_reject_p_for_unequal_orders(unequal_orders_profile):
    with pytest.raises(DomainError):
        compute_constants(unequal_orders_profile, unequal_orders_profile.data, 0.5)


# ---------------------------------------------------------- certificates


@pytest.mark.parametrize("a_pair", [(1.0, 2.0), (0.5, 3.0), (1.2, 1.2)])
def test_select_equal_diffusivities_pure_decay(a_pair):
    data = ProblemData(2, 2, 1, 1, 1, *a_pair)
    sol = solve_profile(data, Grid(8.0 * max(1.0, *a_pair), 801))
    cert = select_certificate(compute_constants(sol, data, 1.0), data, 1.0)
    assert (cert.eta, cert.mu, cert.K) == (0.5, 0.0, 0.0)


def test_select_gamma_for_large_alpha():
    data = ProblemData(4, 4, 1, 3, 1, 1, 2)
    sol = solve_profile(data, Grid(16.0, 1001))
    cert = select_certificate(compute_constants(sol, data, 1.0), data, 1.0)
    assert cert.gamma == pytest.approx(1.0 / 3.0)
    assert cert.eta == 0.5 and cert.mu == 0.0


def test_select_unequal_orders_steals_bonus(unequal_orders_profile):
    data = unequal_orders_profile.data
    rep = compute_constants(unequal_orders_profile, data, 1.0)
    cert = select_certificate(rep, data, 1.0)
    assert cert.eta == pytest.approx(0.5 - rep.theta)
    # synthetic theta = 0.1 check
    rep_synth = replace(rep, theta=0.1)
    assert select_certificate(rep_synth, data, 1.0).eta == pytest.approx(0.4)


def test_select_theta_too_large(unequal_orders_profile):
    data = unequal_orders_profile.data
    rep = compute_constants(unequal_orders_profile, data, 1.0)
    with pytest.raises(ThetaTooLarge):
        select_certificate(replace(rep, theta=0.6), data, 1.0)


def test_select_unsupported_regime(unequal_orders_profile):
    data = unequal_orders_profile.data
    rep = compute_constants(unequal_orders_profile, data, 1.0)
    with pytest.raises(UnsupportedRegime):
        select_certificate(rep, data, 2.0)  # p != 1 with unequal orders


# distinct values, so each certificate shows which constants it took
_SYNTHETIC = ConstantsReport(
    mu0=0.11, K0=0.12, mu1=0.21, K1=0.22, K2=0.32, theta=0.1,
    mu_tilde=0.41, K_tilde=0.42, mu_tilde_star=0.125, K_star=0.52,
)


@pytest.mark.parametrize(
    "orders, d2, p, expected",
    [
        ((2, 2), 1, 1.0, (0.5, 0.0, 0.0, 1.0, "equal-orders, equal diffusivities")),
        ((4, 4), 1, 1.0, (0.5, 0.0, 0.0, 1.0, "equal-orders, equal diffusivities")),
        ((1, 1), 3, 1.0, (0.5, 0.11, 0.12, 1.0, "equal orders, alpha = 1")),
        ((1.5, 1.5), 3, 1.0, (0.5, 0.21, 0.22, 1.0, "equal orders, 1 < alpha < 2")),
        ((2, 2), 3, 1.0, (0.5, 0.0, 0.32, 1.0, "equal orders, alpha >= 2")),
        ((4, 4), 3, 1.0, (0.5, 0.0, 0.32, 1.0 / 3.0, "equal orders, alpha >= 2")),
        ((1.5, 1), 3, 1.0, (0.4, 0.21, 0.22, 1.0, "unequal orders, 1 < alpha < 2")),
        ((2, 1), 3, 1.0, (0.4, 0.0, 0.32, 1.0, "unequal orders, alpha >= 2")),
        ((4, 1), 1, 1.0, (0.4, 0.0, 0.32, 1.0 / 3.0, "unequal orders, alpha >= 2")),
        ((1, 1), 3, 0.5, (0.375, 0.0, 0.52, 1.0, "hellinger, alpha = 1")),
        ((1, 1), 1, 0.5, (0.375, 0.0, 0.52, 1.0, "hellinger, alpha = 1")),
        ((1.5, 1.5), 3, 0.75, (0.5, 0.41, 0.42, 1.0, "power entropy p=0.75")),
        ((4, 4), 1, 3.0, (0.5, 0.41, 0.42, 1.0, "power entropy p=3")),
    ],
)
def test_select_certificate_pins_every_regime(orders, d2, p, expected):
    data = ProblemData(*orders, 1, d2, 1, 1, 2)
    cert = select_certificate(_SYNTHETIC, data, p)
    assert (cert.eta, cert.mu, cert.K, cert.gamma, cert.regime_tag) == expected


@pytest.mark.parametrize(
    "orders, p, change, error, message",
    [
        ((2, 1), 1.0, {"theta": 0.5}, ThetaTooLarge, "theta = 0.5 >= 1/2"),
        ((1, 1), 0.5, {"K_star": None}, UnsupportedRegime, "constants were not computed"),
        ((1, 1), 0.5, {"mu_tilde_star": 0.5}, UnsupportedRegime, "swallows the bonus rate"),
        ((1.5, 1.5), 0.75, {"mu_tilde": None}, UnsupportedRegime, "no power-entropy certificate"),
        ((2, 1), 0.5, {}, UnsupportedEntropy, "require equal reaction orders"),
    ],
)
def test_select_certificate_errors(orders, p, change, error, message):
    data = ProblemData(*orders, 1, 3, 1, 1, 2)
    with pytest.raises(error, match=message) as info:
        select_certificate(replace(_SYNTHETIC, **change), data, p)
    assert type(info.value) is error
    assert isinstance(info.value, UnsupportedRegime)  # every "no certificate" is one


def test_certificate_validation():
    with pytest.raises(DomainError):
        RateCertificate(0.0, 0.0, 0.0, 1.0, "bad eta")
    with pytest.raises(DomainError):
        RateCertificate(0.5, -1.0, 0.0, 1.0, "bad mu")
    # a NaN or infinite constant gives NaN or infinite envelopes, which hide a failure
    for bad in (math.nan, math.inf):
        for i in range(4):
            constants = [0.5, 0.0, 0.0, 1.0]
            constants[i] = bad
            with pytest.raises(DomainError):
                RateCertificate(*constants, "not finite")


# -------------------------------------------------------------- envelope


def test_envelope_pure_exponential():
    cert = RateCertificate(0.5, 0.0, 0.0, 1.0, "test")
    for tau in (0.0, 1.0, 3.7):
        assert gronwall_envelope(cert, 2.0, tau) == pytest.approx(2.0 * math.exp(-0.5 * tau))


def test_envelope_equal_rates():
    cert = RateCertificate(0.5, 0.0, 1.0, 0.5, "test")
    assert gronwall_envelope(cert, 1.0, 2.0) == pytest.approx(math.exp(-1.0) * 3.0, rel=1e-14)


def test_envelope_integral_form_below_simplified():
    cert = RateCertificate(0.5, 0.3, 2.0, 1.0, "test")
    E0, tau = 1.0, 3.0
    # independent quadrature of R(tau)
    R, _ = quad(lambda s: math.exp((cert.eta - cert.gamma) * s), 0.0, tau)
    integral_form = math.exp(-cert.eta * tau + cert.mu) * (E0 + cert.K * R)
    simplified = math.exp(-min(cert.eta, cert.gamma) * tau + cert.mu) * (
        E0 + 2.0 * cert.K / abs(cert.eta - cert.gamma)
    )
    got = gronwall_envelope(cert, E0, tau)
    assert got == pytest.approx(integral_form, rel=1e-12)
    assert got <= simplified + 1e-12


@pytest.mark.parametrize("gap", [1e-13, -1e-13])
@pytest.mark.parametrize("tau", [0.1, 5.0])
def test_envelope_at_nearly_equal_rates(gap, tau):
    # (1 - e^(-g tau)) / g = tau (1 - g tau / 2) up to (g tau)^2 / 6 < 1e-24 relative
    cert = RateCertificate(0.5 + gap, 0.2, 1.5, 0.5, "test")
    g = abs(cert.eta - cert.gamma)
    want = math.exp(0.2 - cert.eta * tau) * 2.0 + math.exp(
        0.2 - min(cert.eta, cert.gamma) * tau
    ) * 1.5 * tau * (1.0 - 0.5 * g * tau)
    assert gronwall_envelope(cert, 2.0, tau) == pytest.approx(want, rel=1e-12)


def test_envelope_past_the_range_of_its_exponentials():
    # e^((eta - gamma) tau) is e^750 and e^800 here: a product form would overflow
    cert = RateCertificate(0.5, 0.0, 1.0, 0.25, "test")
    assert gronwall_envelope(cert, 1.0, 3000.0) == 0.0  # 4 e^(-750) is below every float
    cert = RateCertificate(0.5, 0.0, 1.0, 0.1, "test")
    got = gronwall_envelope(cert, 1.0, 2000.0)
    want = (math.exp(-0.1 * 2000.0) - math.exp(-0.5 * 2000.0)) / 0.4 + math.exp(-0.5 * 2000.0)
    assert 0.0 < got < math.inf
    assert got == pytest.approx(want, rel=1e-12)


def test_envelope_rejects_a_negative_or_nan_time_or_start():
    cert = RateCertificate(0.5, 0.3, 2.0, 1.0, "test")
    for E0, tau in ((1.0, -1.0), (-1.0, 1.0), (1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="must be nonnegative"):
            gronwall_envelope(cert, E0, tau)


def test_envelope_beyond_the_float_range():
    huge = RateCertificate(0.5, 1e23, 1.0, 1.0, "test")
    assert gronwall_envelope(huge, 1.0, 2.0) == math.inf
    assert gronwall_envelope(replace(huge, K=0.0), 0.0, 2.0) == 0.0  # never 0 inf = NaN
    # a factor past the float range whose product is within it
    assert gronwall_envelope(RateCertificate(0.5, 710.0, 0.0, 1.0, "test"), 1e-10, 0.0) == (
        pytest.approx(math.exp(710.0 + math.log(1e-10)), rel=1e-12)
    )


def _ode_curve(cert: RateCertificate, E0: float, taus: np.ndarray) -> np.ndarray:
    def rhs(t, y):
        return [-(cert.eta - cert.mu * math.exp(-t)) * y[0] + cert.K * math.exp(-cert.gamma * t)]

    sol = solve_ivp(rhs, (0.0, float(taus[-1])), [E0], t_eval=taus, rtol=1e-11, atol=1e-14)
    assert sol.success
    return sol.y[0]


def test_envelope_dominates_equality_ode(rng):
    taus = np.linspace(0.0, 10.0, 101)
    cases = [
        (0.4, 1.0, 0.5, 1.0, 1.0),   # eta < gamma
        (1.2, 0.3, 0.2, 2.0, 0.5),   # eta > gamma
        (0.7, 0.7, 0.0, 1.5, 2.0),   # eta == gamma
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
    for eta, gam, mu, K, E0 in cases:
        cert = RateCertificate(eta, mu, K, gam, "oracle")
        curve = _ode_curve(cert, E0, taus)
        scale = E0 + K
        for t, e in zip(taus, curve):
            assert e <= gronwall_envelope(cert, E0, float(t)) + 1e-8 * scale


# ---------------------------------------------------------------- verify


def test_verify_exact_envelope_passes():
    cert = RateCertificate(0.5, 0.0, 1.0, 1.0, "test")
    taus = np.linspace(0.0, 5.0, 26)
    curve = [(t, gronwall_envelope(cert, 1.0, t)) for t in taus]
    verdict = verify_decay(curve, cert, slack=0.0)
    assert verdict.passed
    assert verdict.worst_ratio <= 1.0 + 1e-12


def test_verify_violation_fails():
    cert = RateCertificate(0.5, 0.0, 1.0, 1.0, "test")
    taus = np.linspace(0.0, 5.0, 26)
    curve = [(0.0, 1.0)] + [(t, 2.0 * gronwall_envelope(cert, 1.0, t)) for t in taus[1:]]
    verdict = verify_decay(curve, cert, slack=0.5)
    assert not verdict.passed
    assert verdict.worst_ratio == pytest.approx(2.0, rel=1e-12)


def test_verify_slope_fit():
    cert = RateCertificate(0.5, 0.0, 0.0, 1.0, "test")
    taus = np.linspace(0.0, 6.0, 61)
    curve = [(t, 3.0 * math.exp(-0.5 * t)) for t in taus]
    verdict = verify_decay(curve, cert, slack=0.01)
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(-0.5, abs=1e-9)
    assert verdict.fit_window[0] == pytest.approx(3.0)


def test_verify_empty_curve():
    cert = RateCertificate(0.5, 0.0, 0.0, 1.0, "test")
    with pytest.raises(EmptyCurve):
        verify_decay([], cert)
