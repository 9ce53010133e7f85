"""Explicit decay constants, decay envelopes and curve verification.

Every certificate is a tuple (eta, mu, K, gamma) for the differential
inequality  E' <= -(eta - mu e^-tau) E + K e^(-gamma tau), whose closed-form
consequence is the envelope

    E(tau) <= e^(-eta tau + mu) (E(0) + R(tau)),   R(tau) = K int_0^tau e^((eta-gamma) s) ds.

The constants are quadratures and sup-norms of the profile multiplier; which
tuple applies depends on the reaction orders and the entropy family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conjugate, entropy
from .errors import DomainError, EmptyCurve, ThetaTooLarge, UnsupportedEntropy, UnsupportedRegime
from .fdops import integrate
from .profile import ProblemData, ProfileSolution


@dataclass(frozen=True)
class RateCertificate:
    """Constants of the decay inequality plus a tag naming the producing regime."""

    eta: float
    mu: float
    K: float
    gamma: float
    regime_tag: str

    def __post_init__(self):
        if not (self.eta > 0 and self.gamma > 0):
            raise DomainError(f"rates must be positive, got eta={self.eta}, gamma={self.gamma}")
        if self.mu < 0 or self.K < 0:
            raise DomainError(f"mu and K must be nonnegative, got mu={self.mu}, K={self.K}")


@dataclass
class ConstantsReport:
    """All decay constants computable from one profile; None where inapplicable."""

    c_tilde_alpha: float | None = None
    lambda_star: float | None = None
    mu0: float | None = None
    K0: float | None = None
    mu1: float | None = None
    K1: float | None = None
    K2: float | None = None
    theta: float | None = None
    kappa: float | None = None
    mu_tilde: float | None = None
    K_tilde: float | None = None
    mu_tilde_star: float | None = None
    K_star: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)


def require_equal_orders(data: ProblemData, p: float) -> None:
    """UnsupportedEntropy unless p = 1 or the reaction orders are equal."""
    if p != 1.0 and data.alpha != data.beta:
        raise UnsupportedEntropy("entropy families with p != 1 require equal reaction orders")


def check_entropy_family(data: ProblemData, p: float) -> None:
    """UnsupportedEntropy for p != 1 at unequal orders, DomainError for p out of alpha's range."""
    require_equal_orders(data, p)
    if p == 1.0:
        return
    a = data.alpha
    p_lo, p_hi = a - 1.0, max(a / 2.0, a - 1.0)
    if not (p > 0.0 and p_lo <= p <= p_hi + 1e-12):
        raise DomainError(
            f"p={p} outside the admissible range [{max(p_lo, 0):g}, {p_hi:g}] for alpha={a}"
        )


def compute_constants(
    profile: ProfileSolution, data: ProblemData, p: float = 1.0
) -> ConstantsReport:
    """Evaluate every decay constant applicable to (alpha, beta, p).

    Sup-norms are discrete maxima over grid nodes; integrals are the shared
    trapezoid quadrature, so the certificate inequalities hold against the
    discretely evaluated functionals without extra quadrature slack.
    """
    check_entropy_family(data, p)
    a, b, k = data.alpha, data.beta, data.k
    grid = profile.grid
    U, V, Lam = profile.U, profile.V, profile.Lambda
    rep = ConstantsReport()
    prov = rep.provenance

    rep.lambda_star = float(np.max(np.abs(Lam / U)))
    prov["lambda_star"] = "sup |Lambda / U|"
    rep.theta = float((a - b) * np.max(np.abs(Lam / V)))
    prov["theta"] = "(alpha - beta) sup |Lambda / V|"

    if a > 1.0:
        rep.c_tilde_alpha = conjugate.c_tilde(a)
        prov["c_tilde_alpha"] = "power-growth conjugate coefficient"
        power_integrand = np.abs(a * Lam / U) ** (a / (a - 1.0))
        power_integral = integrate(grid, power_integrand)

    if a == 1.0:
        boost = math.exp(rep.lambda_star / k)
        rep.mu0 = rep.lambda_star**2 * boost / (2.0 * k)
        rep.K0 = boost / k * integrate(grid, a**2 * Lam**2 / U)
        prov["mu0"] = "lambda_star^2 e^(lambda_star/k) / (2k)"
        prov["K0"] = "e^(lambda_star/k)/k int Lambda^2 / U"
    elif a < 2.0:
        rep.mu1 = float(np.max(np.abs(a**2 * Lam**2 / U ** (3.0 - a)))) / k
        rep.K1 = integrate(grid, a**2 * Lam**2 / (k * U ** (2.0 - a))) + (
            rep.c_tilde_alpha / k ** (1.0 / (a - 1.0))
        ) * power_integral
        prov["mu1"] = "sup |alpha^2 Lambda^2 / U^(3-alpha)| / k"
        prov["K1"] = "int alpha^2 Lambda^2/(k U^(2-alpha)) + c_tilde/k^(1/(alpha-1)) |alpha Lambda/U|^(alpha/(alpha-1))"
    else:
        rep.K2 = rep.c_tilde_alpha / k ** (1.0 / (a - 1.0)) * power_integral
        prov["K2"] = "c_tilde/k^(1/(alpha-1)) int |alpha Lambda/U|^(alpha/(alpha-1))"

    if p != 1.0:
        rep.kappa = math.sqrt(max(1.0 + p - a, 0.0))
        prov["kappa"] = "sqrt(1 + p - alpha)"
        forcing_integral = integrate(grid, Lam**2 / U**a)
        if a >= 2.0:
            rep.mu_tilde = 0.0
            rep.K_tilde = forcing_integral / (4.0 * k)
            prov["K_tilde"] = "int Lambda^2 / U^alpha / (4k)"
        else:
            m_hat = conjugate.m_hat(p, a)
            rep.mu_tilde = (
                rep.kappa / k * m_hat * float(np.max(np.abs(Lam**2 / U ** (a + 1.0))))
            )
            fp_star = entropy.F_p_conjugate(rep.kappa, p)
            rep.K_tilde = m_hat / k * (rep.kappa * fp_star + 1.0) * forcing_integral
            prov["mu_tilde"] = "kappa/k M_hat sup |Lambda^2 / U^(alpha+1)|"
            prov["K_tilde"] = "M_hat/k (kappa F_p*(kappa) + 1) int Lambda^2 / U^alpha"
        if a == 1.0 and p == 0.5:
            rep.mu_tilde_star = rep.lambda_star**2 / (k * math.sqrt(8.0))
            rep.K_star = (11.0 + math.sqrt(2.0)) / (14.0 * k) * integrate(grid, Lam**2 / U)
            prov["mu_tilde_star"] = "sup|Lambda/U|^2 / (k sqrt 8)"
            prov["K_star"] = "(11 + sqrt 2)/(14 k) int Lambda^2 / U"
    return rep


def select_certificate(
    report: ConstantsReport, data: ProblemData, p: float = 1.0
) -> RateCertificate:
    """Pick the decay certificate matching (alpha, beta, p).

    The Boltzmann certificate (p = 1) has eta = 1/2 at equal orders and
    1/2 - theta at unequal orders, and the (mu, K, gamma) of alpha's band:
    alpha = 1, 1 < alpha < 2 or alpha >= 2.  Raises ThetaTooLarge when
    alpha > beta but the profile is not flat enough (theta >= 1/2) and
    UnsupportedRegime when no result covers the request (UnsupportedEntropy,
    a subclass, for p != 1 at unequal orders).
    """
    require_equal_orders(data, p)
    a = data.alpha
    if p == 1.0:
        if a == data.beta:
            if data.d1 == data.d2:
                return RateCertificate(0.5, 0.0, 0.0, 1.0, "equal-orders, equal diffusivities")
            eta, orders = 0.5, "equal orders"
        elif report.theta >= 0.5:  # alpha > beta >= 1: the profile must be flat enough
            raise ThetaTooLarge(report.theta)
        else:
            eta, orders = 0.5 - report.theta, "unequal orders"
        if a == 1.0:
            return RateCertificate(eta, report.mu0, report.K0, 1.0, f"{orders}, alpha = 1")
        if a < 2.0:
            return RateCertificate(eta, report.mu1, report.K1, 1.0, f"{orders}, 1 < alpha < 2")
        return RateCertificate(eta, 0.0, report.K2, 1.0 / (a - 1.0), f"{orders}, alpha >= 2")
    if a == 1.0 and p == 0.5:
        if report.mu_tilde_star is None or report.K_star is None:
            raise UnsupportedRegime("constants were not computed for p = 1/2")
        eta = 0.5 - report.mu_tilde_star
        if eta <= 0.0:
            raise UnsupportedRegime(
                f"damping {report.mu_tilde_star:.3g} swallows the bonus rate 1/2"
            )
        return RateCertificate(eta, 0.0, report.K_star, 1.0, "hellinger, alpha = 1")
    if report.mu_tilde is None or report.K_tilde is None:
        raise UnsupportedRegime(f"no power-entropy certificate for p={p}, alpha={a}")
    return RateCertificate(0.5, report.mu_tilde, report.K_tilde, 1.0, f"power entropy p={p:g}")


def gronwall_envelope(cert: RateCertificate, E0: float, tau: float) -> float:
    """Decay envelope at elapsed time tau from initial value E0.

    Returns the tighter of the exactly evaluated integral form and the
    simplified closed form (they coincide when eta = gamma).
    """
    if tau < 0:
        raise DomainError(f"tau must be nonnegative, got {tau}")
    if E0 < 0:
        raise DomainError(f"E0 must be nonnegative, got {E0}")
    eta, mu, K, gam = cert.eta, cert.mu, cert.K, cert.gamma
    if eta == gam:
        return math.exp(-eta * tau + mu) * (E0 + K * tau)
    R = K * (math.exp((eta - gam) * tau) - 1.0) / (eta - gam)
    integral_form = math.exp(-eta * tau + mu) * (E0 + R)
    simplified = math.exp(-min(eta, gam) * tau + mu) * (E0 + 2.0 * K / abs(eta - gam))
    return min(integral_form, simplified)


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    worst_ratio: float
    slack: float
    fitted_slope: float | None
    fit_window: tuple[float, float]
    n_samples: int


def fit_log_slope(
    taus: np.ndarray, values: np.ndarray, window: tuple[float, float]
) -> float | None:
    """Least-squares slope of log(values) over taus restricted to the window."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (taus >= window[0]) & (taus <= window[1]) & (values > 1e-300)
    if mask.sum() < 2:
        return None
    coeffs = np.polyfit(taus[mask], np.log(values[mask]), 1)
    return float(coeffs[0])


def verify_decay(curve, cert: RateCertificate, slack: float = 0.05) -> VerificationVerdict:
    """Judge sampled entropy values against the certificate envelope.

    Passes when every sample satisfies E(tau_i) <= (1 + slack) envelope
    rooted at the first sample.  The late-time slope is fitted over the
    second half of the curve.
    """
    pts = [(float(t), float(e)) for t, e in curve]
    if not pts:
        raise EmptyCurve("decay verification needs at least one sample")
    taus, values = np.array(pts).T
    if np.any(np.diff(taus) < 0):
        raise DomainError("samples must be sorted by tau")
    if np.any(values < 0):
        raise DomainError("entropy samples must be nonnegative")
    t0, E0 = pts[0]
    worst = 0.0
    for t, e in pts:
        env = gronwall_envelope(cert, E0, t - t0)
        ratio = (0.0 if e <= 1e-300 else math.inf) if env == 0.0 else e / env
        worst = max(worst, ratio)
    fit_window = (t0 + 0.5 * (taus[-1] - t0), float(taus[-1]))
    slope = fit_log_slope(taus, values, fit_window)
    return VerificationVerdict(
        passed=worst <= 1.0 + slack,
        worst_ratio=worst,
        slack=slack,
        fitted_slope=slope,
        fit_window=fit_window,
        n_samples=len(pts),
    )
