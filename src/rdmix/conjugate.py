"""Gap functions controlling the mixed term, their conjugates and bounds.

The mixed term is dominated, node by node, by a Young-inequality trade
against the reaction dissipation.  The trade is governed by the convex gap
functions

    boltzmann kind:   phi(z) = ((1+z)^a - 1) log((1+z)^a)
    power kind:       phi(z) = (a/(p-1)) ((1+z)^((p-1)/p) - 1) ((1+z)^(a/p) - 1)

(+inf for z <= -1).  Their Legendre transforms have no closed form; this
module computes them numerically with ``numeric_sup`` (a log-grid sweep plus
golden-section refinement, shared with the entropy conjugates) and provides
the analytic upper bounds and the quadratic-bound constants used by the rate
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EDGE = 1e-9  # distance to the z = -1 pole for grid sweeps


@dataclass(frozen=True)
class PhiFamily:
    """A gap function: ``boltzmann_alpha`` (one parameter) or ``general_p_alpha``."""

    kind: str
    alpha: float
    p: float | None = None

    def __post_init__(self):
        if self.kind == "boltzmann_alpha":
            if self.alpha < 1.0:
                raise DomainError(f"boltzmann kind needs alpha >= 1, got {self.alpha}")
        elif self.kind == "general_p_alpha":
            if self.alpha <= 0.0:
                raise DomainError(f"general kind needs alpha > 0, got {self.alpha}")
            if self.p is None or self.p <= 0.0:
                raise DomainError(f"general kind needs p > 0, got {self.p}")
        else:
            raise DomainError(f"unknown kind {self.kind!r}")


def phi(fam: PhiFamily, z: float | np.ndarray):
    """Evaluate the gap function; +inf for z <= -1."""
    z = np.asarray(z, dtype=float)
    w = z + 1.0
    out = np.full(z.shape, np.inf)
    ok = w > 0.0
    wok = w[ok]
    a = fam.alpha
    if fam.kind == "boltzmann_alpha" or fam.p == 1.0:
        # p -> 1 limit of the power kind is the boltzmann kind
        out[ok] = (wok**a - 1.0) * a * np.log(wok)
    else:
        p = fam.p
        out[ok] = (a / (p - 1.0)) * (wok ** ((p - 1.0) / p) - 1.0) * (wok ** (a / p) - 1.0)
    return out if out.ndim else float(out)


def _objective(fam: PhiFamily, xi: float, z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = xi * z - phi(fam, z)
    return np.where(np.isfinite(vals), vals, -np.inf)


def numeric_sup(f, z: np.ndarray, tol: float = 1e-10) -> float:
    """Supremum of ``f`` by a sweep over the nodes ``z``, refined by golden section.

    ``f`` maps an array of points to an array of values.  The refinement
    searches the bracket between the neighbours of the best node until it is
    ``tol`` wide relative to its ends; the result is the best value seen.
    """
    vals = f(z)
    k = int(np.argmax(vals))
    a, b = z[max(k - 1, 0)], z[min(k + 1, len(z) - 1)]

    def f1(t: float) -> float:
        return float(f(np.array([t]))[0])

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f1(c), f1(d)
    while b - a > tol * max(1.0, abs(a), abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f1(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f1(d)
    return max(float(vals[k]), fc, fd)


def phi_conjugate_numeric(
    fam: PhiFamily, xi: float, base_points: int = 10_000, z_max: float = 1e3
) -> float:
    """sup_z (xi z - phi(z)) over z in (-1, inf), by sweep and refinement.

    The sweep is logarithmic in 1 + z so both the pole at z = -1 and the far
    tail are resolved; the upper end is extended by decades until the
    objective has decreased for three consecutive decades (the gap functions
    grow superlinearly, so the sup is attained at finite z).
    """
    if not np.isfinite(xi):
        raise DomainError(f"xi must be finite, got {xi}")
    # extend the upper end until the tail is clearly decreasing
    decades_down, top = 0, math.log10(1.0 + z_max)
    best_tail = -np.inf
    while decades_down < 3 and top < 300:
        val = float(_objective(fam, xi, np.array([10.0**top - 1.0]))[0])
        if val < best_tail:
            decades_down += 1
        else:
            decades_down = 0
            best_tail = val
        top += 1.0
    z = np.logspace(math.log10(_EDGE), top, base_points) - 1.0
    sup = numeric_sup(lambda t: _objective(fam, xi, t), z)
    return max(sup, 0.0)  # phi(0) = 0 makes the sup nonnegative


def c_tilde(alpha: float) -> float:
    """Coefficient (2/alpha^2)^(1/(alpha-1)) (alpha-1)/alpha of the power-growth bound."""
    if alpha <= 1.0:
        raise DomainError(f"power-growth coefficient needs alpha > 1, got {alpha}")
    return (2.0 / alpha**2) ** (1.0 / (alpha - 1.0)) * (alpha - 1.0) / alpha


def phi_conjugate_bound(alpha: float, xi: float, include_small_xi: bool = True) -> float:
    """Tightest analytic upper bound for the boltzmann-kind conjugate at xi.

    Branches: exponential for alpha = 1, max of power growth and quadratic
    for alpha in (1, 2], pure power growth for alpha >= 2 (at alpha = 2 both
    branches apply and the minimum is taken).  The quadratic xi^2 / (2 alpha),
    valid whenever |xi| <= alpha, joins the minimum unless
    ``include_small_xi`` is false (which isolates the growth-branch value).
    """
    if alpha < 1.0:
        raise DomainError(f"bound needs alpha >= 1, got {alpha}")
    candidates = []
    if alpha == 1.0:
        candidates.append(math.exp(xi) - xi - 1.0)
    else:
        power = c_tilde(alpha) * abs(xi) ** (alpha / (alpha - 1.0))
        if alpha <= 2.0:
            candidates.append(max(power, xi**2 / (2.0 * alpha)))
        if alpha >= 2.0:
            candidates.append(power)
    if include_small_xi and abs(xi) <= alpha:
        candidates.append(xi**2 / (2.0 * alpha))
    return min(candidates)


def _quadratic_ratio(fam: PhiFamily, z: np.ndarray) -> np.ndarray:
    a, p = fam.alpha, fam.p
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = (a * a / (4.0 * p * p)) * z * z / phi(fam, z)
    return np.where(np.isfinite(r), r, 0.0)


def m_hat(p: float, alpha: float, base_points: int = 40_001) -> float:
    """Quadratic-bound constant sup_z (alpha^2 / 4 p^2) z^2 / phi_general(z).

    Valid for 0 < p <= max(alpha/2, alpha-1); the value is at least 1/4 (the
    z -> 0 limit, from phi(z) = (alpha/p)^2 z^2 + higher order) and the sup
    may also sit at z -> inf when p is at the upper end of its range, where
    the limit is attached analytically.
    """
    if not (0.0 < p <= max(alpha / 2.0, alpha - 1.0)):
        raise DomainError(
            f"quadratic-bound constant needs 0 < p <= max(alpha/2, alpha-1), "
            f"got p={p}, alpha={alpha}"
        )
    fam = PhiFamily("general_p_alpha", alpha, p)
    z = np.logspace(-12, 12, base_points) - 1.0
    z = z[np.abs(z) > 1e-13]
    candidates = [0.25, numeric_sup(lambda t: _quadratic_ratio(fam, t), z, tol=1e-13)]
    # growth-exponent-zero cases: finite limit at z -> inf
    if p < 1.0 and abs(alpha - 2.0 * p) < 1e-12:
        candidates.append(alpha * (1.0 - p) / (4.0 * p * p))
    if p > 1.0 and abs(alpha - (p + 1.0)) < 1e-12:
        candidates.append(alpha * (p - 1.0) / (4.0 * p * p))
    return max(candidates)
