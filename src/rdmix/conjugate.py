"""Gap functions controlling the mixed term, their conjugates and bounds.

The mixed term is dominated, node by node, by a Young-inequality trade
against the reaction dissipation.  The trade is governed by the convex gap
functions

    boltzmann kind:   phi(z) = ((1+z)^a - 1) log((1+z)^a)
    power kind:       phi(z) = (a/(p-1)) ((1+z)^((p-1)/p) - 1) ((1+z)^(a/p) - 1)

(+inf for z <= -1).  Their Legendre transforms have no closed form; this
module computes them numerically with ``numeric_sup`` (a log-grid sweep plus
golden-section refinement, shared with the entropy conjugates; a column of xi
values is refined in one batch by ``golden_refine``) and provides
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


def _objective(fam: PhiFamily, xi, z: np.ndarray, phi_z: np.ndarray | None = None) -> np.ndarray:
    """xi z - phi(z), -inf where not finite; ``phi_z`` may pass phi(z) when it is known."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = xi * z - (phi(fam, z) if phi_z is None else phi_z)
    return np.where(np.isfinite(vals), vals, -np.inf)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_refine(f, a, b, best, tol: float) -> np.ndarray:
    """Golden-section refinement of many brackets ``[a_i, b_i]`` at once.

    Each bracket takes exactly the steps of a scalar search and stops once it
    is ``tol`` wide relative to its ends; the brackets still searching take
    their steps together, so ``f(t, i)`` evaluates the new points ``t`` of the
    brackets numbered ``i`` (a list) in one call.  The result is, per bracket,
    the best of ``best[i]`` and the values seen.
    """
    lo, hi = [float(x) for x in a], [float(x) for x in b]
    c = [y - _GOLDEN * (y - x) for x, y in zip(lo, hi)]
    d = [x + _GOLDEN * (y - x) for x, y in zip(lo, hi)]
    every = list(range(len(lo)))
    fc, fd = f(np.array(c), every).tolist(), f(np.array(d), every).tolist()
    live = [i for i in every if hi[i] - lo[i] > tol * max(1.0, abs(lo[i]), abs(hi[i]))]
    while live:
        left, t = [], []
        for i in live:
            if fc[i] > fd[i]:  # the maximum lies in [a, d]: b <- d, d <- c, c is new
                hi[i], d[i], fd[i] = d[i], c[i], fc[i]
                t.append(hi[i] - _GOLDEN * (hi[i] - lo[i]))
                left.append(True)
            else:  # it lies in [c, b]: a <- c, c <- d, d is new
                lo[i], c[i], fc[i] = c[i], d[i], fd[i]
                t.append(lo[i] + _GOLDEN * (hi[i] - lo[i]))
                left.append(False)
        for i, to_left, x, v in zip(live, left, t, f(np.array(t), live).tolist()):
            if to_left:
                c[i], fc[i] = x, v
            else:
                d[i], fd[i] = x, v
        live = [i for i in live if hi[i] - lo[i] > tol * max(1.0, abs(lo[i]), abs(hi[i]))]
    return np.array([max(b0, x, y) for b0, x, y in zip(best, fc, fd)])


def _bracket(z: np.ndarray, vals: np.ndarray):
    """The best sweep value and the neighbours of its node."""
    k = int(np.argmax(vals))
    return vals[k], z[max(k - 1, 0)], z[min(k + 1, len(z) - 1)]


def numeric_sup(f, z: np.ndarray, tol: float = 1e-10) -> float:
    """Supremum of ``f`` by a sweep over the nodes ``z``, refined by golden section.

    ``f`` maps an array of points to an array of values.  The refinement
    (``golden_refine``) searches the bracket between the neighbours of the
    best node; the result is the best value seen.
    """
    best, a, b = _bracket(z, f(z))
    return float(golden_refine(lambda t, i: f(t), [a], [b], [best], tol)[0])


def phi_conjugate_numeric(
    fam: PhiFamily, xi: float | np.ndarray, base_points: int = 10_000, z_max: float = 1e3
) -> float | np.ndarray:
    """sup_z (xi z - phi(z)) over z in (-1, inf), by sweep and refinement.

    The sweep is logarithmic in 1 + z so both the pole at z = -1 and the far
    tail are resolved; the upper end is extended by decades until the
    objective has decreased for three consecutive decades (the gap functions
    grow superlinearly, so the sup is attained at finite z).  ``xi`` may be an
    array: the decades are evaluated once, each xi gets its own upper end and
    sweep, then all the brackets are refined together, bit for bit as per xi.
    """
    xis = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise DomainError(f"xi must be finite, got {xi}")
    flat = xis.ravel()
    # every xi scans the same decades 1 + z = 10^top, top = log10(1 + z_max) + k < 300
    tops = [math.log10(1.0 + z_max)]
    while tops[-1] < 300:
        tops.append(tops[-1] + 1.0)
    z_tail = np.array([10.0**t - 1.0 for t in tops[:-1]])
    tail = _objective(fam, flat[:, None], z_tail)
    # down[:, k]: decade k + 1 lies below the best before it; three in a row end a scan
    down = tail[:, 1:] < np.maximum.accumulate(tail, axis=1)[:, :-1]
    stop = np.c_[down[:, 2:] & down[:, 1:-1] & down[:, :-2], np.ones(len(flat), bool)]
    ends = np.minimum(stop.argmax(axis=1) + 4, len(z_tail)).tolist()
    best, lo, hi = np.empty_like(flat), np.empty_like(flat), np.empty_like(flat)
    sweeps = {}  # upper end -> (nodes, phi at the nodes): most xi share a few ends
    for j, x in enumerate(flat.tolist()):
        top = tops[ends[j]]
        if top not in sweeps:
            z = np.logspace(math.log10(_EDGE), top, base_points) - 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                sweeps[top] = z, phi(fam, z)
        z, phi_z = sweeps[top]
        best[j], lo[j], hi[j] = _bracket(z, _objective(fam, x, z, phi_z))
    sup = golden_refine(lambda t, i: _objective(fam, flat[i], t), lo, hi, best, 1e-10)
    sup = np.where(0.0 > sup, 0.0, sup)  # phi(0) = 0 makes the sup nonnegative
    return sup.reshape(xis.shape) if xis.ndim else float(sup[0])


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
