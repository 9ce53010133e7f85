"""Similarity profiles of the scaled two-species system.

The pair (U, V) interpolating the equilibria (A-^beta, A-^alpha) at -inf and
(A+^beta, A+^alpha) at +inf satisfies a constrained steady equation with a
reaction-flux multiplier Lambda.  Eliminating V = U^(alpha/beta) and Lambda
reduces it to a scalar two-point boundary value problem

    (beta d1 U + alpha d2 U^(alpha/beta))'' + (y/2) (beta U + alpha U^(alpha/beta))' = 0

which is solved here by a damped Newton iteration on a high-order finite
difference discretization.  The equal-order case has an erf closed form used
as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dgbsv
from scipy.special import erf

from . import fdops
from .errors import DomainError, NonConvergence, NonPositivity
from .fdops import Grid

_DAMPING_FLOOR = 2.0**-30
_MAX_NEWTON = 40


@dataclass(frozen=True)
class ProblemData:
    """Reaction orders, diffusivities, reaction strength and the two equilibria."""

    alpha: float
    beta: float
    d1: float
    d2: float
    k: float
    A_minus: float
    A_plus: float

    def __post_init__(self):
        if not (self.alpha >= 1.0 and self.beta >= 1.0):
            raise DomainError(f"reaction orders must be >= 1, got ({self.alpha}, {self.beta})")
        if self.alpha < self.beta:
            raise DomainError(
                f"canonical orientation requires alpha >= beta, got ({self.alpha}, {self.beta})"
            )
        for name in ("d1", "d2", "k", "A_minus", "A_plus"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        for name in ("A_minus", "A_plus"):
            # A^alpha is the larger equilibrium power once A >= 1, as alpha >= beta
            try:
                math.pow(getattr(self, name), self.alpha)
            except OverflowError:
                raise DomainError(
                    f"{name}^alpha leaves the float range at {name} = {getattr(self, name)}, "
                    f"alpha = {self.alpha}"
                )

    @property
    def u_minus(self) -> float:
        return self.A_minus**self.beta

    @property
    def u_plus(self) -> float:
        return self.A_plus**self.beta

    @property
    def v_minus(self) -> float:
        return self.A_minus**self.alpha

    @property
    def v_plus(self) -> float:
        return self.A_plus**self.alpha


@dataclass(frozen=True)
class ProfileSolution:
    """Profile pair with multiplier, nodal derivatives and solver residual."""

    grid: Grid
    data: ProblemData
    U: np.ndarray
    V: np.ndarray
    Lambda: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    residual_norm: float

    # read-only arrays of the profile alone that every diagnostics sample reuses;
    # the (2, n) ones hold the U and V rows of the species-symmetric functionals
    @cached_property
    def UV(self) -> np.ndarray:
        return _read_only(np.stack((self.U, self.V)))

    @cached_property
    def d_UV(self) -> np.ndarray:
        """Fisher weights d1 U and d2 V."""
        return _read_only(np.stack((self.data.d1 * self.U, self.data.d2 * self.V)))

    @cached_property
    def kU_alpha(self) -> np.ndarray:
        """Reaction weight k U^alpha."""
        return _read_only(self.data.k * self.U**self.data.alpha)

    def multiplier_mismatch(self) -> float:
        """Sup distance between Lambda recovered from the U-row and the V-row."""
        d = self.data
        lam_u = -(d.d1 * self.U2 + 0.5 * self.grid.nodes * self.U1) / d.alpha
        return float(np.max(np.abs(lam_u - self.Lambda)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _erf_ramp(grid: Grid, lo: float, hi: float, scale: float) -> np.ndarray:
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * erf(grid.nodes / scale)


def _finish(grid: Grid, data: ProblemData, U: np.ndarray, residual_norm: float) -> ProfileSolution:
    # Derivatives use the solver's own stencils so that the multiplier
    # recovered from either row agrees to the solver residual.
    V = U ** (data.alpha / data.beta)
    U1, U2 = fdops.diff1(grid, U), fdops.diff2(grid, U)
    V1, V2 = fdops.diff1(grid, V), fdops.diff2(grid, V)
    Lam = (data.d2 * V2 + 0.5 * grid.nodes * V1) / data.beta
    arrays = (_read_only(a) for a in (U, V, Lam, U1, U2, V1, V2))
    return ProfileSolution(grid, data, *arrays, residual_norm)


def solve_profile(data: ProblemData, grid: Grid, tol: float = 1e-8) -> ProfileSolution:
    """Solve the scalar profile equation by damped Newton.

    The Newton step keeps every iterate above half of the smaller boundary
    value (V = U^(alpha/beta) needs strict positivity); the step is halved
    until the residual decreases, down to a floor of 2^-30.  Each step is one
    LAPACK ``dgbsv`` solve of the banded Jacobian (the routine that
    ``scipy.linalg.solve_banded`` calls, so the same bits).

    Raises DomainError unless ``tol`` is finite and positive, or when the
    residual or Jacobian of an iterate is not finite (large equilibria whose
    powers overflow in the residual); NonConvergence when the residual stalls above
    ``tol``, is still above it after 40 Newton steps or the Jacobian is
    singular; and NonPositivity when the damping floor is hit on the
    positivity constraint.

    The solution depends on ``(data, grid, float(tol))`` alone, so it is solved
    once per key and process: the last 8 solutions are kept, and a repeated call
    returns the same object.  Its arrays (the seven fields and the cached
    ``UV``, ``d_UV`` and ``kU_alpha``) are read-only, so no caller can change
    what another is served.  An entry holds 12 arrays of ``grid.n`` floats, so
    the memo holds at most 768 bytes per node: 1.5 MB at the benchmark cases'
    n = 2001, 0.5 MB at the default n = 659 of d1 = d2 and a jump of at most 1.  An
    exception is never stored: it is raised afresh on every call.  Measured on
    the benchmark workloads: 160 of the 480 solves of an ``explore`` pass repeat
    one of the same job (``profile``, ``sweep`` and ``constants`` of a point);
    ``certify`` and ``adaptive`` repeat none within a job, but all 6 of 6
    across passes.
    """
    return _solve_profile(data, grid, float(tol))


@lru_cache(maxsize=8)
def _solve_profile(data: ProblemData, grid: Grid, tol: float) -> ProfileSolution:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    a, b, d1, d2 = data.alpha, data.beta, data.d1, data.d2
    gam = a / b
    lo_bc, hi_bc = data.u_minus, data.u_plus

    U = _erf_ramp(grid, lo_bc, hi_bc, np.sqrt(2.0 * (d1 + d2)))
    U[0], U[-1] = lo_bc, hi_bc
    floor = 0.5 * min(lo_bc, hi_bc)

    def resid(U):
        # G = b d1 U + a d2 U^gam and W = b U + a U^gam share the power
        P = U**gam
        return fdops.scalar_residual(grid, b * d1 * U + a * d2 * P, b * U + a * P)

    # the (7, n-2) band of dgbsv: the Jacobian in rows 2 to 6, and two rows on
    # top for the fill-in of pivoting, which dgbsv sets itself; each solve
    # overwrites the band with its factors
    band = np.empty((7, grid.n - 2), order="F")
    # an overflow is caught below: a non-finite residual or Jacobian raises and a
    # non-finite trial residual is rejected like any that does not decrease
    with np.errstate(over="ignore", invalid="ignore"):
        R = resid(U)
        rnorm = float(np.max(np.abs(R[1:-1])))
        for iteration in range(_MAX_NEWTON):
            if rnorm <= tol:
                break
            Q = U ** (gam - 1.0)  # dG/dU and dW/dU share it
            band[2:] = fdops.jacobian_banded(grid, b * d1 + a * d2 * gam * Q, b + a * gam * Q)
            if not (math.isfinite(rnorm) and np.isfinite(band[2:]).all()):
                raise DomainError(
                    f"profile Newton step {iteration + 1}: the residual or Jacobian is not "
                    f"finite (residual {rnorm:.3e})"
                )
            _, _, delta, info = dgbsv(2, 2, band, -R[1:-1], overwrite_ab=True, overwrite_b=True)
            if info != 0:  # info > 0, an exactly zero pivot (f2py checks the arguments)
                raise NonConvergence(iteration + 1, rnorm)
            lam = 1.0
            accepted = False
            positivity_bound = False
            while lam >= _DAMPING_FLOOR:
                trial = U.copy()
                trial[1:-1] = U[1:-1] + lam * delta
                if np.min(trial) < floor:
                    positivity_bound = True
                    lam *= 0.5
                    continue
                R_trial = resid(trial)
                r_trial = float(np.max(np.abs(R_trial[1:-1])))
                if r_trial < rnorm or r_trial <= tol:
                    U, R, rnorm = trial, R_trial, r_trial
                    accepted = True
                    break
                positivity_bound = False
                lam *= 0.5
            if not accepted:
                if positivity_bound:
                    raise NonPositivity(
                        f"damping floor reached while enforcing U >= {floor:.3g} "
                        f"(residual {rnorm:.3e})"
                    )
                # roundoff plateau: the residual cannot decrease further
                raise NonConvergence(iteration + 1, rnorm)
        else:
            if rnorm > tol:
                raise NonConvergence(_MAX_NEWTON, rnorm)
    return _finish(grid, data, U, rnorm)


def closed_form_profile(data: ProblemData, grid: Grid) -> ProfileSolution:
    """Equal-order profile: erf ramp with the averaged diffusivity.

    U(y) = (A+^a + A-^a)/2 + ((A+^a - A-^a)/2) erf(y / sqrt(2 (d1+d2))),
    V = U, and Lambda = ((d2 - d1) / (2 a)) U'' with the analytic U''.
    """
    if data.alpha != data.beta:
        raise DomainError("closed form requires alpha == beta")
    a, d1, d2 = data.alpha, data.d1, data.d2
    c = np.sqrt(2.0 * (d1 + d2))
    lo, hi = data.v_minus, data.v_plus  # A^alpha = A^beta here
    half = 0.5 * (hi - lo)
    y = grid.nodes
    U = _erf_ramp(grid, lo, hi, c)
    U1 = half * (2.0 / (c * np.sqrt(np.pi))) * np.exp(-((y / c) ** 2))
    U2 = -(2.0 * y / c**2) * U1
    Lam = ((d2 - d1) / (2.0 * a)) * U2
    residual = fdops.scalar_residual(grid, (a * d1 + a * d2) * U, 2.0 * a * U)
    rnorm = float(np.max(np.abs(residual[1:-1])))
    return ProfileSolution(grid, data, U, U.copy(), Lam, U1, U2, U1.copy(), U2.copy(), rnorm)


def profile_invariants(sol: ProfileSolution, tol: float = 1e-8) -> dict[str, bool]:
    """Check the defining properties of a profile solution.

    Returns a name -> bool map: the algebraic constraint U^alpha = V^beta,
    boundary values, nodewise monotonicity, positivity above the smaller
    equilibrium, and agreement of the multiplier recovered from either row.
    """
    d = sol.data
    constraint = float(np.max(np.abs(sol.U**d.alpha - sol.V**d.beta)))
    ends = np.array([[d.u_minus, d.u_plus], [d.v_minus, d.v_plus]])  # rows U and V
    checks = {
        "algebraic_constraint": constraint <= 1e-8 * float(np.max(sol.U**d.alpha)),
        "boundary_values": bool(np.all(np.abs(sol.UV[:, [0, -1]] - ends) <= 1e-8)),
        "positivity": bool(np.all(sol.UV.min(axis=1) >= ends.min(axis=1) - 1e-10)),
        "multiplier_consistency": sol.multiplier_mismatch() <= max(tol, 10.0 * sol.residual_norm),
        "residual": sol.residual_norm <= tol,
    }
    # both rows rise (fall) with A+ above (below) A-; equal equilibria pass.  A row
    # may dip by 1e-12 of its scale, max(1, its larger end value): a solve stopped
    # at its roundoff floor leaves a smooth error of that size on a flat end
    rise = np.sign(d.A_plus - d.A_minus)
    slack = 1e-12 * np.maximum(1.0, ends.max(axis=1, keepdims=True))
    checks["monotone"] = bool(np.all(rise * np.diff(sol.UV, axis=1) >= -slack))
    return checks
