"""Relative entropies and dissipation functionals for states against a profile.

Pointwise generators: the Boltzmann function z log z - z + 1, the power family
F_p with F_p'' = z^(p-2) and F_p(1) = F_p'(1) = 0, their convex conjugates,
and the nonnegative reaction pairing (a - b)(log a - log b).  Functionals are
trapezoid quadratures on the shared grid, with relative densities rho = u/U
and zeta = v/V.  Entropies E_p are evaluated for any p; the dissipation is
decomposed for the Boltzmann entropy (p = 1) alone.

F_p loses no digits to cancellation near z = 1, at p = 1/2 and near p = 1
alike (see its docstring).  One diagnostics sample (``dissipation_total``)
forms rho, zeta, their logarithm and their excess over 1 once, in a
``RelativeDensities``: the entropies and the reaction pairing share the
logarithm (log a - log b = alpha log rho - beta log zeta), the Fisher
information and the mixed term share the excess, and the squared Hellinger
distance is E_(1/2) / 2 whenever p = 1/2 is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conjugate import numeric_sup
from .errors import DomainError
from .fdops import Grid, check_values, diff1, integrate
from .profile import ProfileSolution

# densities below this are treated as on the axis of the reaction pairing,
# where the pairing is infinite; simulation enforces positivity, so hitting
# the clamp is a diagnostic failure rather than a value.
_DENSITY_CLAMP = 1e-300

# sweep nodes of the numeric F_p conjugate
_FP_SWEEP = np.logspace(-12.0, 12.0, 4001)


@dataclass(frozen=True)
class State:
    """Concentrations (u, v) on a grid at scaled time tau."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    tau: float

    def __post_init__(self):
        u = check_values(self.grid, self.u)
        v = check_values(self.grid, self.v)
        if u.min() <= 0 or v.min() <= 0:
            raise DomainError("state concentrations must be positive nodewise")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def trusted(cls, grid: Grid, u: np.ndarray, v: np.ndarray, tau: float) -> State:
        """A State of nodal float64 arrays that the caller has proven finite and positive."""
        state = object.__new__(cls)
        state.__dict__.update(grid=grid, u=u, v=v, tau=tau)
        return state

    @cached_property
    def uv(self) -> np.ndarray:
        """u and v as the rows of one (2, n) array."""
        return np.stack((self.u, self.v))


@dataclass(frozen=True)
class RelativeDensities:
    """rho = u/U and zeta = v/V for a state over a profile, the rows of ``both``.

    A functional that treats the two species alike evaluates both rows in
    one pass and adds them before its quadrature.  The minimum, the excess
    over 1 and the logarithm are each formed once, when a functional first
    asks for them.
    """

    grid: Grid
    both: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        return self.both[0]

    @property
    def zeta(self) -> np.ndarray:
        return self.both[1]

    @cached_property
    def lowest(self) -> float:
        """The smallest value of rho and zeta."""
        return float(self.both.min())

    @cached_property
    def excess(self) -> np.ndarray:
        """rho - 1 and zeta - 1, shared by the Fisher information and the mixed terms."""
        return self.both - 1.0

    @cached_property
    def log(self) -> np.ndarray:
        """log rho and log zeta, shared by the entropies and the reaction pairing."""
        return np.log(self.both)


def relative_densities(state: State, profile: ProfileSolution) -> RelativeDensities:
    if state.grid != profile.grid:
        raise DomainError("state and profile must share one grid")
    both = np.empty((2, state.grid.n))
    np.divide(state.u, profile.U, out=both[0])
    np.divide(state.v, profile.V, out=both[1])
    return RelativeDensities(state.grid, both)


@dataclass
class DiagnosticsRecord:
    """Functional values at one sampling instant.

    ``D_B_total`` is assembled as I_Fisher + E_B/2 - I_Lambda + e^tau D_react,
    an identity by construction; ``dissipation_residual`` is filled later by
    the time integrator from finite differences of E_B across samples.
    """

    tau: float
    E_B: float
    E_p: dict[float, float] = field(default_factory=dict)
    I_Fisher: float = 0.0
    D_react: float = 0.0
    I_Lambda: float = 0.0
    I_Lambda_1: float = 0.0
    I_Lambda_2: float = 0.0
    hellinger_sq: float = 0.0
    D_B_total: float = 0.0
    dissipation_residual: float = float("nan")


def F_p(
    z: float | np.ndarray, p: float, z_min: float | None = None, log_z: np.ndarray | None = None
):
    """Power-family entropy generator; p = 1 is Boltzmann, p = 0 the dual log branch.

    ``z`` is a float or an array (a float in gives a float out); ``z_min`` and
    ``log_z`` may pass the minimum and the logarithm of ``z`` when they are known.
    p = 1/2 is 2 ((z - 1) / (sqrt z + 1))^2, free of cancellation.  Other p
    take p (p - 1) F_p = z^p - p z + p - 1 in one of two expm1 forms, l = log z:
    expm1(p l) - p expm1(l) below p = 1/2, z expm1((p-1) l) - (p-1) expm1(l)
    above it.  Against a decimal reference each loses the fewest digits on its
    side, and neither divides a cancelled difference by p - 1, as the
    closed form does near p = 1 and z = 1.
    """
    z = np.asarray(z, dtype=float)
    z_min = z.min() if z_min is None else z_min
    if not z_min >= 0 or (p <= 0 and z_min <= 0):  # a NaN fails too
        raise DomainError(f"F_p needs z >= 0 (z > 0 for p <= 0), got min z={z_min}, p={p}")
    if p == 0.5:
        out = 2.0 * ((z - 1.0) / (np.sqrt(z) + 1.0)) ** 2
    elif z_min == 0.0:  # F_p(0) = 1/p for p > 0; the forms below take log z elsewhere
        out = np.where(z > 0.0, F_p(np.where(z > 0.0, z, 1.0), p), 1.0 / p)
    else:
        log_z = np.log(z) if log_z is None else log_z
        q = p - 1.0
        if p == 1.0:
            out = z * log_z - z + 1.0
        elif p == 0.0:
            out = z - log_z - 1.0
        elif p < 0.5:
            out = (np.expm1(p * log_z) - p * np.expm1(log_z)) / (p * q)
        else:
            out = (z * np.expm1(q * log_z) - q * np.expm1(log_z)) / (p * q)
    return out if out.ndim else float(out)


def F_p_conjugate(zeta: float, p: float) -> float:
    """Legendre transform sup_z (zeta z - F_p(z)).

    Closed form 2 zeta / (2 - zeta) for p = 1/2 (finite for zeta < 2); other
    p are resolved by a log-grid search refined by golden section.
    """
    if p == 0.5:
        if zeta >= 2.0:
            raise DomainError(f"conjugate of F_(1/2) is finite only for zeta < 2, got {zeta}")
        return 2.0 * zeta / (2.0 - zeta)
    if p < 1 and zeta >= 1.0 / (1.0 - p):
        raise DomainError(f"conjugate of F_p is finite only for zeta < {1/(1-p):g}")
    return numeric_sup(lambda z: zeta * z - F_p(z, p), _FP_SWEEP)


def gamma_fn(a: float, b: float) -> float:
    """Reaction pairing (a - b)(log a - log b) >= 0, extended by 0 at (0,0) and +inf on the axes."""
    if a < 0 or b < 0:
        raise DomainError(f"reaction pairing needs nonnegative arguments, got ({a}, {b})")
    if a == 0.0 and b == 0.0:
        return 0.0
    if a == 0.0 or b == 0.0:
        return math.inf
    lo, hi = min(a, b), max(a, b)  # log1p keeps the pairing positive when log a == log b
    return (hi - lo) * math.log1p((hi - lo) / lo)


def _clamped(dens: RelativeDensities) -> np.ndarray:
    """The stacked (rho, zeta); DomainError when either falls below the density clamp."""
    if dens.lowest < _DENSITY_CLAMP:
        raise DomainError(
            f"a relative density fell below {_DENSITY_CLAMP:g}; reaction pairing diverges"
        )
    return dens.both


def relative_entropy(
    state: State,
    profile: ProfileSolution,
    p: float = 1.0,
    dens: RelativeDensities | None = None,
) -> float:
    """E_p = integral of U F_p(u/U) + V F_p(v/V); ``dens`` may pass the state's densities."""
    if dens is None:
        dens = relative_densities(state, profile)
    vals = profile.UV * F_p(dens.both, p, dens.lowest, dens.log if dens.lowest > 0.0 else None)
    return integrate(state.grid, vals[0] + vals[1])


def fisher_information(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Gradient dissipation: integral of d1 U rho_y^2 / rho + d2 V zeta_y^2 / zeta."""
    both = _clamped(dens)
    # the derivative of the excess over 1: the banded D1 of an all-ones row is roundoff, not 0
    vals = profile.d_UV * diff1(dens.grid, dens.excess) ** 2 / both
    return integrate(dens.grid, vals[0] + vals[1])


def reactive_dissipation(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Reaction dissipation: integral of k U^alpha times the pairing of rho^alpha and zeta^beta."""
    d = profile.data
    _clamped(dens)  # the pairing is infinite on the axes
    # from the shared logs: log a - log b = alpha log rho - beta log zeta, and
    # a - b = b expm1(log a - log b), which does not cancel where a is near b
    log_b = d.beta * dens.log[1]
    gap = d.alpha * dens.log[0] - log_b
    vals = np.exp(log_b) * np.expm1(gap) * gap * profile.kU_alpha
    return integrate(dens.grid, vals)


def mixed_term(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Signed multiplier term; the only dissipation contribution without a sign."""
    d = profile.data
    vals = (dens.excess[1] * d.beta - dens.excess[0] * d.alpha) * profile.Lambda
    return integrate(dens.grid, vals)


def ramp(r: np.ndarray, alpha: float) -> np.ndarray:
    """Concave comparison map alpha (r^(1/alpha) - 1) used to split the mixed term."""
    return alpha * (r ** (1.0 / alpha) - 1.0)


def split_mixed_term(
    dens: RelativeDensities, profile: ProfileSolution
) -> tuple[float, float]:
    """Split the mixed term into a reaction-controlled and an entropy-controlled part.

    With Psi(r) = alpha (r^(1/alpha) - 1) the first part pairs
    Psi(zeta^beta) - Psi(rho^alpha) with the multiplier; the remainder is
    nonpositive against the Boltzmann entropy up to the flatness number theta.
    Psi(rho^alpha) is alpha (rho - 1), so the rho contribution of the
    remainder vanishes identically and is left out.
    """
    d = profile.data
    if d.alpha <= d.beta:
        raise DomainError("mixed-term split requires alpha > beta")
    a, b = d.alpha, d.beta
    psi_z = ramp(dens.zeta**b, a)
    part1 = integrate(dens.grid, (psi_z - a * dens.excess[0]) * profile.Lambda)
    part2 = integrate(dens.grid, (dens.excess[1] - psi_z / b) * b * profile.Lambda)
    return part1, part2


def hellinger_sq(state: State, profile: ProfileSolution) -> float:
    """Squared Hellinger distance of (u, v) to (U, V); equals E_(1/2) / 2."""
    vals = (np.sqrt(state.uv) - profile.sqrt_UV) ** 2
    return integrate(state.grid, vals[0] + vals[1])


def dissipation_total(
    state: State, profile: ProfileSolution, p_list: tuple[float, ...] = ()
) -> DiagnosticsRecord:
    """Assemble one diagnostics record: the Boltzmann dissipation and its parts.

    The relative densities and their logarithm are formed once and every
    functional is evaluated on them (E_B also serves as E_1, and E_p holds
    each p of ``p_list`` and 1); the profile's own arrays come from its cache.
    The squared Hellinger distance is E_(1/2) / 2 when 1/2 is sampled.
    ``dissipation_residual`` is left NaN for the integrator to fill from
    sampled finite differences.
    """
    d = profile.data
    dens = relative_densities(state, profile)
    E_B = relative_entropy(state, profile, 1.0, dens)
    E_p = {
        q: E_B if q == 1.0 else relative_entropy(state, profile, q, dens)
        for q in dict.fromkeys((*p_list, 1.0))
    }
    I_F = fisher_information(dens, profile)
    D_re = reactive_dissipation(dens, profile)
    I_L = mixed_term(dens, profile)
    if d.alpha > d.beta:
        I_L1, I_L2 = split_mixed_term(dens, profile)
    else:
        I_L1, I_L2 = I_L, 0.0  # the remainder part vanishes identically at equal orders
    total = I_F + 0.5 * E_B - I_L + math.exp(state.tau) * D_re
    return DiagnosticsRecord(
        tau=state.tau,
        E_B=E_B,
        E_p=E_p,
        I_Fisher=I_F,
        D_react=D_re,
        I_Lambda=I_L,
        I_Lambda_1=I_L1,
        I_Lambda_2=I_L2,
        hellinger_sq=0.5 * E_p[0.5] if 0.5 in E_p else hellinger_sq(state, profile),
        D_B_total=total,
    )
