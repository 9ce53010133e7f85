"""Relative entropies and dissipation functionals for states against a profile.

Pointwise generators: the Boltzmann function z log z - z + 1, the power family
F_p with F_p'' = z^(p-2) and F_p(1) = F_p'(1) = 0, their convex conjugates in
closed form, and the nonnegative reaction pairing (a - b)(log a - log b).
Functionals are trapezoid quadratures on the shared grid, with relative
densities rho = u/U and zeta = v/V.  Entropies E_p are evaluated for any p;
the dissipation is decomposed for the Boltzmann entropy (p = 1) alone.

F_p is free of cancellation near z = 1 only at p = 1/2; elsewhere it loses
digits like 1/|z - 1|, and near p = 1 it divides no cancelled difference by
p - 1 (see its docstring).  Each integrand is written once, in place into a
row given to it, and serves both its public functional and the diagnostics
sample.  A ``RelativeDensities`` holds rho, zeta, their logarithm and their
excess over 1 of a block of states, formed once per block: the entropies and
the reaction pairing share the logarithm (log a - log b = alpha log rho - beta
log zeta), and the Fisher information and the mixed term share the excess.  An
integrand writes one row per state of the block.  One diagnostics sample
(``dissipation_total``) of a block of states refills one such object per run,
writes every integrand into the rows of its table and integrates the table in
one call; a public functional takes a block of one.
The squared Hellinger distance has one definition, E_(1/2) / 2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fdops import Grid, check_values, diff1, integrate
from .profile import ProfileSolution

# densities below this are treated as on the axis of the reaction pairing,
# where the pairing is infinite; simulation enforces positivity, so hitting
# the clamp is a diagnostic failure rather than a value.
_DENSITY_CLAMP = 1e-300


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


class RelativeDensities:
    """rho = u/U and zeta = v/V of a block of states over a profile, and their functionals' scratch.

    ``fill`` writes the densities of m states into ``both``, a (2, m, n) array whose
    rows [0, i] and [1, i] are rho and zeta of state i, their smallest value into
    ``lowest``, their logarithm into ``log`` (NaN unless ``lowest`` > 0) and their
    excess over 1 into ``excess``.  A functional that treats the two species alike
    evaluates both species of every state in one pass, the profile's (2, n) arrays
    broadcast as (2, 1, n), and adds the species before its quadrature.  The
    integrands write into ``scratch`` (two (2, m, n) arrays) and ``table`` rows,
    never into those four.  Every array is a view of a flat buffer that the object
    owns, sized for the largest block it has held, so one object refilled per block
    serves every block of at most that many states without a new array.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.lowest = math.nan
        self._flat, self._table, self._totals = np.empty(0), np.empty(0), np.empty(0)

    @property
    def rho(self) -> np.ndarray:
        return self.both[0]

    @property
    def zeta(self) -> np.ndarray:
        return self.both[1]

    def fill(self, states: Sequence[State], profile: ProfileSolution) -> RelativeDensities:
        """Overwrite every field with the densities of ``states`` over ``profile``, in order."""
        if not all(state.grid == profile.grid == self.grid for state in states):
            raise DomainError("state, profile and densities must share one grid")
        shape = (5, 2, len(states), self.grid.n)
        size = math.prod(shape)
        if len(self._flat) < size:
            self._flat = np.empty(size)
        block = self._flat[:size].reshape(shape)
        self.both, self.log, self.excess, self.scratch = block[0], block[1], block[2], block[3:]
        for i, state in enumerate(states):
            np.divide(state.u, profile.U, out=self.both[0, i])
            np.divide(state.v, profile.V, out=self.both[1, i])
        self.lowest = float(self.both.min())
        if self.lowest > 0.0:
            np.log(self.both, out=self.log)
        else:  # no functional reads it: F_p takes its zero branch, the pairing raises
            self.log.fill(math.nan)
        np.subtract(self.both, 1.0, out=self.excess)
        return self

    def table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """A (k, m, n) table, one row per integrand and state, and k m floats for its integrals.

        The buffers are reused while they are large enough.
        """
        _, m, n = self.both.shape
        if len(self._totals) < k * m:
            self._table, self._totals = np.empty(k * m * n), np.empty(k * m)
        return self._table[:k * m * n].reshape(k, m, n), self._totals[:k * m]


def relative_densities(state: State, profile: ProfileSolution) -> RelativeDensities:
    """``state``'s densities over ``profile`` in a new ``RelativeDensities``, a block of one."""
    return RelativeDensities(state.grid).fill((state,), profile)


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
        out = _F_p_into(np.empty(z.shape), np.empty(z.shape), p, z, None, z - 1.0)
    elif z_min == 0.0:  # F_p(0) = 1/p for p > 0; the forms below take log z elsewhere
        out = np.where(z > 0.0, F_p(np.where(z > 0.0, z, 1.0), p), 1.0 / p)
    else:
        log_z = np.log(z) if log_z is None else log_z
        out = _F_p_into(np.empty(z.shape), np.empty(z.shape), p, z, log_z, None)
    return out if out.ndim else float(out)


def _F_p_into(out: np.ndarray, tmp: np.ndarray, p: float, z: np.ndarray,
              log_z: np.ndarray | None, excess: np.ndarray | None) -> np.ndarray:
    """``F_p``'s forms at z > 0 into ``out``, with ``tmp`` as scratch of z's shape.

    ``excess`` = z - 1 is read at p = 1/2 alone, ``log_z`` = log z at every other p.
    """
    if p == 0.5:
        np.sqrt(z, out=tmp)
        tmp += 1.0
        np.divide(excess, tmp, out=out)
        out **= 2
        out *= 2.0
    elif p == 1.0:
        np.multiply(z, log_z, out=out)
        out -= z
        out += 1.0
    elif p == 0.0:
        np.subtract(z, log_z, out=out)
        out -= 1.0
    else:
        q = p - 1.0
        np.expm1(log_z, out=tmp)
        if p < 0.5:  # expm1(p l) - p expm1(l)
            np.multiply(log_z, p, out=out)
            np.expm1(out, out=out)
            tmp *= p
        else:  # z expm1(q l) - q expm1(l)
            np.multiply(log_z, q, out=out)
            np.expm1(out, out=out)
            out *= z
            tmp *= q
        out -= tmp
        out /= p * q
    return out


def F_p_conjugate(zeta: float, p: float) -> float:
    """Legendre transform sup_z (zeta z - F_p(z)), in closed form.

    Solving F_p'(z) = zeta gives ((1 + (p-1) zeta)^(p/(p-1)) - 1) / p, taken as
    expm1 of a log1p, with the limits expm1(zeta) at p = 1 and -log1p(-zeta) at
    p = 0; for p > 1 it is -1/p (the maximiser z = 0) where zeta <= -1/(p-1).
    DomainError for p < 1 and zeta >= 1/(1-p); inf past the float range.
    """
    if p < 1.0 and zeta >= 1.0 / (1.0 - p):
        raise DomainError(f"conjugate of F_p is finite only for zeta < {1/(1-p):g}, got {zeta}")
    t = (p - 1.0) * zeta
    if p > 1.0 and t <= -1.0:
        return -1.0 / p
    if p == 0.0:
        return -math.log1p(t)
    try:
        return math.expm1(zeta) if p == 1.0 else math.expm1(p / (p - 1.0) * math.log1p(t)) / p
    except OverflowError:  # only p > 0 reaches past the float range, upward
        return math.inf


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


def _entropy_integrand(dens: RelativeDensities, profile: ProfileSolution, p: float,
                       out: np.ndarray) -> np.ndarray:
    """U F_p(rho) + V F_p(zeta) into ``out``."""
    if dens.lowest > 0.0:
        F = _F_p_into(*dens.scratch, p, dens.both, dens.log, dens.excess)
    else:  # F_p's branch at a zero density, or its DomainError
        F = F_p(dens.both, p, dens.lowest)
    np.multiply(profile.UV[:, None], F, out=F)
    return np.add(F[0], F[1], out=out)


def _fisher_integrand(dens: RelativeDensities, profile: ProfileSolution,
                      out: np.ndarray) -> np.ndarray:
    """d1 U rho_y^2 / rho + d2 V zeta_y^2 / zeta into ``out``."""
    both = _clamped(dens)
    # the derivative of the excess over 1: the banded D1 of an all-ones row is roundoff, not 0
    vals = diff1(dens.grid, dens.excess, out=dens.scratch[0])
    vals **= 2
    np.multiply(profile.d_UV[:, None], vals, out=vals)
    vals /= both
    return np.add(vals[0], vals[1], out=out)


def _reaction_integrand(dens: RelativeDensities, profile: ProfileSolution,
                        out: np.ndarray) -> np.ndarray:
    """k U^alpha (a - b)(log a - log b), a = rho^alpha and b = zeta^beta, into ``out``."""
    d = profile.data
    _clamped(dens)  # the pairing is infinite on the axes
    # from the shared logs: log a - log b = alpha log rho - beta log zeta, and
    # a - b = b expm1(log a - log b), which does not cancel where a is near b
    log_b, gap = dens.scratch[0]
    np.multiply(dens.log[1], d.beta, out=log_b)
    np.multiply(dens.log[0], d.alpha, out=gap)
    gap -= log_b
    np.expm1(gap, out=out)
    np.multiply(np.exp(log_b, out=log_b), out, out=out)
    out *= gap
    out *= profile.kU_alpha
    return out


def _mixed_integrand(dens: RelativeDensities, profile: ProfileSolution,
                     out: np.ndarray) -> np.ndarray:
    """(beta (zeta - 1) - alpha (rho - 1)) Lambda into ``out``."""
    d = profile.data
    np.multiply(dens.excess[1], d.beta, out=out)
    out -= np.multiply(dens.excess[0], d.alpha, out=dens.scratch[0, 0])
    out *= profile.Lambda
    return out


def _split_integrands(dens: RelativeDensities, profile: ProfileSolution,
                      out: np.ndarray) -> np.ndarray:
    """The reaction- and entropy-controlled parts of the mixed term into the rows of ``out``."""
    d = profile.data
    if d.alpha <= d.beta:
        raise DomainError("mixed-term split requires alpha > beta")
    a, b = d.alpha, d.beta
    psi_z, t = dens.scratch[0]
    np.copyto(psi_z, dens.zeta)
    psi_z **= b
    ramp(psi_z, a, out=psi_z)
    np.subtract(psi_z, np.multiply(dens.excess[0], a, out=t), out=out[0])
    out[0] *= profile.Lambda
    np.subtract(dens.excess[1], np.divide(psi_z, b, out=t), out=out[1])
    out[1] *= b
    out[1] *= profile.Lambda
    return out


def relative_entropy(
    state: State,
    profile: ProfileSolution,
    p: float = 1.0,
    dens: RelativeDensities | None = None,
) -> float:
    """E_p = integral of U F_p(u/U) + V F_p(v/V); ``dens`` may pass the state's densities."""
    if dens is None:
        dens = relative_densities(state, profile)
    F = _entropy_integrand(dens, profile, p, np.empty((1, dens.grid.n)))
    return integrate(state.grid, F[0])


def fisher_information(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Gradient dissipation: integral of d1 U rho_y^2 / rho + d2 V zeta_y^2 / zeta."""
    return integrate(dens.grid, _fisher_integrand(dens, profile, np.empty((1, dens.grid.n)))[0])


def reactive_dissipation(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Reaction dissipation: integral of k U^alpha times the pairing of rho^alpha and zeta^beta."""
    return integrate(dens.grid, _reaction_integrand(dens, profile, np.empty((1, dens.grid.n)))[0])


def mixed_term(dens: RelativeDensities, profile: ProfileSolution) -> float:
    """Signed multiplier term; the only dissipation contribution without a sign."""
    return integrate(dens.grid, _mixed_integrand(dens, profile, np.empty((1, dens.grid.n)))[0])


def ramp(r: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """Concave comparison map alpha (r^(1/alpha) - 1) used to split the mixed term.

    ``out`` may pass an array of r's shape for the result, r itself included.
    """
    if out is None:
        out = np.array(r, dtype=float)
    elif out is not r:
        np.copyto(out, r)
    out **= 1.0 / alpha
    out -= 1.0
    out *= alpha
    return out if out.ndim else float(out)


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
    parts = _split_integrands(dens, profile, np.empty((2, 1, dens.grid.n)))
    return integrate(dens.grid, parts[0, 0]), integrate(dens.grid, parts[1, 0])


def hellinger_sq(state: State, profile: ProfileSolution) -> float:
    """Squared Hellinger distance of (u, v) to (U, V), defined as E_(1/2) / 2."""
    return 0.5 * relative_entropy(state, profile, 0.5)


def dissipation_total(
    states: Sequence[State],
    profile: ProfileSolution,
    p_list: tuple[float, ...] = (),
    workspace: RelativeDensities | None = None,
) -> list[DiagnosticsRecord]:
    """The diagnostics records of ``states``, in order: the Boltzmann dissipation and its parts.

    The relative densities of the block, their logarithm and their excess are formed
    once, in ``workspace`` (refilled in place; a new ``RelativeDensities`` if None),
    and every integrand is written once for all the states, as one row per state of
    its table: E_p for each p of ``p_list`` and 1 (E_B is E_1), E_(1/2) when 1/2 is
    not among them, then the Fisher information, the reaction pairing, the mixed term
    and, when alpha > beta, the two parts of its split.  One quadrature integrates
    every row, with the bits of each functional called alone on its state; the
    profile's own arrays come from its cache.  The squared Hellinger distance is
    E_(1/2) / 2.  ``dissipation_residual`` is left NaN for the integrator to fill
    from sampled finite differences.

    DomainError where a state or the profile is on another grid than the workspace,
    where an integral is not finite, or where e^tau D_react or the assembled
    D_B_total is not.  A block that raises is sampled again one state at a time, in
    order, so the error is the one the first failing state raises alone.
    """
    dens = RelativeDensities(profile.grid) if workspace is None else workspace
    ps = tuple(dict.fromkeys((*p_list, 1.0)))
    try:
        return _sample_block(states, profile, ps, dens)
    except Exception:  # a DomainError, or a numpy float warning raised as an error
        if len(states) == 1:
            raise
    return [record for state in states for record in _sample_block((state,), profile, ps, dens)]


def _sample_block(states: Sequence[State], profile: ProfileSolution, ps: tuple[float, ...],
                  dens: RelativeDensities) -> list[DiagnosticsRecord]:
    """``dissipation_total`` of ``states`` in one pass over the block, E_p for each p of ``ps``."""
    d = profile.data
    dens.fill(states, profile)
    entropies = ps if 0.5 in ps else (*ps, 0.5)
    k = len(entropies)
    table, totals = dens.table(k + (5 if d.alpha > d.beta else 3))
    for p, row in zip(entropies, table):
        _entropy_integrand(dens, profile, p, row)
    _fisher_integrand(dens, profile, table[k])
    _reaction_integrand(dens, profile, table[k + 1])
    _mixed_integrand(dens, profile, table[k + 2])
    if d.alpha > d.beta:
        _split_integrands(dens, profile, table[k + 3:])
    integrate(dens.grid, table.reshape(-1, dens.grid.n), out=totals)
    records = []
    for state, values in zip(states, totals.reshape(-1, len(states)).T.tolist()):
        E_p = dict(zip(ps, values))
        I_F, D_re, I_L, *split = values[k:]
        I_L1, I_L2 = split or (I_L, 0.0)  # the remainder part vanishes identically at equal orders
        try:
            total = I_F + 0.5 * E_p[1.0] - I_L + math.exp(state.tau) * D_re
        except OverflowError:  # e^tau past the float range
            total = math.inf
        if not math.isfinite(total):
            raise DomainError(f"D_B_total is not finite at tau = {state.tau} (D_react = {D_re})")
        records.append(DiagnosticsRecord(
            tau=state.tau,
            E_B=E_p[1.0],
            E_p=E_p,
            I_Fisher=I_F,
            D_react=D_re,
            I_Lambda=I_L,
            I_Lambda_1=I_L1,
            I_Lambda_2=I_L2,
            hellinger_sq=0.5 * values[entropies.index(0.5)],
            D_B_total=total,
        ))
    return records
