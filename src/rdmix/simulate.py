"""Time integration of the scaled system with per-step positivity enforcement.

One step is an implicit-explicit split: diffusion and drift advance by a
backward-Euler banded solve per species with the boundary values pinned, then
the reaction advances by a pointwise implicit solve with prefactor e^(tau +
dtau).  The local reaction conserves beta u + alpha v, so the per-node solve
reduces to a bracketed scalar Newton iteration on that invariant line; this
keeps both concentrations positive for any step size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import entropy
from .entropy import DiagnosticsRecord, State, relative_densities
from .errors import DomainError, NewtonFailure, PositivityLoss
from .fdops import DriftDiffusionSolver
from .grids import Grid, default_half_width, integrate
from .profile import ProblemData, ProfileSolution, linear_diffusion_profile, solve_profile


@dataclass(frozen=True)
class InitialConditionSpec:
    """How to build (u0, v0) from the profile.

    Perturbations are multiplicative on (U, V), so positivity and the
    asymptotic boundary values survive; ``shifted_erf`` instead evaluates the
    profile at y - center; ``file`` reads nodal u, v columns from a CSV.
    """

    kind: str = "profile_exact"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("profile_exact", "gaussian_bump", "shifted_erf", "file"):
            raise DomainError(f"unknown initial-condition kind {self.kind!r}")
        if self.kind == "gaussian_bump" and self.amplitude <= -1.0:
            raise DomainError("multiplicative amplitude must exceed -1")
        if self.kind == "file" and not self.path:
            raise DomainError("file initial condition needs a path")


@dataclass(frozen=True)
class SimConfig:
    data: ProblemData
    tau_end: float
    grid_n: int = 2001
    grid_half_width: float | None = None
    dtau_initial: float = 1e-3
    dtau_min: float = 1e-9
    dtau_max: float = 1e-2
    sample_interval: float = 0.02
    ic: InitialConditionSpec = InitialConditionSpec()
    p_list: tuple[float, ...] | None = None
    profile_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.dtau_min <= self.dtau_initial <= self.dtau_max):
            raise DomainError(
                "need 0 < dtau_min <= dtau_initial <= dtau_max, got "
                f"({self.dtau_min}, {self.dtau_initial}, {self.dtau_max})"
            )
        if self.tau_end < 0:
            raise DomainError(f"tau_end must be nonnegative, got {self.tau_end}")
        if self.sample_interval <= 0:
            raise DomainError(f"sample_interval must be positive, got {self.sample_interval}")

    def make_grid(self) -> Grid:
        L = self.grid_half_width
        if L is None:
            L = default_half_width(self.data.A_minus, self.data.A_plus)
        return Grid(L, self.grid_n)

    def effective_p_list(self) -> tuple[float, ...]:
        """The sampled entropy families, in order, each once."""
        ps = self.p_list
        if ps is None:
            ps = [1.0, 0.5]
            if self.data.alpha >= 2.0 and self.data.alpha == self.data.beta:
                ps.append(self.data.alpha - 1.0)
        return tuple(dict.fromkeys(ps))


def build_initial_state(config: SimConfig, profile: ProfileSolution) -> State:
    grid, ic, d = profile.grid, config.ic, config.data
    y = grid.nodes
    if ic.kind == "profile_exact":
        u, v = profile.U.copy(), profile.V.copy()
    elif ic.kind == "gaussian_bump":
        bump = 1.0 + ic.amplitude * np.exp(-(((y - ic.center) / ic.width) ** 2))
        u, v = profile.U * bump, profile.V * bump
    elif ic.kind == "shifted_erf":
        u = np.interp(y - ic.center, y, profile.U)
        v = np.interp(y - ic.center, y, profile.V)
    else:  # file
        cols = np.loadtxt(ic.path, delimiter=",", skiprows=1)
        if cols.shape != (grid.n, 3):
            raise DomainError(
                f"initial-condition file must hold {grid.n} rows of y,u,v, got {cols.shape}"
            )
        u, v = cols[:, 1].copy(), cols[:, 2].copy()
    u[0], u[-1] = d.u_minus, d.u_plus
    v[0], v[-1] = d.v_minus, d.v_plus
    if np.min(u) <= 0 or np.min(v) <= 0:
        raise PositivityLoss("initial condition is not positive everywhere")
    state = State(grid, u, v, 0.0)
    if not math.isfinite(entropy.relative_entropy(state, profile, 1.0)):
        raise DomainError("initial condition has infinite relative entropy")
    return state


def _reaction_implicit(
    u: np.ndarray, v: np.ndarray, data: ProblemData, scale: float, max_iter: int = 120
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-Euler reaction solve at every node.

    Solves x = u + scale * alpha (vv^beta - x^alpha) with vv = (m - beta x)/alpha
    and m = beta u + alpha v; the root is unique in (0, m/beta) because the
    residual is strictly increasing there.  Newton steps are safeguarded by
    a bracket [lo, hi] that always holds the root: hi moves only to an
    iterate with a positive residual, lo only to one with a negative
    residual.  A Newton step that lands strictly outside the bracket is
    replaced by its midpoint; one that lands on a bracket end is kept, so a
    node at its root (zero residual, or roundoff) stays there.  Raises
    NewtonFailure if the iterates have not settled after ``max_iter`` steps.
    """
    a, b = data.alpha, data.beta
    m = b * u + a * v
    lo = np.zeros_like(u)
    hi = m / b
    x = np.clip(u, hi * 1e-12, hi * (1.0 - 1e-12))
    f = None
    for _ in range(max_iter):
        vv = (m - b * x) / a
        # x^a and vv^b as x x^(a-1) and vv vv^(b-1): two general powers, not four
        x_a1, vv_b1 = x ** (a - 1.0), vv ** (b - 1.0)
        f = x - u - scale * a * (vv * vv_b1 - x * x_a1)
        np.putmask(hi, f > 0.0, x)
        np.putmask(lo, f < 0.0, x)
        fp = 1.0 + scale * (b * b * vv_b1 + a * a * x_a1)
        xn = x - f / fp
        outside = (xn < lo) | (xn > hi)
        if outside.any():
            np.putmask(xn, outside, 0.5 * (lo + hi))
        # the iterates stay in [0, m/beta], so max |x| is max x
        if np.abs(xn - x).max() <= 1e-15 * (x.max() + 1.0):
            x = xn
            break
        x = xn
    else:
        worst = int(np.argmax(np.abs(f)))
        raise NewtonFailure(worst, float(f[worst]))
    v_new = (m - b * x) / a
    return x, v_new


class _StepWorkspace:
    """Cached banded operators for one (grid, data) pair."""

    def __init__(self, grid: Grid, data: ProblemData):
        self.solver_u = DriftDiffusionSolver(grid, data.d1, data.u_minus, data.u_plus)
        self.solver_v = DriftDiffusionSolver(grid, data.d2, data.v_minus, data.v_plus)


def step(
    state: State, data: ProblemData, dtau: float, workspace: _StepWorkspace | None = None
) -> State:
    """Advance one implicit-explicit step of size dtau.

    Raises PositivityLoss when the diffusion half produces a nonpositive
    value (callers should reject the step and halve dtau).
    """
    if dtau <= 0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    ws = workspace or _StepWorkspace(state.grid, data)
    u = ws.solver_u.step(state.u, dtau)
    v = ws.solver_v.step(state.v, dtau)
    if np.min(u) <= 0.0 or np.min(v) <= 0.0:
        raise PositivityLoss(f"diffusion step produced a nonpositive value at tau={state.tau:.4g}")
    scale = dtau * math.exp(state.tau + dtau) * data.k
    u, v = _reaction_implicit(u, v, data, scale)
    return State(state.grid, u, v, state.tau + dtau)


def fill_dissipation_residuals(
    records: list[DiagnosticsRecord], floor_frac: float = 0.01
) -> None:
    """Centered-difference consistency of the sampled entropy with its dissipation.

    Interior samples get |dE_B/dtau + D_B| over max(|D_B|, |dE/dtau|, floor)
    with floor = floor_frac * max |D_B| over the run; the two end samples stay
    NaN (no centered difference exists there).
    """
    if len(records) < 3:
        return
    taus = np.array([r.tau for r in records])
    E = np.array([r.E_B for r in records])
    D = np.array([r.D_B_total for r in records])
    floor = floor_frac * float(np.max(np.abs(D))) + 1e-300
    for i in range(1, len(records) - 1):
        dE = (E[i + 1] - E[i - 1]) / (taus[i + 1] - taus[i - 1])
        den = max(abs(D[i]), abs(dE), floor)
        records[i].dissipation_residual = abs(dE + D[i]) / den


def _no_rejections() -> dict[str, int]:
    return {"PositivityLoss": 0, "NewtonFailure": 0}


@dataclass
class RunResult:
    records: list[DiagnosticsRecord]
    final_state: State
    profile: ProfileSolution
    steps_accepted: int = 0
    steps_rejected: int = 0
    # rejected steps by the name of the exception that rejected them
    rejected_by_cause: dict[str, int] = field(default_factory=_no_rejections)
    wall_time: float = 0.0


def _march(config: SimConfig, state: State, advance, sample) -> tuple[list, State, int, dict]:
    """The sampling loop and step controller shared by ``run`` and ``run_linear``.

    ``advance(state, dtau)`` returns the next state or raises PositivityLoss
    or NewtonFailure, which rejects the step; ``sample(state)`` makes the
    record of each sample instant.  Returns the records, the final state,
    the accepted step count and the rejected step counts by cause.
    """
    records = [sample(state)]
    dtau = config.dtau_initial
    accepted = 0
    rejected = _no_rejections()
    streak = 0
    sample_idx = 1
    while state.tau < config.tau_end - 1e-12:
        target = min(sample_idx * config.sample_interval, config.tau_end)
        if target - state.tau < 1e-14:
            sample_idx += 1
            continue
        dt = min(dtau, target - state.tau)
        try:
            state = advance(state, dt)
        except (PositivityLoss, NewtonFailure) as exc:
            if dtau <= config.dtau_min:
                raise
            dtau = max(0.5 * dtau, config.dtau_min)
            streak = 0
            rejected["PositivityLoss" if isinstance(exc, PositivityLoss) else "NewtonFailure"] += 1
            continue
        accepted += 1
        streak += 1
        if streak >= 5:
            dtau = min(1.2 * dtau, config.dtau_max)
            streak = 0
        if target - state.tau < 1e-12:
            records.append(sample(state))
            sample_idx += 1
    return records, state, accepted, rejected


def run(config: SimConfig, profile: ProfileSolution | None = None) -> RunResult:
    """March the system to tau_end with adaptive step control and sampling.

    The step is halved on rejection (positivity loss or a reaction solver
    failure), grows by 1.2x after five consecutive accepted steps, and is
    clamped to [dtau_min, dtau_max]; steps land exactly on sample instants.
    """
    t_start = time.perf_counter()
    grid = config.make_grid() if profile is None else profile.grid
    if profile is None:
        profile = solve_profile(config.data, grid, tol=config.profile_tol)
    state = build_initial_state(config, profile)
    if config.tau_end == 0.0:
        return RunResult([], state, profile, wall_time=time.perf_counter() - t_start)

    ws = _StepWorkspace(grid, config.data)
    p_list = config.effective_p_list()

    def advance(st: State, dt: float) -> State:
        return step(st, config.data, dt, ws)

    def sample(st: State) -> DiagnosticsRecord:
        dens = relative_densities(st, profile)
        return entropy.dissipation_total(dens, st, profile, 1.0, p_list)

    records, state, accepted, rejected = _march(config, state, advance, sample)
    fill_dissipation_residuals(records)
    return RunResult(
        records,
        state,
        profile,
        steps_accepted=accepted,
        steps_rejected=sum(rejected.values()),
        rejected_by_cause=rejected,
        wall_time=time.perf_counter() - t_start,
    )


def conserved_moment(state: State, profile: ProfileSolution) -> float:
    """Weighted excess mass int beta (u - U) + alpha (v - V) dy.

    The reaction cancels from its evolution; for equal diffusivities the
    quantity obeys pure drift-diffusion and decays exactly like e^(-tau/2).
    """
    d = profile.data
    return integrate(
        state.grid, d.beta * (state.u - profile.U) + d.alpha * (state.v - profile.V)
    )


@dataclass(frozen=True)
class LinearRecord:
    tau: float
    E_phi: float


def _phi_values(kind: str, z: np.ndarray, p: float) -> np.ndarray:
    if kind == "boltzmann":
        return entropy.lambda_B(z)
    if kind == "quadratic":
        return (z - 1.0) ** 2
    if kind == "power":
        return entropy.F_p(z, p)
    raise DomainError(f"unknown entropy kind {kind!r}")


def run_linear(
    D: float,
    A_minus: float,
    A_plus: float,
    phi_kind: str,
    config: SimConfig,
    p: float = 2.0,
) -> tuple[list[LinearRecord], State]:
    """Integrate the scaled single-species diffusion equation and sample E_phi.

    The initial datum is the linear profile plus an additive Gaussian bump of
    the configured amplitude; the state pair is (u, u) so the State container
    can be reused.  Steps follow the same adaptive controller as ``run``.
    """
    grid = config.make_grid()
    y = grid.nodes
    U = linear_diffusion_profile(D, A_minus, A_plus, grid)
    ic = config.ic
    u = U + ic.amplitude * np.exp(-(((y - ic.center) / ic.width) ** 2))
    u[0], u[-1] = A_minus, A_plus
    if np.min(u) <= 0 or np.min(U) <= 0:
        raise PositivityLoss("linear run needs positive profile and initial datum")
    solver = DriftDiffusionSolver(grid, D, A_minus, A_plus)

    def advance(st: State, dt: float) -> State:
        u_new = solver.step(st.u, dt)
        if np.min(u_new) <= 0.0:
            raise PositivityLoss(f"diffusion step went nonpositive at tau={st.tau:.4g}")
        return State(grid, u_new, u_new, st.tau + dt)

    def sample(st: State) -> LinearRecord:
        return LinearRecord(st.tau, integrate(grid, _phi_values(phi_kind, st.u / U, p) * U))

    records, state, _, _ = _march(config, State(grid, u, u, 0.0), advance, sample)
    return records, State(grid, state.u, state.u.copy(), state.tau)
