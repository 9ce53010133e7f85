"""Time integration of the scaled system with per-step positivity enforcement.

One step is a rebalanced splitting of two backward-Euler halves (Speth, Green,
MacNamara & Strang, SIAM J. Numer. Anal. 51 (2013) 3084-3105): a drift-diffusion
half, one block-banded solve over both species with the boundary values
pinned (the species couple only through the reaction, so their bands lie
side by side), then a reaction half, a pointwise implicit solve with
prefactor e^(tau + dtau).  A balancing rate c per species and node, carried
from step to step, enters the first half as + dtau c and leaves the second as
- dtau c, and is then set from the two halves' increments.  At a fixed point
c = -D w = R(w), so D w + R(w) = 0: its combination beta u + alpha v is the
discrete reduced equation that ``solve_profile`` solves with the same stencils,
and once e^tau k is large the solved profile is a fixed point of the step to
within the solver tolerance, at any diffusivities.  With c = 0 a step is a Lie
step, whose steady state lies O(dtau) off the profile when d1 != d2.

The local reaction conserves beta u + alpha v, so the per-node solve reduces to
a scalar equation on that invariant line whose root keeps both concentrations
positive for any step size.  At orders of at most 2 it is a quadratic, and at
(3, 1), (3, 3) and (4, 4) a cubic with one real root, solved in closed form; at
other orders a bracketed Newton iteration, warm-started within a run, solves it
and stops on a proven error bound.

Each half works on one (2, n) array, a row per species, and ``step`` checks
it once: the state is copied into one array, checked finite, shifted by dtau c
into a buffer, stepped in place by one ``DriftDiffusionSolver.step`` (which
checks only its layout), shifted back and tested positive; the reaction writes
x and v into the rows of a new array, which the stepped ``State`` holds, and
the rate is updated in place from the three.  The input ``State`` is never
written.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import entropy
from .entropy import DiagnosticsRecord, State
from .errors import DomainError, NewtonFailure, ParseError, PositivityLoss
from .fdops import DriftDiffusionSolver, Grid, default_grid, integrate, scalar_residual
from .profile import ProblemData, ProfileSolution, solve_profile


def _require_finite(obj, *names: str) -> None:
    """DomainError naming the first of the fields ``names`` of ``obj`` that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise DomainError(f"{name} must be finite, got {getattr(obj, name)}")


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
        _require_finite(self, "amplitude", "width", "center")
        if self.width == 0.0:
            raise DomainError("initial-condition width must be nonzero")
        if self.kind == "gaussian_bump" and self.amplitude <= -1.0:
            raise DomainError("multiplicative amplitude must exceed -1")
        if self.kind == "file" and not self.path:
            raise DomainError("file initial condition needs a path")


@dataclass(frozen=True)
class SimConfig:
    data: ProblemData
    tau_end: float
    grid_n: int | None = None
    grid_half_width: float | None = None
    dtau_initial: float = 1e-3
    dtau_min: float = 1e-9
    dtau_max: float = 2e-2
    sample_interval: float = 0.02
    ic: InitialConditionSpec = InitialConditionSpec()
    p_list: tuple[float, ...] | None = None
    profile_tol: float = 1e-8

    def __post_init__(self):
        _require_finite(self, "tau_end", "dtau_max", "sample_interval", "profile_tol")
        if not (0 < self.dtau_min <= self.dtau_initial <= self.dtau_max):
            raise DomainError(
                "need 0 < dtau_min <= dtau_initial <= dtau_max, got "
                f"({self.dtau_min}, {self.dtau_initial}, {self.dtau_max})"
            )
        if self.tau_end < 0:
            raise DomainError(f"tau_end must be nonnegative, got {self.tau_end}")
        try:  # a step ending at tau_end scales its reaction by e^(tau_end + dtau) at most
            math.exp(self.tau_end + self.dtau_max)
        except OverflowError:
            raise DomainError(f"tau_end = {self.tau_end} overflows the reaction prefactor e^tau")
        if self.sample_interval <= 0:
            raise DomainError(f"sample_interval must be positive, got {self.sample_interval}")
        if not all(map(math.isfinite, self.p_list or ())):
            raise DomainError(f"entropy families must be finite, got {self.p_list}")
        labels: dict[str, float] = {}  # every output names a family by {p:g}
        for p in (1.0, *self.effective_p_list()):
            other = labels.setdefault(f"{p:g}", p)
            if other != p:
                raise DomainError(
                    f"entropy families {other!r} and {p!r} share the output label {p:g}")
        if self.profile_tol <= 0:
            raise DomainError(f"profile_tol must be positive, got {self.profile_tol}")
        self.make_grid()  # Grid checks the half-width and that the point count is odd and >= 5

    def make_grid(self) -> Grid:
        """The grid of ``grid_half_width`` and ``grid_n``, each from ``default_grid`` if None."""
        d = self.data
        ends = ((d.u_minus, d.u_plus), (d.v_minus, d.v_plus))
        return default_grid(d.d1, d.d2, ends, self.grid_half_width, self.grid_n)

    def effective_p_list(self) -> tuple[float, ...]:
        """The sampled entropy families, in order, each once."""
        ps = self.p_list
        if ps is None:
            ps = [1.0, 0.5]
            if self.data.alpha >= 2.0 and self.data.alpha == self.data.beta:
                ps.append(self.data.alpha - 1.0)
        return tuple(dict.fromkeys(ps))


def _read_ic_file(path: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The u and v columns of an n-row y,u,v CSV; a ParseError naming ``ic.path`` if at fault."""
    try:
        cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or a ragged row
        raise ParseError(0, "ic.path", f"{path}: {exc}")
    if cols.shape != (n, 3):
        fault = f"must hold {n} rows of y,u,v, got shape {cols.shape}"
    elif not (np.isfinite(cols[:, 1:]).all() and cols[:, 1:].min() > 0.0):
        fault = "u and v must be finite and positive"
    else:
        return cols[:, 1].copy(), cols[:, 2].copy()
    raise ParseError(0, "ic.path", f"{path}: {fault}")


def build_initial_state(config: SimConfig, profile: ProfileSolution) -> State:
    grid, ic, d = profile.grid, config.ic, config.data
    y = grid.nodes
    if ic.kind == "profile_exact":
        u, v = profile.U.copy(), profile.V.copy()
    elif ic.kind == "gaussian_bump":
        # a tiny width overflows the scaled distance to inf, where the Gaussian is 0
        with np.errstate(over="ignore"):
            bump = 1.0 + ic.amplitude * np.exp(-(((y - ic.center) / ic.width) ** 2))
        u, v = profile.U * bump, profile.V * bump
    elif ic.kind == "shifted_erf":
        u = np.interp(y - ic.center, y, profile.U)
        v = np.interp(y - ic.center, y, profile.V)
    else:  # file
        u, v = _read_ic_file(ic.path, grid.n)
    u[0], u[-1] = d.u_minus, d.u_plus
    v[0], v[-1] = d.v_minus, d.v_plus
    state = State(grid, u, v, 0.0)
    with np.errstate(over="ignore"):  # an E_B past the float range is integrate's DomainError
        entropy.relative_entropy(state, profile, 1.0)
    return state


def _reaction_implicit(
    u: np.ndarray, v: np.ndarray, data: ProblemData, scale: float, max_iter: int = 120,
    guess: np.ndarray | None = None, counts: dict[str, int] | None = None,
) -> np.ndarray:
    """Backward-Euler reaction solve at every node; the rows of the result are x and v.

    Solves x = u + scale * alpha (vv^beta - x^alpha) with vv = (m - beta x)/alpha
    and m = beta u + alpha v; the residual f has f' >= 1, so the root is unique
    in (0, m/beta).  Newton starts from ``guess`` (default u) clipped into that
    open bracket and is safeguarded by a bracket [lo, hi] that always holds the
    root: hi moves only to an iterate with a positive residual, lo only to one
    with a negative residual.  A Newton step that lands strictly outside the
    bracket is replaced by its midpoint; one that lands on a bracket end is
    kept, so a node at its root (zero residual, or roundoff) stays there.

    After a pure Newton step dx, f(x + dx) = f''(xi) dx^2 / 2 and f' >= 1 bound
    the error of x + dx by M dx^2 / 2, M a bound of |f''| on the step.  With
    tol = 1e-15 (max x + 1), the iteration stops once that bound is within tol / 2
    at every node (the other half is left to roundoff) or the step is within tol
    (the only test after a midpoint replacement).  ``counts`` sums iterations and
    midpoint replacements; NewtonFailure is raised after ``max_iter`` iterations.
    """
    a, b = data.alpha, data.beta
    m = b * u + a * v
    lo = np.zeros_like(u)
    hi = m / b
    x = u if guess is None else guess
    x = np.minimum(np.maximum(x, hi * 1e-12), hi * (1.0 - 1e-12))  # np.clip at half its cost
    sa2, sb2 = scale * a * a, scale * b * b
    # f'' = scale (g1 - g2) with g1 = c1 x^(a-2) and g2 = c2 vv^(b-2), each monotone
    # in x; an order of 1 (zero coefficient) or 2 (zero exponent) makes its g constant
    c1, c2 = a * a * (a - 1.0), b**3 * (b - 1.0) / a

    def at(x, vv):  # x^(a-1), vv^(b-1), g1 and g2 at the iterate x
        x_a1, vv_b1 = x ** (a - 1.0), vv ** (b - 1.0)
        g1 = c1 if a in (1.0, 2.0) else c1 * x_a1 / x
        return x_a1, vv_b1, g1, c2 if b in (1.0, 2.0) else c2 * vv_b1 / vv

    vv = (m - b * x) / a
    x_a1, vv_b1, g1, g2 = at(x, vv)
    done, fallbacks = False, 0
    for it in range(1, max_iter + 1):
        # x^a and vv^b as x x^(a-1) and vv vv^(b-1): two general powers, not four
        f = x - u - scale * a * (vv * vv_b1 - x * x_a1)
        np.putmask(hi, f > 0.0, x)
        np.putmask(lo, f < 0.0, x)
        out = np.empty((2, len(u)))  # this iterate's x and vv
        xn, vn = out
        np.subtract(x, f / (1.0 + sb2 * vv_b1 + sa2 * x_a1), out=xn)
        outside = (xn < lo) | (xn > hi)
        replaced = np.count_nonzero(outside)
        if replaced:
            np.putmask(xn, outside, 0.5 * (lo + hi))
            fallbacks += replaced
        dx = xn - x
        # the iterates stay in [0, m/beta], so max |x| is max x
        tol = 1e-15 * (x.max() + 1.0)
        np.divide(m - b * xn, a, out=vn)
        x, vv = xn, vn
        # each g is monotone, so its values at the step's ends bound |f''| / scale by M
        x_a1, vv_b1, h1, h2 = at(x, vv)
        M = np.maximum(np.maximum(g1, h1) - np.minimum(g2, h2),
                       np.maximum(g2, h2) - np.minimum(g1, h1))
        g1, g2 = h1, h2
        bounded = not replaced and 0.5 * scale * (M * dx * dx).max() <= 0.5 * tol
        done = bounded or np.abs(dx).max() <= tol
        if done:
            break
    if counts is not None:
        counts["reaction_newton_iterations"] += it
        counts["reaction_midpoint_fallbacks"] += fallbacks
    if not done:
        worst = int(np.argmax(np.abs(f)))
        raise NewtonFailure(worst, float(f[worst]))
    return out


def _reaction_exact(u: np.ndarray, v: np.ndarray, data: ProblemData, scale: float):
    """The root of ``_reaction_implicit``'s residual in closed form, rows x, v; or None.

    The orders (alpha, beta) with a closed form are (1, 1), (2, 2), (2, 1), (3, 1), (3, 3)
    and (4, 4); at any other order the result is None, whatever the scale.

    With s = scale, r = 1/(1 + s) and w = s r, every coefficient is divided by 1 + s to
    stay finite.  At orders <= 2 the residual is a quadratic A x^2 + B x - C: (A, B, C)
    is (0, 1 + 2s, u + s m) at (1, 1), (0, 1 + 2 s m, u + s m^2/2) at (2, 2) and
    (2s, 1 + s, u + s m) at (2, 1); the root 2C / (B + sqrt(B^2 + 4AC)) adds positive
    terms only.  The other orders give a cubic x^3 + P x = Q with P > 0, whose one real
    root is 2 rho sinh(asinh(3 Q / (2 P rho)) / 3) with rho = sqrt(P / 3):

    - (3, 1): 3 w x^3 + x = r u + w m, so x = 2 sinh(asinh(t) / 3) / (3 sqrt w) with
      t = 4.5 sqrt(w) (r u + w m).
    - (3, 3) and (4, 4): with c = u + v, x = (c - z)/2 and v+ = (c + z)/2, and
      vv^a - x^a = z (3c^2 + z^2)/4 at a = 3, z c (c^2 + z^2)/2 at a = 4.  So
      k3 z^3 + k1 z = r (v - u), with (k3, k1) = (1.5 w, r + 4.5 w c^2) at (3, 3) and
      (4 w c, r + 4 w c^3) at (4, 4).  As z q = r (v - u) with q = k3 z^2 + k1, the
      smaller species, x where z >= 0, is (c (q - r) + 2 r min(u, v)) / (2q), a sum of
      positive terms; the larger is c minus it.  k3 is kept at least 1e-300 k1, so
      rho stays finite where w c underflows: the cubic term it adds is below roundoff.

    A zero scale (k dtau underflowed) leaves (u, v) as they are.
    """
    a, b = data.alpha, data.beta
    if (a, b) not in ((1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (3.0, 1.0), (3.0, 3.0), (4.0, 4.0)):
        return None
    if scale == 0.0:
        return np.array((u, v))
    r = 1.0 / (1.0 + scale)
    w = scale * r  # s / (1 + s)
    if a == b >= 3.0:
        c = u + v
        k3, k1_r = (1.5 * w, 4.5 * w * c * c) if a == 3.0 else (4.0 * w * c, 4.0 * w * c * c * c)
        k1 = r + k1_r
        rho = np.sqrt(k1 / (3.0 * np.maximum(k3, 1e-300 * k1)))
        z = 2.0 * rho * np.sinh(np.arcsinh(1.5 * r * (v - u) / (k1 * rho)) / 3.0)
        q_r = k3 * z * z + k1_r  # q - r
        small = (c * q_r + 2.0 * r * np.minimum(u, v)) / (2.0 * (q_r + r))
        large = c - small
        return np.where(z >= 0.0, (small, large), (large, small))
    m = b * u + a * v
    out = np.empty((2, len(u)))
    x = out[0]
    if a == 3.0:  # (3, 1)
        root_w = math.sqrt(w)
        t = 4.5 * root_w * (r * u + w * m)
        np.multiply(np.sinh(np.arcsinh(t) / 3.0), 2.0 / (3.0 * root_w), out=x)
    elif b == 1.0 and a == 2.0:  # B / (1 + s) = 1
        c = r * u + w * m
        np.divide(2.0 * c, 1.0 + np.sqrt(1.0 + 8.0 * w * c), out=x)
    elif a == 1.0:
        np.divide(r * u + w * m, r + 2.0 * w, out=x)
    else:
        np.divide(r * u + 0.5 * w * m * m, r + 2.0 * w * m, out=x)
    np.divide(m - b * x, a, out=out[1])
    return out


class _StepWorkspace:
    """Cached banded operators for one (grid, data) pair, and what one run's steps carry."""

    def __init__(self, grid: Grid, data: ProblemData):
        self.solver = DriftDiffusionSolver(
            grid, (data.d1, data.d2), (data.u_minus, data.v_minus), (data.u_plus, data.v_plus))
        self.increment = np.zeros(grid.n)  # x - u of the last reaction solve: the warm start
        # the balancing rate c of each species, zero at the pinned ends; zero is the Lie step
        self.rate = np.zeros((2, grid.n))
        self.counts = {"reaction_newton_iterations": 0, "reaction_midpoint_fallbacks": 0}


def _balancing_rate(state: State, data: ProblemData) -> np.ndarray:
    """The seed c0 = (R(w) - D w) / 2 of the balancing rate at ``state``, rows u and v.

    R is the reaction at the state's tau, k e^tau (alpha (v^beta - u^alpha),
    beta (u^alpha - v^beta)), and D w the drift-diffusion d D2 w + (y/2) D1 w of
    each row with ``fdops.operators``' stencils.  Both ends are 0.  At a fixed
    point of the step c = R(w) = -D w, so the seed is exact there.
    """
    w = np.array((state.u, state.v))
    r = data.k * math.exp(state.tau) * (state.u**data.alpha - state.v**data.beta)
    rate = np.array((-data.alpha * r, data.beta * r))
    rate -= scalar_residual(state.grid, np.array((data.d1, data.d2))[:, None] * w, w)
    rate *= 0.5
    rate[:, 0] = rate[:, -1] = 0.0
    return rate


def step(
    state: State, data: ProblemData, dtau: float, workspace: _StepWorkspace | None = None
) -> State:
    """Advance one rebalanced splitting step of size dtau: drift-diffusion, then reaction.

    With w the state, h = dtau and c the workspace's balancing rate, the drift-diffusion
    half solves (I - h D) w_A = w + h c, and the reaction half starts from w_A - h c.
    The reaction root, exact at the orders that ``_reaction_exact`` names, elsewhere a
    Newton solve started from its input plus the workspace's last increment x - u
    (zero, a cold start, without a workspace or in a fresh one), fills the rows of the
    stepped ``State`` w+.  Then c = ((w+ + w)/2 - (w_A - h c)) / h, zero at the ends.
    Without a workspace, or in a fresh one, c = 0 and the step is a Lie step.
    Raises PositivityLoss (a reaction input w_A - h c that is not positive, one
    minimum over both rows) or NewtonFailure, on which callers should reject the step
    and halve dtau: ``state`` is never written, and c and the warm start change only
    when the step returns, so the retry starts from where the rejected step did.
    DomainError unless 0 < dtau < inf, unless ``state`` is finite and, as ``State``
    would, unless the result is finite and positive (one minimum and one maximum).
    """
    if not 0.0 < dtau < math.inf:
        raise DomainError(f"dtau must be positive and finite, got {dtau}")
    ws = workspace or _StepWorkspace(state.grid, data)
    w = np.array((state.u, state.v))
    if not np.isfinite(w).all():
        raise DomainError("state concentrations must be finite nodewise")
    h_rate = dtau * ws.rate
    buf = w + h_rate
    ws.solver.step(buf, dtau)
    buf -= h_rate  # the reaction input w_A - h c
    if not buf.min() > 0.0:  # a NaN fails this test too
        raise PositivityLoss(f"reaction input w_A - dtau c is not positive at tau={state.tau:.4g}")
    u, v = buf
    scale = dtau * math.exp(state.tau + dtau) * data.k
    out = _reaction_exact(u, v, data, scale)
    increment = ws.increment
    if out is None:
        out = _reaction_implicit(u, v, data, scale, guess=u + increment, counts=ws.counts)
        increment = out[0] - u
    if not (out.min() > 0.0 and out.max() < math.inf):
        raise DomainError("state concentrations must be finite and positive nodewise")
    ws.increment = increment
    rate = ws.rate
    # c = (w+ + w - 2 (w_A - h c)) / (2 h), into the array that held c
    np.add(out, w, out=rate)
    buf *= 2.0
    rate -= buf
    rate *= 0.5 / dtau
    rate[:, 0] = rate[:, -1] = 0.0
    return State.trusted(state.grid, out[0], out[1], state.tau + dtau)


def fill_dissipation_residuals(records: list[DiagnosticsRecord]) -> None:
    """Centered-difference consistency of the sampled entropy with its dissipation.

    Interior samples get |dE_B/dtau + D_B| over max(|D_B|, |dE/dtau|, floor)
    with floor = 0.01 max |D_B| over the run; the two end samples stay NaN
    (no centered difference exists there).
    """
    if len(records) < 3:
        return
    taus, E, D = (np.array([getattr(r, k) for r in records]) for k in ("tau", "E_B", "D_B_total"))
    floor = 0.01 * float(np.max(np.abs(D))) + 1e-300
    dE = (E[2:] - E[:-2]) / (taus[2:] - taus[:-2])
    den = np.maximum(np.maximum(np.abs(D[1:-1]), np.abs(dE)), floor)
    for record, residual in zip(records[1:-1], np.abs(dE + D[1:-1]) / den):
        record.dissipation_residual = residual


@dataclass
class RunResult:
    records: list[DiagnosticsRecord]
    final_state: State
    profile: ProfileSolution
    # the step counters of ``_march``, the reaction solve's sums over every
    # solve (rejected steps' included) and the drift-diffusion factorization
    # counts, under their summary.json keys
    counters: dict
    wall_time: float
    # conserved_moment of the initial state, the excess mass that decays like e^(-tau/2)
    excess_mass_initial: float

    @property
    def steps_accepted(self) -> int:
        return self.counters["steps_accepted"]


_SNAP = 1e-9  # instants within this fraction of a sample interval of each other are one
_COARSEN_AFTER = 16  # accepted steps on one rung before the controller tries the next coarser
# states sampled per call: blocks of 4 to 8 states took about the same time per
# sample at n = 2001, and 4 takes the least memory
_SAMPLE_BLOCK = 4


def _rung_count(interval: float, dtau: float) -> int:
    """The smallest m >= 1 whose rung interval / m is at most dtau, in floats."""
    m = math.ceil(interval / dtau * (1.0 - 1e-12))  # a whole ratio may round up past it
    while interval / m > dtau:
        m += 1
    return m


def _march(config: SimConfig, state: State, advance, sample) -> tuple[list, State, dict]:
    """The sampling loop and step controller of ``run``.

    The sample instants after the start are k I, I = ``sample_interval``, for whole k
    below tau_end, then tau_end itself.  Every step is a rung I / m of the ladder,
    computed from I alone, so each rung is one float and one factorization: a span
    of one interval between two instants is exactly m rungs, and a shorter span (an
    off-grid start, or a tau_end off the grid) takes rungs while one fits, then one
    landing step.  Each span ends stamped with its instant.  m starts as the rung
    count of ``dtau_initial`` (the smallest m with I / m <= dtau_initial).  A rejected
    step dt doubles m until the rung is at most dt / 2, once for a rung, which halves
    it exactly; the rejection is raised instead where dt / 2 < ``dtau_min``.  After
    ``_COARSEN_AFTER`` accepted steps m halves, rounded up and never below the rung
    count of ``dtau_max``, at the first position on the coarser rung's grid.

    ``advance(state, dtau)`` returns the next state or raises PositivityLoss
    or NewtonFailure, which rejects the step.  ``sample(states)`` returns the
    records of a list of states, in order.  The march keeps the states of the
    sample instants not yet sampled (none at tau_end = 0); ``advance`` returns
    new arrays and never writes a state, so none is copied.  It samples them
    once ``_SAMPLE_BLOCK`` are pending, at tau_end, and before any exception
    leaves the march, so that an earlier instant's failing sample wins over a
    later step's error.  Returns the records, the final state and the counters:
    accepted and rejected steps, rejections by the name of the exception's
    class, and ``dtau_range``, the [min, max, count of distinct values] of the
    accepted step sizes (None for no step).
    """
    records, pending = [], [state] if config.tau_end > 0.0 else []
    interval = config.sample_interval
    m, m_min = _rung_count(interval, config.dtau_initial), _rung_count(interval, config.dtau_max)
    rejected = {"PositivityLoss": 0, "NewtonFailure": 0}
    dtaus: list[float] = []
    streak = 0
    first = math.floor(state.tau / interval + _SNAP) + 1
    last = math.ceil(config.tau_end / interval - _SNAP) if config.tau_end > state.tau else first - 1
    try:
        for k in range(first, last + 1):
            target = config.tau_end if k == last else k * interval
            span = (target - state.tau) / interval  # in intervals, 1.0 exactly for a whole one
            if abs(span - 1.0) <= _SNAP:
                span = 1.0
            j = 0  # rungs taken in this span
            while (left := span * m - j) > _SNAP:  # left in rungs
                rung = interval / m
                dt = rung if left >= 1.0 - _SNAP else left * rung  # else the landing step
                try:
                    state = advance(state, dt)
                except (PositivityLoss, NewtonFailure) as exc:
                    if 0.5 * dt < config.dtau_min:
                        raise
                    while interval / m > 0.5 * dt:  # once for a rung, which halves exactly
                        m, j = 2 * m, 2 * j
                    streak = 0
                    rejected[type(exc).__name__] += 1
                    continue
                dtaus.append(dt)
                j, streak = j + 1, streak + 1
                coarser = max(-(-m // 2), m_min)
                if streak >= _COARSEN_AFTER and coarser < m and j * coarser % m == 0:
                    m, j, streak = coarser, j * coarser // m, 0
            state = State.trusted(state.grid, state.u, state.v, target)
            pending.append(state)
            if len(pending) == _SAMPLE_BLOCK:
                block, pending = pending, []
                records += sample(block)
    except Exception:
        if pending:
            sample(pending)  # raises the earlier instant's error, if one fails
        raise
    if pending:
        records += sample(pending)
    return records, state, {
        "steps_accepted": len(dtaus),
        "steps_rejected": sum(rejected.values()),
        "steps_rejected_by_cause": rejected,
        "dtau_range": [min(dtaus), max(dtaus), len(set(dtaus))] if dtaus else None,
    }


def run(config: SimConfig) -> RunResult:
    """March the system to tau_end with adaptive step control and sampling.

    The balancing rate of ``step`` starts from ``_balancing_rate`` of the initial
    state.  Every step divides the sample interval (``_march``): it starts at the
    largest such step of at most dtau_initial, halves on rejection (positivity loss
    or a reaction solver failure) down to dtau_min, and after sixteen accepted steps
    moves from interval / m to interval / ceil(m / 2), up to the largest such step of
    at most dtau_max.  So each sample instant is reached exactly, and each step size
    is factored once.  The march samples the states of up to ``_SAMPLE_BLOCK``
    instants per call of ``entropy.dissipation_total``, looked up on the module, into
    one ``RelativeDensities`` that the run allocates once: each record keeps the bits
    of a sample of its state alone, and a failing block raises the error of its first
    failing state.
    """
    t_start = time.perf_counter()
    profile = solve_profile(config.data, config.make_grid(), tol=config.profile_tol)
    state = build_initial_state(config, profile)
    ws = _StepWorkspace(profile.grid, config.data)
    ws.rate = _balancing_rate(state, config.data)
    p_list = config.effective_p_list()
    densities = entropy.RelativeDensities(profile.grid)

    def advance(st: State, dt: float) -> State:
        return step(st, config.data, dt, ws)

    def sample(states: list[State]) -> list[DiagnosticsRecord]:
        return entropy.dissipation_total(states, profile, p_list, densities)

    excess_mass = conserved_moment(state, profile)
    records, state, counters = _march(config, state, advance, sample)
    fill_dissipation_residuals(records)
    counters |= ws.counts | {
        "diffusion_factorizations": ws.solver.factorizations,
        "diffusion_pivoted_factorizations": ws.solver.pivoted_factorizations,
    }
    return RunResult(records, state, profile, counters, time.perf_counter() - t_start, excess_mass)


def conserved_moment(state: State, profile: ProfileSolution) -> float:
    """Weighted excess mass int beta (u - U) + alpha (v - V) dy.

    The reaction cancels from its evolution, and the rest is in divergence
    form: integrating by parts leaves d/dtau m = -m/2 at any diffusivities,
    so the quantity decays exactly like e^(-tau/2).
    """
    d = profile.data
    return integrate(
        state.grid, d.beta * (state.u - profile.U) + d.alpha * (state.v - profile.V)
    )
