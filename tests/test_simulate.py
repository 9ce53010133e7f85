import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rdmix import (
    Grid,
    InitialConditionSpec,
    ProblemData,
    SimConfig,
    State,
    build_initial_state,
    conserved_moment,
    run,
    solve_profile,
    step,
)
from rdmix.errors import DomainError, NewtonFailure, PositivityLoss, RdmixError
from rdmix import simulate
from rdmix.fdops import scalar_residual
from rdmix.simulate import _march, _reaction_exact, _reaction_implicit, _StepWorkspace
from tests.conftest import default_grid_problems, stepped

# the orders whose reaction root ``step`` takes in closed form
_EXACT_ORDERS = [(1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (3.0, 1.0), (3.0, 3.0), (4.0, 4.0)]


def _config(data, tau_end=0.2, **kw):
    defaults = dict(
        grid_n=401,
        grid_half_width=16.0,
        dtau_initial=1e-3,
        dtau_max=1e-3,
        sample_interval=0.05,
    )
    defaults.update(kw)
    return SimConfig(data=data, tau_end=tau_end, **defaults)


def test_config_validation():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    with pytest.raises(DomainError):
        SimConfig(data=data, tau_end=-1.0)
    with pytest.raises(DomainError):
        SimConfig(data=data, tau_end=1.0, dtau_min=1e-2, dtau_initial=1e-3)
    with pytest.raises(DomainError):
        InitialConditionSpec("nope")
    with pytest.raises(DomainError):
        InitialConditionSpec("gaussian_bump", amplitude=-1.0)
    for interval in (0.0, -0.5):
        with pytest.raises(DomainError, match="sample_interval must be positive"):
            SimConfig(data=data, tau_end=1.0, sample_interval=interval)


def test_default_p_list():
    assert _config(ProblemData(2, 2, 1, 1, 1, 1, 2)).effective_p_list() == (1.0, 0.5)
    assert _config(ProblemData(1.5, 1.5, 1, 1, 1, 1, 2)).effective_p_list() == (1.0, 0.5)
    assert _config(ProblemData(3, 1, 1, 1, 1, 1, 2)).effective_p_list() == (1.0, 0.5)
    assert _config(ProblemData(4, 4, 1, 1, 1, 1, 2)).effective_p_list() == (1.0, 0.5, 3.0)
    given = _config(ProblemData(3, 1, 1, 1, 1, 1, 2), p_list=(0.5, 1.0, 0.5, 2.0))
    assert given.effective_p_list() == (0.5, 1.0, 2.0)  # first occurrence kept


def test_step_fixed_point_on_profile():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    grid = Grid(16.0, 2001)
    prof = solve_profile(data, grid, tol=1e-10)
    state = State(grid, prof.U.copy(), prof.V.copy(), 0.0)
    new = step(state, data, 1e-3)
    assert np.max(np.abs(new.u - state.u)) <= 1e-10
    assert np.max(np.abs(new.v - state.v)) <= 1e-10


@pytest.mark.parametrize(
    "data",
    [
        ProblemData(2, 2, 1, 3, 1, 1, 2),
        ProblemData(2, 1, 1, 2, 1, 1, 1.2),
        ProblemData(1.5, 1.5, 1, 3, 1, 1, 2),
    ],
)
def test_step_drift_from_profile_decays(data):
    # for d1 != d2 a Lie step (no workspace, so no balancing rate) does not fix the
    # profile; its one-step drift follows the multiplier's forcing and decays as tau grows
    grid = Grid(16.0, 2001)
    prof = solve_profile(data, grid, tol=1e-10)
    drifts = []
    for tau in (0.0, 5.0, 10.0, 15.0):
        new = step(State(grid, prof.U.copy(), prof.V.copy(), tau), data, 1e-3)
        drifts.append(max(np.max(np.abs(new.u - prof.U)), np.max(np.abs(new.v - prof.V))))
    assert all(b < a for a, b in zip(drifts, drifts[1:]))
    assert drifts[-1] <= 1e-2 * drifts[0]


def test_step_constant_equilibrium_unchanged():
    data = ProblemData(2, 1, 1, 2, 1, 1, 1)
    grid = Grid(8.0, 401)
    prof = solve_profile(data, grid)
    state = State(grid, np.ones(grid.n), np.ones(grid.n), 0.0)
    new = step(state, data, 1e-2)
    assert np.max(np.abs(new.u - 1.0)) <= 1e-13
    assert np.max(np.abs(new.v - 1.0)) <= 1e-13


def test_step_boundary_pinning_and_positivity():
    data = ProblemData(2, 1, 1, 2, 1, 1, 1.2)
    grid = Grid(16.0, 801)
    prof = solve_profile(data, grid)
    y = grid.nodes
    state = State(grid, prof.U * (1 + 0.5 * np.exp(-(y**2))), prof.V.copy(), 0.0)
    for _ in range(20):
        state = step(state, data, 1e-3)
    assert abs(state.u[0] - data.u_minus) <= 1e-12
    assert abs(state.u[-1] - data.u_plus) <= 1e-12
    assert abs(state.v[0] - data.v_minus) <= 1e-12
    assert abs(state.v[-1] - data.v_plus) <= 1e-12
    assert np.min(state.u) > 0 and np.min(state.v) > 0


@pytest.mark.parametrize("dtau", [0.0, -1.0, math.nan, math.inf])
def test_step_size_must_be_positive_and_finite(dtau):
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    grid = Grid(16.0, 401)
    state = State(grid, np.full(grid.n, 1.5), np.full(grid.n, 1.2), 0.0)
    with pytest.raises(DomainError, match="dtau must be positive and finite"):
        step(state, data, dtau)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_step_rejects_a_state_that_is_not_finite(value):
    # the drift-diffusion half checks its rows once; the solver itself does not
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    grid = Grid(16.0, 401)
    u = np.full(grid.n, 1.5)
    u[200] = value
    state = State.trusted(grid, u, np.full(grid.n, 1.2), 0.0)
    with pytest.raises(DomainError, match="must be finite nodewise"):
        step(state, data, 1e-3)


def test_stiff_relaxation_onto_constraint_manifold():
    # at large tau the reaction pins u^alpha = v^beta; halving dtau agrees
    data = ProblemData(2, 1, 1, 2, 1, 1, 1.2)
    grid = Grid(16.0, 401)
    prof = solve_profile(data, grid)
    y = grid.nodes
    u0 = prof.U * (1 + 0.3 * np.exp(-(y**2)))

    def march(dtau, nsteps):
        state = State(grid, u0.copy(), prof.V.copy(), 20.0)
        for _ in range(nsteps):
            state = step(state, data, dtau)
        return state

    s1 = march(1e-3, 10)
    s2 = march(5e-4, 20)
    gap1 = float(np.max(np.abs(s1.u**2 - s1.v)))
    gap2 = float(np.max(np.abs(s2.u**2 - s2.v)))
    assert gap1 <= 1e-8
    assert gap2 <= 1e-8
    # states agree at the splitting order
    assert np.max(np.abs(s1.u - s2.u)) <= 2e-4


def test_initial_conditions():
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    grid = Grid(16.0, 801)
    prof = solve_profile(data, grid)
    cfg = _config(data, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, prof)
    assert state.u[grid.n // 2] == pytest.approx(prof.U[grid.n // 2] * 1.2, rel=1e-12)
    assert abs(state.u[0] - data.u_minus) == 0.0
    shifted = build_initial_state(
        _config(data, ic=InitialConditionSpec("shifted_erf", center=0.5)), prof
    )
    assert shifted.u[grid.n // 2] < prof.U[grid.n // 2]  # ramp moved right


def test_run_samples_and_residuals():
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    cfg = _config(
        data,
        tau_end=0.3,
        grid_n=801,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.2),
    )
    result = run(cfg)
    taus = [r.tau for r in result.records]
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.3, abs=1e-10)
    assert len(taus) == 7
    assert math.isnan(result.records[0].dissipation_residual)
    interior = [r.dissipation_residual for r in result.records[1:-1]]
    assert all(np.isfinite(interior))
    assert max(interior) < 0.05
    # entropy decays overall for this configuration
    assert result.records[-1].E_B < result.records[0].E_B


def test_run_tau_end_zero_is_empty():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    result = run(_config(data, tau_end=0.0))
    assert result.records == []


def test_conserved_moment_decay():
    data = ProblemData(2, 1, 2, 2, 1, 1, 1.2)  # equal diffusivities
    cfg = _config(
        data,
        tau_end=1.0,
        grid_n=2001,
        dtau_initial=5e-4,
        dtau_max=5e-4,
        sample_interval=0.25,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
    )
    result = run(cfg)
    prof = result.profile
    m0 = conserved_moment(build_initial_state(cfg, prof), prof)
    m_end = conserved_moment(result.final_state, prof)
    assert abs(m_end - math.exp(-0.5 * cfg.tau_end) * m0) <= 1e-4 * abs(m0) + 1e-10


def test_conserved_moment_decays_at_unequal_diffusivities():
    # the excess-mass law m(tau) = e^(-tau/2) m(0) holds at any d1, d2; with
    # fixed steps of 5e-4 its time error stays within criterion 11's budget
    # (1.7e-8 |m0| measured, 6.9e-8 |m0| at steps of 1e-3; a Lie step gave 4.6e-5
    # and 9.2e-5)
    data = ProblemData(2, 1, 1, 2, 1, 1, 1.2)
    cfg = _config(
        data,
        tau_end=2.0,
        grid_n=2001,
        dtau_initial=5e-4,
        dtau_max=5e-4,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
    )
    prof = solve_profile(data, cfg.make_grid())
    state = build_initial_state(cfg, prof)
    m0 = conserved_moment(state, prof)
    ws = _StepWorkspace(prof.grid, data)
    worst = 0.0
    for s in range(1, 4001):
        state = step(state, data, cfg.dtau_initial, ws)
        if s % 500 == 0:
            worst = max(worst, abs(conserved_moment(state, prof) - math.exp(-0.5 * state.tau) * m0))
    assert worst <= 1e-4 * abs(m0)


def test_initial_condition_from_file(tmp_path):
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    grid = Grid(16.0, 401)
    prof = solve_profile(data, grid)
    path = tmp_path / "ic.csv"
    with open(path, "w") as fh:
        fh.write("y,u,v\n")
        for y, u, v in zip(grid.nodes, prof.U * 1.1, prof.V * 1.1):
            fh.write(f"{float(y)!r},{float(u)!r},{float(v)!r}\n")
    cfg = _config(data, ic=InitialConditionSpec("file", path=str(path)), grid_n=401)
    state = build_initial_state(cfg, prof)
    assert state.u[grid.n // 2] == pytest.approx(prof.U[grid.n // 2] * 1.1, rel=1e-12)
    assert state.u[0] == data.u_minus  # boundary re-pinned


def test_equilibration_diagnostic_bounded():
    # the weighted reaction term ramps up, then decays toward the manifold
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    cfg = _config(
        data,
        tau_end=3.0,
        grid_n=801,
        sample_interval=0.1,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.2),
    )
    res = run(cfg)
    vals = [(r.tau, math.exp(r.tau) * r.D_react) for r in res.records]
    peak = max(v for _, v in vals)
    late = max(v for t, v in vals if t >= 1.5)
    assert np.isfinite(peak)
    assert late <= 0.25 * peak
    assert vals[-1][1] <= 0.1 * peak


# At alpha = beta = 1 and d1 = d2, with u0 = v0, the species stay equal: the
# reaction sits at equilibrium and ``run`` integrates the heat equation
def test_linear_diffusion_from_the_profile_stays_zero():
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    cfg = _config(data, tau_end=0.5, grid_n=801, ic=InitialConditionSpec("profile_exact"),
                  p_list=(1.0, 2.0))
    records = run(cfg).records
    assert all(abs(r.E_p[p]) <= 1e-12 for r in records for p in (1.0, 2.0))


def test_linear_diffusion_decay_bound():
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    cfg = _config(
        data,
        tau_end=1.0,
        grid_n=801,
        dtau_max=2e-3,
        dtau_initial=2e-3,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
        p_list=(1.0, 2.0),
    )
    records = run(cfg).records
    for p in (1.0, 2.0):
        e0 = records[0].E_p[p]
        assert e0 > 0
        for rec in records:
            assert rec.E_p[p] <= math.exp(-0.5 * rec.tau) * e0 * 1.03


@pytest.mark.parametrize("d", [1.0, 3.0])
def test_equal_orders_and_diffusivities_keep_the_species_equal(d):
    # the property that makes ``run`` the linear-diffusion check of criterion 02:
    # from u0 = v0 both rows diffuse alike and the reaction leaves them equal
    data = ProblemData(1, 1, d, d, 1, 1, 2)
    cfg = SimConfig(data, 5.0, ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
                    p_list=(1.0,))
    final = run(cfg).final_state
    assert final.tau == 5.0
    assert np.max(np.abs(final.u - final.v) / final.u) <= 1e-13


def test_tiny_ic_width_leaves_a_spike_at_the_center():
    # (y - center) / width overflows to inf off the center, where the Gaussian is 0
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    grid = Grid(16.0, 401)
    k = 150
    ic = InitialConditionSpec("gaussian_bump", amplitude=0.2, width=1e-320, center=grid.nodes[k])
    cfg = _config(data, tau_end=0.1, grid_n=grid.n, ic=ic, p_list=(1.0, 2.0))
    prof = solve_profile(data, grid)
    spike = np.ones(grid.n)
    spike[k] = 1.2
    state = build_initial_state(cfg, prof)
    assert np.array_equal(state.u, prof.U * spike) and np.array_equal(state.v, prof.V * spike)
    records = run(cfg).records
    for p in (1.0, 2.0):
        assert records[0].E_p[p] > 0 and all(math.isfinite(r.E_p[p]) for r in records)


def test_rejection_on_positivity_loss():
    # a near-vacuum interior against unit boundary data defeats the implicit
    # solve at a coarse step: the step must be rejected, not clipped
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    grid = Grid(8.0, 101)
    prof = solve_profile(data, grid)
    u = prof.U.copy()
    u[1:-1] = 1e-12
    state = State(grid, u, prof.V.copy(), 0.0)
    with pytest.raises(PositivityLoss):
        step(state, data, 1e-3)
    # a moderate dip stays positive at the default step
    mild = State(grid, np.maximum(prof.U * 0.01, 1e-3), prof.V.copy(), 0.0)
    assert np.min(step(mild, data, 1e-3).u) > 0


def _recorded_steps(data, ws):
    """An ``advance`` over ``step`` recording each attempt's input State, dtau and bits after."""
    attempts = []

    def advance(st, dt):
        try:
            return step(st, data, dt, ws)
        finally:
            attempts.append((st, dt, st.u.tobytes() + st.v.tobytes()))

    return advance, attempts


def test_a_rejected_diffusion_half_leaves_its_input_untouched():
    # the near-vacuum state of test_rejection_on_positivity_loss fails at every step
    # size: each retry must start from the same State, bit for bit as it was built
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    grid = Grid(8.0, 101)
    prof = solve_profile(data, grid)
    u = prof.U.copy()
    u[1:-1] = 1e-12
    state = State(grid, u, prof.V.copy(), 0.0)
    bits = state.u.tobytes() + state.v.tobytes()
    cfg = _config(data, tau_end=0.01, grid_n=101, grid_half_width=8.0, dtau_min=1.25e-4)
    advance, attempts = _recorded_steps(data, _StepWorkspace(grid, data))
    with pytest.raises(PositivityLoss):  # at dtau_min
        _march(cfg, state, advance, lambda st: st.tau)
    assert [dt for _, dt, _ in attempts] == [1e-3, 5e-4, 2.5e-4, 1.25e-4]
    assert all(st is state and seen == bits for st, _, seen in attempts)


def test_a_rejected_reaction_half_leaves_its_input_untouched(monkeypatch):
    # at orders (4, 3) one Newton iteration from a cold start cannot settle a stiff
    # solve: the first attempt raises NewtonFailure and the retry at dtau / 2 starts
    # from the untouched input, as a fresh step from a copy of it does
    data = ProblemData(4, 3, 1, 3, 1, 1, 2)
    cfg = _config(data, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    start = build_initial_state(cfg, solve_profile(data, cfg.make_grid()))
    state = State(start.grid, start.u, start.v, 4.0)  # scale = dtau e^(tau + dtau): stiff
    copy = State(start.grid, start.u.copy(), start.v.copy(), 4.0)
    bits = state.u.tobytes() + state.v.tobytes()
    solve = simulate._reaction_implicit
    scales = []

    def first_call_one_iteration(*args, **kwargs):
        scales.append(args[3])
        return solve(*args, **kwargs, max_iter=1 if len(scales) == 1 else 120)

    monkeypatch.setattr(simulate, "_reaction_implicit", first_call_one_iteration)
    advance, attempts = _recorded_steps(data, _StepWorkspace(state.grid, data))
    _, _, counters = _march(_config(data, tau_end=4.01, sample_interval=4.01), state, advance,
                            lambda st: st.tau)
    assert counters["steps_rejected_by_cause"] == {"PositivityLoss": 0, "NewtonFailure": 1}
    assert scales[0] > 0.05
    assert [dt for _, dt, _ in attempts[:2]] == [1e-3, 5e-4]
    assert all(st is state and seen == bits for st, _, seen in attempts[:2])
    monkeypatch.setattr(simulate, "_reaction_implicit", solve)
    retried = step(copy, data, 5e-4, _StepWorkspace(state.grid, data))
    first = attempts[2][0]  # the input of the third attempt is the retry's output
    assert np.array_equal(first.u, retried.u) and np.array_equal(first.v, retried.v)


def _first_diffused_state(data, grid, dtau=1e-3):
    """The certified-run state (bump 0.2, L 16) after the diffusion half of its first step."""
    prof = solve_profile(data, grid)
    cfg = _config(data, grid_n=grid.n, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, prof)
    ws = _StepWorkspace(grid, data)
    return stepped(ws.solver, (state.u, state.v), dtau)


@pytest.mark.parametrize(
    "data, exact",
    [
        (ProblemData(1, 1, 1, 3, 1, 1, 2), False),
        (ProblemData(1.5, 1.5, 1, 3, 1, 1, 2), False),
        (ProblemData(2, 2, 1, 3, 1, 1, 2), False),
        (ProblemData(4, 4, 1, 3, 1, 1, 2), False),
        (ProblemData(2, 2, 1, 1, 1, 1, 2), False),
        (ProblemData(2, 1, 1, 2, 1, 1, 2), False),
        # the profile itself, where the residual is exactly 0 at most nodes
        (ProblemData(2, 2, 1, 1, 1, 1, 2), True),
    ],
)
def test_reaction_solve_converges_like_newton(data, exact):
    # a node whose residual is 0, or already at roundoff, must keep its
    # Newton step instead of bisecting its whole bracket: a few iterations
    # suffice where the bisecting safeguard needed about 50
    grid = Grid(16.0, 2001)
    if exact:
        prof = solve_profile(data, grid)
        u, v = prof.U.copy(), prof.V.copy()
    else:
        u, v = _first_diffused_state(data, grid)
    dtau = 1e-3
    scale = dtau * math.exp(dtau) * data.k
    x, y = _reaction_implicit(u, v, data, scale, max_iter=8)
    a, b = data.alpha, data.beta
    m = b * u + a * v
    assert np.max(np.abs(b * x + a * y - m)) <= 1e-14 * np.max(m)
    residual = x - u - scale * a * (y**b - x**a)
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(x))


def _bisected_root(u, v, a, b, scale):
    """The reaction root bracketed by adjacent floats, the residual's sign taken in long double."""
    L = np.longdouble
    uu, m = u.astype(L), L(b) * u.astype(L) + L(a) * v.astype(L)
    lo, hi = np.zeros_like(u), (b * u + a * v) / b
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not open_.any():
            return lo, hi
        x = mid.astype(L)
        vv = np.maximum((m - L(b) * x) / L(a), L(0))
        above = x - uu - L(scale) * L(a) * (vv ** L(b) - x ** L(a)) > 0
        hi = np.where(open_ & above, mid, hi)
        lo = np.where(open_ & ~above, mid, lo)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(1.0, 4.0),
    beta_frac=st.floats(0.0, 1.0),
    log_scale=st.floats(-6.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    guess=st.sampled_from([None, "near", "inside", "outside", "mixed"]),
)
def test_reaction_solve_meets_its_tolerance(alpha, beta_frac, log_scale, seed, guess):
    a, b, scale = alpha, 1.0 + beta_frac * (alpha - 1.0), 10.0**log_scale
    rng = np.random.default_rng(seed)
    u, v = 10.0 ** rng.uniform(-3.0, 1.0, (2, 64))
    m = b * u + a * v
    below, above = _bisected_root(u, v, a, b, scale)
    if guess == "near":  # a warm start: one short Newton step must be judged right
        x0 = below * (1.0 + rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-10.0, -3.0, 64))
    else:
        lo, hi = {"inside": (0, 1), "outside": (1, 1.5), "mixed": (-0.5, 1.5)}.get(guess, (0, 0))
        x0 = None if guess is None else m / b * rng.uniform(lo, hi, 64)
    data = ProblemData(a, b, 1, 1, 1, 1, 2)
    x, v_new = _reaction_implicit(u, v, data, scale, guess=x0)
    error = np.maximum(np.maximum(below - x, x - above), 0.0)
    assert error.max() <= 1e-15 * (x.max() + 1.0)
    assert np.max(np.abs(b * x + a * v_new - m)) <= 1e-14 * np.max(m)
    # one Newton step from the far end of the bracket cannot settle a stiff
    # solve unless the residual is (nearly) affine, as at orders (1, 1) and (2, 2)
    if min(abs(a - 1.0) + abs(b - 1.0), abs(a - 2.0) + abs(b - 2.0)) >= 0.1:
        with pytest.raises(NewtonFailure):
            _reaction_implicit(u, v, data, 1e3, max_iter=1, guess=np.zeros_like(u))


def _reaction_input(ws, state, dtau):
    """The reaction input w_A - dtau c of ``step`` from ``state`` with ``ws``'s balancing rate c."""
    h_rate = dtau * ws.rate
    return stepped(ws.solver, np.array((state.u, state.v)) + h_rate, dtau) - h_rate


def test_affine_reaction_takes_one_iteration_per_solve():
    # at orders (1, 1) the residual is affine, so one Newton step is exact; ``run``
    # takes the closed-form root there, so the Newton solve is called on its states
    data = ProblemData(1, 1, 1, 3, 1, 1, 2)
    cfg = _config(data, tau_end=0.2, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, solve_profile(data, cfg.make_grid()))
    ws = _StepWorkspace(state.grid, data)
    counts = {"reaction_newton_iterations": 0, "reaction_midpoint_fallbacks": 0}
    increment = np.zeros(state.grid.n)
    for _ in range(200):
        u, v = _reaction_input(ws, state, 1e-3)
        scale = 1e-3 * math.exp(state.tau + 1e-3) * data.k
        x, _ = _reaction_implicit(u, v, data, scale, guess=u + increment, counts=counts)
        increment = x - u
        state = step(state, data, 1e-3, ws)
        assert np.max(np.abs(state.u - x)) <= 1e-15 * (x.max() + 1.0)
    assert counts["reaction_newton_iterations"] == 200
    assert counts["reaction_midpoint_fallbacks"] == 0


@settings(max_examples=200, deadline=None)
@given(
    orders=st.sampled_from(_EXACT_ORDERS),
    log_scale=st.floats(-9.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_reaction_root_meets_the_newton_tolerance(orders, log_scale, seed):
    a, b = orders
    scale = 10.0**log_scale
    u, v = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 1.0, (2, 64))
    m = b * u + a * v
    below, above = _bisected_root(u, v, a, b, scale)
    x, v_new = _reaction_exact(u, v, ProblemData(a, b, 1, 1, 1, 1, 2), scale)
    assert np.isfinite(x).all() and np.isfinite(v_new).all()
    assert x.min() > 0.0 and v_new.min() > 0.0
    error = np.maximum(np.maximum(below - x, x - above), 0.0)
    assert error.max() <= 1e-15 * (x.max() + 1.0)
    assert np.max(np.abs(b * x + a * v_new - m)) <= 1e-14 * np.max(m)


@pytest.mark.parametrize("orders", _EXACT_ORDERS)
def test_exact_reaction_root_without_reaction_returns_its_input(orders):
    # k dtau may underflow to a zero scale, where the sinh forms of the cubic
    # orders would multiply an infinite factor by 0; at the smallest subnormal
    # scale the root stays finite and within the Newton tolerance
    a, b = orders
    u, v = 10.0 ** np.random.default_rng(5).uniform(-3.0, 1.0, (2, 64))
    data = ProblemData(a, b, 1, 1, 1, 1, 2)
    x, v_new = _reaction_exact(u, v, data, 1e-3 * 5e-324)
    assert np.array_equal(x, u) and np.array_equal(v_new, v)
    x, v_new = _reaction_exact(u, v, data, 5e-324)
    below, above = _bisected_root(u, v, a, b, 5e-324)
    assert np.isfinite(x).all() and np.isfinite(v_new).all()
    error = np.maximum(np.maximum(below - x, x - above), 0.0)
    assert error.max() <= 1e-15 * (x.max() + 1.0)


def test_exact_reaction_root_names_its_orders():
    # off the closed-form orders the result is None, at a zero scale too, so
    # no formula of another order serves them; (5, 5) once met the (4, 4)
    # formula, and (1.5, 1.5) and (4, 2) the (2, 2) one
    u, v = np.array([1.0, 2.0]), np.array([1.5, 0.5])
    for a, b in [(1.5, 1.5), (3.0, 2.0), (4.0, 1.0), (4.0, 2.0), (4.0, 3.0), (5.0, 5.0), (2.5, 1.0)]:
        for scale in (0.3, 0.0):
            assert _reaction_exact(u, v, ProblemData(a, b, 1, 1, 1, 1, 2), scale) is None
    for a, b in _EXACT_ORDERS:
        out = _reaction_exact(u, v, ProblemData(a, b, 1, 1, 1, 1, 2), 0.3)
        assert isinstance(out, np.ndarray) and out.shape == (2, 2)


def test_cubic_reaction_steps_match_the_newton_solve():
    # 100 certify-shaped steps at orders (4, 4), whose root ``step`` takes in
    # closed form: each lies within the Newton tolerance of the Newton solve
    # on the same reaction input
    data = ProblemData(4, 4, 1, 3, 1, 1, 2)
    cfg = _config(data, grid_n=2001, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, solve_profile(data, cfg.make_grid()))
    ws = _StepWorkspace(state.grid, data)
    increment = np.zeros(state.grid.n)
    for _ in range(100):
        u, v = _reaction_input(ws, state, 1e-3)
        scale = 1e-3 * math.exp(state.tau + 1e-3) * data.k
        x, y = _reaction_implicit(u, v, data, scale, guess=u + increment)
        increment = x - u
        state = step(state, data, 1e-3, ws)
        tol = 1e-15 * (x.max() + 1.0)
        assert np.max(np.abs(state.u - x)) <= tol and np.max(np.abs(state.v - y)) <= tol
    assert ws.counts["reaction_newton_iterations"] == 0


@pytest.mark.parametrize(
    "alpha, beta, newton",
    [(1, 1, False), (2, 2, False), (2, 1, False), (3, 1, False), (3, 3, False), (4, 4, False),
     (1.5, 1.5, True), (4, 3, True)],
)
def test_newton_runs_only_off_the_closed_form_orders(alpha, beta, newton):
    data = ProblemData(alpha, beta, 1, 3, 1, 1, 2)
    cfg = _config(data, tau_end=0.01, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    iterations = run(cfg).counters["reaction_newton_iterations"]
    assert iterations >= 10 if newton else iterations == 0


def test_fixed_steps_land_on_the_sample_targets_with_one_step_size():
    # 0.001 summed twenty times is not 0.02: a step that reaches a target
    # within roundoff must still be dtau, and the sample is stamped on the target
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    cfg = _config(data, tau_end=0.1, sample_interval=0.02)
    result = run(cfg)
    assert result.counters["dtau_range"] == [1e-3, 1e-3, 1]
    assert result.counters["steps_accepted"] == 100
    assert [r.tau for r in result.records] == [0.0] + [i * 0.02 for i in range(1, 5)] + [0.1]
    assert result.final_state.tau == 0.1


@settings(max_examples=20, deadline=None)
@given(data=default_grid_problems())
def test_short_run_on_the_default_grid_stays_positive_or_raises_a_typed_error(data):
    # the profile property test's draws, stepped by the default controller from a
    # bumped profile to tau 0.05 on the grid that default_grid sizes
    cfg = SimConfig(data, 0.05, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    try:
        result = run(cfg)
    except RdmixError as exc:
        event(f"raised {type(exc).__name__}")
        return
    final = result.final_state
    assert final.tau == 0.05
    for row in (final.u, final.v):
        assert np.isfinite(row).all() and row.min() > 0.0
    assert all(math.isfinite(r.E_B) and r.E_B >= 0.0 for r in result.records)


def test_certify_shaped_run_factors_its_one_step_size_once_without_interchanges():
    cfg = _config(ProblemData(2, 2, 1, 3, 1, 1, 2), tau_end=0.1, grid_n=2001,
                  sample_interval=0.02, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    counters = run(cfg).counters
    assert counters["diffusion_factorizations"] == 1
    assert counters["diffusion_pivoted_factorizations"] == 0
    assert counters["steps_rejected"] == 0 and counters["dtau_range"][2] == 1


class _NaNSolver:
    """A drift-diffusion solver stub whose output has a NaN at one node."""

    def __init__(self, *args):
        pass

    def step(self, rows, dtau):
        rows.flat[rows.size // 2] = np.nan


def test_a_nan_diffusion_output_is_a_positivity_loss(monkeypatch):
    # before the reaction solve: a NaN passed on spins the Newton solve to its
    # iteration limit and comes out of the closed-form root as a NaN
    grid = Grid(16.0, 401)
    state = State(grid, np.full(grid.n, 1.5), np.full(grid.n, 1.2), 0.0)
    for data in (ProblemData(2, 1, 1, 2, 1, 1, 2), ProblemData(4, 4, 1, 3, 1, 1, 2),
                 ProblemData(4, 3, 1, 3, 1, 1, 2)):
        ws = _StepWorkspace(grid, data)
        ws.solver = _NaNSolver()
        with pytest.raises(PositivityLoss):
            step(state, data, 1e-3, ws)
    monkeypatch.setattr(simulate, "DriftDiffusionSolver", _NaNSolver)
    cfg = _config(ProblemData(1, 1, 1, 1, 1, 1, 2), tau_end=0.01, dtau_min=1e-4,
                  p_list=(1.0, 2.0))
    with pytest.raises(PositivityLoss):
        run(cfg)


def test_step_rejects_a_reaction_output_that_is_not_positive_and_finite(monkeypatch):
    # the stepped State is not validated again, so step raises what State would
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    grid = Grid(16.0, 401)
    state = State(grid, np.full(grid.n, 1.5), np.full(grid.n, 1.2), 0.0)
    exact = simulate._reaction_exact
    for node_value in (np.nan, np.inf, 0.0, -1.0):

        def spoiled(*args, value=node_value):
            out = exact(*args)
            out[0, 7] = value
            return out

        monkeypatch.setattr(simulate, "_reaction_exact", spoiled)
        with pytest.raises(DomainError, match="finite and positive"):
            step(state, data, 1e-3)


def _warm_and_cold_steps(data, nsteps=20, dtau=1e-3):
    """March ``nsteps`` warm-started steps, each also taken cold from the same state.

    The cold step's fresh workspace holds the warm one's balancing rate, so the two
    solve the same reaction.  Returns the largest node-wise gap between the two over
    the solver tolerance 1e-15 (max x + 1), and the warm and the cold iteration counts.
    """
    grid = Grid(16.0, 2001)
    prof = solve_profile(data, grid)
    cfg = _config(data, grid_n=grid.n, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, prof)
    warm, cold_iterations, worst = _StepWorkspace(grid, data), 0, 0.0
    for _ in range(nsteps):
        fresh = _StepWorkspace(grid, data)
        fresh.rate = warm.rate.copy()  # a step overwrites its workspace's rate
        cold = step(state, data, dtau, fresh)
        cold_iterations += fresh.counts["reaction_newton_iterations"]
        state = step(state, data, dtau, warm)
        tol = 1e-15 * (max(cold.u.max(), state.u.max()) + 1.0)
        gap = max(np.max(np.abs(state.u - cold.u)), np.max(np.abs(state.v - cold.v)))
        worst = max(worst, gap / tol)
    return worst, warm.counts["reaction_newton_iterations"], cold_iterations


def test_warm_started_steps_match_cold_steps():
    worst, warm, cold = _warm_and_cold_steps(ProblemData(4, 3, 1, 3, 1, 1, 2))
    assert worst <= 1.0
    assert warm <= cold
    # on (1.5, 1.5) the warm start saves iterations from the second step on
    worst, warm, cold = _warm_and_cold_steps(ProblemData(1.5, 1.5, 1, 3, 1, 1, 2))
    assert worst <= 1.0
    assert warm < cold


def test_step_without_workspace_starts_cold():
    data = ProblemData(1.5, 1.5, 1, 3, 1, 1, 2)
    grid = Grid(16.0, 401)
    u, v = _first_diffused_state(data, grid)
    state = State(grid, u, v, 0.0)
    fresh = _StepWorkspace(grid, data)
    assert not fresh.increment.any()
    cold = step(state, data, 1e-3, fresh)
    assert fresh.increment.any()
    assert np.array_equal(step(state, data, 1e-3).u, cold.u)


def test_reaction_counts_accumulate():
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    grid = Grid(16.0, 401)
    u, v = _first_diffused_state(data, grid)
    counts = {"reaction_newton_iterations": 0, "reaction_midpoint_fallbacks": 0}
    _reaction_implicit(u, v, data, 1e-3, counts=counts)
    first = counts["reaction_newton_iterations"]
    assert first >= 1
    _reaction_implicit(u, v, data, 1e-3, counts=counts)
    assert counts["reaction_newton_iterations"] == 2 * first
    with pytest.raises(NewtonFailure):
        _reaction_implicit(u, v, data, 1e3, max_iter=1, counts=counts)
    assert counts["reaction_newton_iterations"] == 2 * first + 1


def test_march_counts_rejections_by_cause():
    cfg = _config(ProblemData(2, 2, 1, 1, 1, 1, 2), tau_end=0.01, dtau_initial=1e-3)
    grid = Grid(16.0, 11)
    failures = [PositivityLoss("p"), NewtonFailure(3, 1.0), NewtonFailure(4, 1.0)]
    taken = []

    def advance(st, dt):
        if failures:
            raise failures.pop(0)
        taken.append(dt)
        return State(grid, st.u, st.v, st.tau + dt)

    start = State(grid, np.ones(grid.n), np.ones(grid.n), 0.0)
    _, end, counters = _march(cfg, start, advance, lambda st: st.tau)
    assert counters["steps_rejected_by_cause"] == {"PositivityLoss": 1, "NewtonFailure": 2}
    assert counters["steps_rejected"] == 3
    assert end.tau == pytest.approx(0.01, abs=1e-12)
    assert counters["steps_accepted"] == len(taken) > 0
    assert counters["dtau_range"] == [min(taken), max(taken), len(set(taken))]
    # three rejections halve 1e-3 three times; the dtau_max of 1e-3 caps the growth
    assert taken[0] == 1.25e-4 and max(taken) <= 1e-3


def test_march_to_tau_zero_takes_no_step_and_no_sample():
    cfg = _config(ProblemData(2, 2, 1, 1, 1, 1, 2), tau_end=0.0)
    grid = Grid(16.0, 11)
    start = State(grid, np.ones(grid.n), np.ones(grid.n), 0.0)
    records, end, counters = _march(cfg, start, None, lambda st: st.tau)
    assert records == [] and end is start
    assert counters == {
        "steps_accepted": 0, "steps_rejected": 0,
        "steps_rejected_by_cause": {"PositivityLoss": 0, "NewtonFailure": 0}, "dtau_range": None,
    }


def _stub_march(cfg, start_tau, fails=()):
    """``_march`` from ``start_tau`` with a stub ``advance`` that rejects the attempts
    whose indices are in ``fails``.  Returns (records, final state, counters, attempts,
    None), each record a (tau, steps accepted before it) pair and each attempt a (dtau,
    accepted) pair; if the march raises, (None, None, None, attempts, the error)."""
    grid = Grid(16.0, 11)
    attempts = []

    def advance(st, dt):
        rejected = len(attempts) in fails
        attempts.append((dt, not rejected))
        if rejected:
            raise PositivityLoss("p") if len(attempts) % 2 else NewtonFailure(3, 1.0)
        return State.trusted(grid, st.u, st.v, st.tau + dt)

    def sample(st):
        return st.tau, sum(accepted for _, accepted in attempts)

    start = State(grid, np.ones(grid.n), np.ones(grid.n), start_tau)
    try:
        return (*_march(cfg, start, advance, sample), attempts, None)
    except (PositivityLoss, NewtonFailure) as exc:
        return None, None, None, attempts, exc


@pytest.mark.parametrize("interval, tau_end", [(0.3, 0.9), (0.7, 2.1)])
def test_the_march_ends_on_tau_end_where_the_last_instant_rounds_below_it(interval, tau_end):
    # 3 * 0.3 = 0.8999999999999999 and 3 * 0.7 = 2.0999999999999996: the run once ended
    # there, an ulp short, and its last record and final state carried that tau
    cfg = _config(ProblemData(2, 2, 1, 1, 1, 1, 2), tau_end=tau_end, sample_interval=interval,
                  dtau_max=2e-2)
    records, end, _, _, _ = _stub_march(cfg, 0.0)
    assert [tau for tau, _ in records] == [0.0, interval, 2 * interval, tau_end]
    assert end.tau == tau_end


def _is_rung(dt, interval):
    return interval / round(interval / dt) == dt


@settings(max_examples=150, deadline=None)
@given(
    interval=st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.7]) | st.floats(0.01, 2.0),
    dtau_max_per_interval=st.floats(1 / 32, 2.0),
    dtau_initial_frac=st.floats(1 / 16, 1.0),
    dtau_min_frac=st.floats(1 / 16, 1.0),
    start=st.tuples(st.integers(0, 3), st.just(0.0) | st.floats(0.05, 0.95)),
    length=st.tuples(st.integers(0, 3), st.just(0.0) | st.floats(0.05, 0.95)),
    fails=st.sets(st.integers(0, 60), max_size=8),
)
def test_march_steps_on_rungs_that_divide_the_sample_interval(
    interval, dtau_max_per_interval, dtau_initial_frac, dtau_min_frac, start, length, fails
):
    # the sample interval I, dtau_min <= dtau_initial <= dtau_max, a start on or off the
    # grid of instants k I, a tau_end on or off it, and the attempts that are rejected
    dtau_max = dtau_max_per_interval * interval
    dtau_initial = dtau_initial_frac * dtau_max
    dtau_min = dtau_min_frac * dtau_initial
    (a, start_frac), (b, end_frac) = start, length
    # as a config would give them: on the grid, k I may round an ulp off the decimal
    tau0, tau_end = (round((x + frac) * interval, 12) for x, frac in ((a, start_frac),
                                                                    (a + b, end_frac)))
    if not tau_end > tau0 + 0.05 * interval:
        event("no span")
        return
    cfg = _config(ProblemData(2, 2, 1, 1, 1, 1, 2), tau_end=tau_end, sample_interval=interval,
                  dtau_min=dtau_min, dtau_initial=dtau_initial, dtau_max=dtau_max)
    records, end, counters, attempts, error = _stub_march(cfg, tau0, fails)
    assert attempts[0][0] <= dtau_initial
    for (dt, accepted), (retry, _) in zip(attempts, attempts[1:]):
        if not accepted:  # a rung halves exactly, and a landing step at least halves
            assert retry == 0.5 * dt if _is_rung(dt, interval) else retry <= 0.5 * dt
    if error is not None:  # raised only by a rejection whose half step is below dtau_min
        event("raised")
        assert not attempts[-1][1] and 0.5 * attempts[-1][0] < dtau_min
        return
    # records at the start, at every k I after it below tau_end, and at tau_end itself
    last = a + b + (end_frac > 0.0)
    assert [tau for tau, _ in records] == (
        [tau0] + [k * interval for k in range(a + 1, last)] + [tau_end])
    assert end.tau == tau_end
    taken = [dt for dt, accepted in attempts if accepted]
    assert counters["steps_accepted"] == len(taken)
    assert counters["steps_rejected"] == len(attempts) - len(taken)
    # every accepted step is a rung I / m within dtau_max, save that a span shorter than
    # one interval may end on one landing step
    assert max(taken) <= dtau_max
    for (begin, i), (target, i_end) in zip(records, records[1:]):
        off_rung = [s for s in range(i, i_end) if not _is_rung(taken[s], interval)]
        if abs((target - begin) / interval - 1.0) <= 1e-9:
            assert off_rung == []
        else:
            assert off_rung in ([], [i_end - 1])
            if off_rung:
                event("a landing step")


def test_each_rung_is_factored_once():
    # a step size is one cache key of the drift-diffusion solver only if every step on
    # a rung is the same float: rungs summed or differenced from the float sample
    # instants would bring a factorization back for nearly every interval.  The default
    # controller on the adaptive workload's case a15, which reaches its coarsest rung,
    # the sample interval itself, by tau 0.4 (a certify-shaped run has one rung, above)
    cfg = SimConfig(ProblemData(1.5, 1.5, 1, 3, 1, 1, 2), 1.0, grid_n=401, grid_half_width=16.0,
                    ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    counters = run(cfg).counters
    assert counters["steps_rejected"] == 0 and counters["dtau_range"][1] == cfg.sample_interval
    assert counters["dtau_range"][2] == counters["diffusion_factorizations"] <= 6


def test_run_samples_through_dissipation_total_once_per_record(monkeypatch):
    from rdmix import entropy

    calls = []
    total = entropy.dissipation_total

    def counting(*args, **kwargs):
        calls.append(args[0].tau)
        return total(*args, **kwargs)

    monkeypatch.setattr(entropy, "dissipation_total", counting)
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    cfg = _config(data, tau_end=0.2, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    result = run(cfg)
    assert len(result.records) == 5
    assert calls == [r.tau for r in result.records]


def test_the_step_has_no_E_B_floor_at_unequal_diffusivities():
    # at d1 != d2 a fixed Lie step from the profile settled on a steady state of its own,
    # an E_B floor of 8.8e-7 at dtau 1e-2 and 2.2e-7 at 5e-3 (flat in tau, like dtau^2);
    # the balancing rate makes the discrete profile the step's fixed point, so E_B keeps
    # falling, by a factor of about 50 per sample interval, to 2.2e-16 at tau 16
    data = ProblemData(1, 1, 1, 5, 1, 1, 3)
    for dtau in (1e-2, 5e-3):
        cfg = SimConfig(data=data, tau_end=16.0, dtau_initial=dtau, dtau_max=dtau,
                        sample_interval=2.0, p_list=(1.0,))
        result = run(cfg)  # the default grid and the profile_exact initial condition
        assert result.counters["steps_rejected"] == 0 and result.counters["dtau_range"][2] == 1
        E_B = [record.E_B for record in result.records if record.tau >= 2.0]
        assert all(later <= 0.1 * earlier for earlier, later in zip(E_B, E_B[1:]))
        assert E_B[-1] < 1e-14


@settings(max_examples=20, deadline=None)
@given(data=default_grid_problems(), tau=st.floats(32.0, 40.0))
def test_the_profile_is_within_the_solver_tolerance_of_a_fixed_point_of_the_step(data, tau):
    # at a fixed point of the step c = -D w = R(w), so beta u + alpha v solves the
    # discrete reduced equation that the profile solves to solver.tol, and once
    # e^tau k is large (here at least 7.9e13) u^alpha - v^beta is below roundoff.  From
    # the profile and its rate, fifty steps stay within the tolerance (1.4e-9 at most
    # over 400 draws, where a rate kept at zero, the Lie step, moves up to 2.4e-3)
    cfg = SimConfig(data, tau)
    try:
        prof = solve_profile(data, cfg.make_grid(), tol=cfg.profile_tol)
    except RdmixError as exc:
        event(f"raised {type(exc).__name__}")
        return
    w = np.array((prof.U, prof.V))
    ws = _StepWorkspace(prof.grid, data)
    ws.rate = -scalar_residual(prof.grid, np.array((data.d1, data.d2))[:, None] * w, w)
    state = State(prof.grid, prof.U.copy(), prof.V.copy(), tau)
    for _ in range(50):
        state = step(state, data, 1e-2, ws)
    assert max(np.abs(state.u - prof.U).max(), np.abs(state.v - prof.V).max()) <= cfg.profile_tol
