import math

import numpy as np
import pytest

from rdmix import (
    Grid,
    InitialConditionSpec,
    ProblemData,
    SimConfig,
    State,
    build_initial_state,
    conserved_moment,
    run,
    run_linear,
    solve_profile,
    step,
)
from rdmix.errors import DomainError, NewtonFailure, PositivityLoss
from rdmix.simulate import _march, _reaction_implicit, _StepWorkspace


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
    # for d1 != d2 the split step does not fix the profile; its one-step
    # drift follows the multiplier's forcing and decays as tau grows
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
    grid = cfg.make_grid()
    prof = solve_profile(data, grid)
    state0 = build_initial_state(cfg, prof)
    m0 = conserved_moment(state0, prof)
    result = run(cfg, profile=prof)
    m_end = conserved_moment(result.final_state, prof)
    assert abs(m_end - math.exp(-0.5 * cfg.tau_end) * m0) <= 1e-4 * abs(m0) + 1e-10


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


def test_run_linear_profile_exact_stays_zero():
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    cfg = _config(data, tau_end=0.5, grid_n=801, ic=InitialConditionSpec("profile_exact"))
    records, _ = run_linear(1.0, 1.0, 2.0, "boltzmann", cfg)
    assert all(abs(r.E_phi) <= 1e-12 for r in records)


def test_run_linear_decay_bound():
    data = ProblemData(1, 1, 1, 1, 1, 1, 2)
    cfg = _config(
        data,
        tau_end=1.0,
        grid_n=801,
        dtau_max=2e-3,
        dtau_initial=2e-3,
        ic=InitialConditionSpec("gaussian_bump", amplitude=0.3),
    )
    for kind in ("quadratic", "boltzmann", "power"):
        records, _ = run_linear(1.0, 1.0, 2.0, kind, cfg, p=2.0)
        e0 = records[0].E_phi
        assert e0 > 0
        for rec in records:
            assert rec.E_phi <= math.exp(-0.5 * rec.tau) * e0 * 1.03


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


def _first_diffused_state(data, grid, dtau=1e-3):
    """The certified-run state (bump 0.2, L 16) after the diffusion half of its first step."""
    prof = solve_profile(data, grid)
    cfg = _config(data, grid_n=grid.n, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    state = build_initial_state(cfg, prof)
    ws = _StepWorkspace(grid, data)
    return ws.solver_u.step(state.u, dtau), ws.solver_v.step(state.v, dtau)


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


def test_march_counts_rejections_by_cause():
    cfg = _config(ProblemData(2, 2, 1, 1, 1, 1, 2), tau_end=0.01, dtau_initial=1e-3)
    grid = Grid(16.0, 11)
    failures = [PositivityLoss("p"), NewtonFailure(3, 1.0), NewtonFailure(4, 1.0)]

    def advance(st, dt):
        if failures:
            raise failures.pop(0)
        return State(grid, st.u, st.v, st.tau + dt)

    start = State(grid, np.ones(grid.n), np.ones(grid.n), 0.0)
    _, end, accepted, rejected = _march(cfg, start, advance, lambda st: st.tau)
    assert rejected == {"PositivityLoss": 1, "NewtonFailure": 2}
    assert end.tau == pytest.approx(0.01, abs=1e-12)
    assert accepted > 0


def test_run_samples_through_dissipation_total_once_per_record(monkeypatch):
    from rdmix import entropy

    calls = []
    total = entropy.dissipation_total

    def counting(*args, **kwargs):
        calls.append(args[1].tau)
        return total(*args, **kwargs)

    monkeypatch.setattr(entropy, "dissipation_total", counting)
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    cfg = _config(data, tau_end=0.2, ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))
    result = run(cfg)
    assert len(result.records) == 5
    assert calls == [r.tau for r in result.records]
