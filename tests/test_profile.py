import numpy as np
import pytest
from hypothesis import event, given, settings
from scipy.special import erf

from rdmix import (
    Grid,
    ProblemData,
    SimConfig,
    closed_form_profile,
    profile_invariants,
    solve_profile,
)
from rdmix import fdops
from rdmix.errors import DomainError, NonConvergence, RdmixError
from tests.conftest import default_grid_problems


def test_problem_data_validation():
    with pytest.raises(DomainError):
        ProblemData(0.5, 0.5, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        ProblemData(1, 2, 1, 1, 1, 1, 1)  # beta > alpha
    with pytest.raises(DomainError):
        ProblemData(2, 1, -1, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        ProblemData(2, 1, 1, 1, 1, 0.0, 1)


def test_flat_equilibrium_profile():
    data = ProblemData(2, 1, 1, 2, 1, 1.3, 1.3)
    sol = solve_profile(data, Grid(8.0, 201))
    np.testing.assert_allclose(sol.U, 1.3**1, atol=1e-12)
    np.testing.assert_allclose(sol.V, 1.3**2, atol=1e-12)
    np.testing.assert_allclose(sol.Lambda, 0.0, atol=1e-12)


def test_equal_orders_oracle():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    g = Grid(8.0, 2001)
    sol = solve_profile(data, g)
    expected = 2.5 + 1.5 * erf(g.nodes / 2.0)
    assert np.max(np.abs(sol.U - expected)) <= 1e-6
    assert sol.U[g.n // 2] == pytest.approx(2.5, abs=1e-7)
    assert np.max(np.abs(sol.Lambda)) <= 1e-7  # equal diffusivities


def test_equal_orders_matches_closed_form_under_refinement():
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    errs = []
    for n in (251, 501, 1001):
        g = Grid(16.0, n)
        sol = solve_profile(data, g, tol=1e-10)
        cf = closed_form_profile(data, g)
        errs.append(np.max(np.abs(sol.U - cf.U)))
    # at least second-order decay under grid doubling
    assert errs[1] <= errs[0] / 3.5
    assert errs[2] <= errs[1] / 3.5


def test_unequal_orders_regression_and_invariants():
    data = ProblemData(2, 1, 1, 2, 1, 1, 1.05)
    g = Grid(8.4, 2101)
    sol = solve_profile(data, g, tol=1e-8)
    assert sol.residual_norm <= 1e-8
    checks = profile_invariants(sol)
    assert all(checks.values()), checks
    assert sol.U[g.n // 2] == pytest.approx(1.0252547560810719, abs=1e-9)
    fine = solve_profile(data, Grid(8.4, 4201), tol=1e-8)
    assert abs(sol.U[g.n // 2] - fine.U[fine.grid.n // 2]) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(data=default_grid_problems())
def test_default_grid_profile_passes_its_invariants(data):
    # on the draws of default_grid_problems the solve either passes every invariant
    # with flat ends or raises a typed error
    grid = SimConfig(data, 1.0).make_grid()
    try:
        sol = solve_profile(data, grid)
    except RdmixError as exc:
        event(f"raised {type(exc).__name__}")
        return
    arrays = (sol.U, sol.V, sol.Lambda, sol.U1, sol.U2, sol.V1, sol.V2)
    assert all(np.isfinite(a).all() for a in arrays)
    checks = profile_invariants(sol)
    assert all(checks.values()), checks
    J = fdops.equilibrium_jump(((data.u_minus, data.u_plus), (data.v_minus, data.v_plus)))
    assert max(np.abs(sol.U1[[0, -1]]).max(), np.abs(sol.V1[[0, -1]]).max()) <= 1e-9 * J


def test_large_flat_end_dips_within_the_row_scaled_monotone_slack():
    # V runs from 1 to 528.  The Newton solve stops at its roundoff floor (residual
    # 4.2e-9), which leaves U 110 ulps above u+ on its flat right end and falling to
    # u+ at L, so V falls by 1.02e-12 at y = 44.76: within 1e-12 of V's scale, 528
    data = ProblemData(3.3509711550677466, 1.0, 9.4375, 9.4375 * 10.0**0.25, 1.0, 1.0,
                       10.0**0.8125)
    sol = solve_profile(data, SimConfig(data, 1.0).make_grid())
    assert profile_invariants(sol)["monotone"]


def test_monotone_profiles():
    for alpha, beta, d1, d2 in ((1, 1, 1, 3), (1.5, 1.5, 2, 1), (2, 1, 1, 2), (4, 1, 1, 3)):
        data = ProblemData(alpha, beta, d1, d2, 1, 1, 2)
        sol = solve_profile(data, Grid(16.0, 801))
        assert np.all(np.diff(sol.U) >= -1e-12)
        assert np.all(np.diff(sol.V) >= -1e-12)


def test_flatness_scaling():
    sups = []
    for ap in (2.0, 1.5, 1.2, 1.1, 1.05):
        data = ProblemData(2, 1, 1, 2, 1, 1, ap)
        sol = solve_profile(data, Grid(16.0, 1001))
        sups.append(float(np.max(np.abs(sol.Lambda))))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_multiplier_consistency():
    data = ProblemData(3, 2, 1, 2, 1.5, 1, 1.4)
    sol = solve_profile(data, Grid(16.0, 1501), tol=1e-9)
    assert sol.multiplier_mismatch() <= 1e-9


def test_nonconvergence_reported():
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    with pytest.raises(NonConvergence):
        solve_profile(data, Grid(16.0, 801), tol=1e-30)


def test_closed_form_requires_equal_orders():
    with pytest.raises(DomainError):
        closed_form_profile(ProblemData(2, 1, 1, 1, 1, 1, 2), Grid(8.0, 101))


def test_closed_form_examples():
    g = Grid(16.0, 1601)
    # equal diffusivities: multiplier vanishes
    sol = closed_form_profile(ProblemData(2, 2, 1.5, 1.5, 1, 1, 2), g)
    np.testing.assert_allclose(sol.Lambda, 0.0, atol=1e-15)
    # flat data
    flat = closed_form_profile(ProblemData(2, 2, 1, 3, 1, 1.2, 1.2), g)
    np.testing.assert_allclose(flat.U, 1.2**2, atol=1e-14)
    # midpoint and odd symmetry of the second derivative
    mid = closed_form_profile(ProblemData(1, 1, 1, 3, 1, 1, 2), g)
    i0 = g.n // 2
    assert mid.U[i0] == pytest.approx(1.5, abs=1e-14)
    assert mid.Lambda[i0] == pytest.approx(0.0, abs=1e-14)


def test_linear_diffusion_profile():
    # at alpha = beta = 1 and d1 = d2 = D the profile solves (D U)'' + (y/2) U' = 0
    g = Grid(8.0, 4001)
    flat = closed_form_profile(ProblemData(1, 1, 1, 1, 1, 2, 2), g)
    assert np.max(np.abs(flat.U - 2.0)) == 0.0
    U = closed_form_profile(ProblemData(1, 1, 1, 1, 1, 1, 2), g).U
    assert U[g.n // 2] == pytest.approx(1.5, abs=1e-14)
    resid = fdops.scalar_residual(g, 1.0 * U, U)
    assert np.max(np.abs(resid[1:-1])) <= 1e-6


def test_fdops_derivatives_exact_on_low_degree_polynomials():
    # every row of the stencil table, the one-sided end rows included, is
    # exact on quadratics (first derivative) and cubics (second derivative)
    g = Grid(2.0, 41)
    y = g.nodes
    np.testing.assert_allclose(fdops.diff1(g, 3.0 * y**2 - y + 2.0), 6.0 * y - 1.0, atol=1e-11)
    np.testing.assert_allclose(fdops.diff2(g, y**3 - 2.0 * y**2), 6.0 * y - 4.0, atol=1e-10)
    resid = fdops.scalar_residual(g, y**3, y**2)
    np.testing.assert_allclose(resid[1:-1], 6.0 * y[1:-1] + y[1:-1] ** 2, atol=1e-10)
    assert resid[0] == resid[-1] == 0.0


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    # tol = inf would return the erf initial guess as the profile
    with pytest.raises(DomainError, match="finite and positive"):
        solve_profile(ProblemData(1.5, 1.5, 1, 1, 1, 1, 1.5), Grid(16.0, 201), tol=tol)


@pytest.mark.parametrize("alpha, beta, a_minus, a_plus", [
    (2, 2, 1, 1e200), (3, 1, 1, 1e120), (3, 1, 1e120, 1), (2, 1, np.float64(1e160), 1)])
def test_equilibria_past_the_float_range_are_rejected(alpha, beta, a_minus, a_plus):
    with pytest.raises(DomainError, match="leaves the float range"):
        ProblemData(alpha, beta, 1, 1, 1, a_minus, a_plus)


def test_non_finite_newton_residual_is_a_domain_error():
    # A+^2 = 1e308 is finite, but the residual at the first iterate overflows
    data = ProblemData(2, 1, 1, 1, 1, 1, 1e154)
    with pytest.raises(DomainError, match="not finite"):
        solve_profile(data, Grid(16.0, 201))


def _singular_jacobian(grid, gp, wp):
    return np.zeros((5, grid.n - 2))


def test_singular_newton_jacobian_is_a_nonconvergence(monkeypatch, fresh_profile_memo):
    monkeypatch.setattr(fdops, "jacobian_banded", _singular_jacobian)
    with pytest.raises(NonConvergence):
        solve_profile(ProblemData(2, 1, 1, 2, 1, 1, 2), Grid(16.0, 201))


def test_newton_iteration_limit_is_a_nonconvergence(monkeypatch):
    # a memo key no other test solves (a raise is never memoized): with no Newton
    # step allowed the start's residual is raised, with one step the smaller
    # residual after it, so the iteration limit and not the damping raised
    data, g = ProblemData(3, 1, 1, 3, 1, 1, 2.5), Grid(12.0, 151)
    raised = []
    for limit in (0, 1):
        monkeypatch.setattr("rdmix.profile._MAX_NEWTON", limit)
        with pytest.raises(NonConvergence) as exc:
            solve_profile(data, g)
        assert exc.value.iterations == limit
        raised.append(exc.value.residual)
    assert raised[1] < raised[0]


def test_a_memo_entry_hides_a_patched_solver(monkeypatch, fresh_profile_memo):
    # why a test that patches beneath solve_profile empties the memo first: an
    # entry made before the patch is served, and the patched path never runs
    data, g = ProblemData(2, 1, 1, 2, 1, 1, 2), Grid(16.0, 201)
    sol = solve_profile(data, g)
    monkeypatch.setattr(fdops, "jacobian_banded", _singular_jacobian)
    assert solve_profile(data, g) is sol
    fresh_profile_memo.cache_clear()
    with pytest.raises(NonConvergence):
        solve_profile(data, g)


_ARRAYS = ("U", "V", "Lambda", "U1", "U2", "V1", "V2", "UV", "d_UV", "kU_alpha")


def test_a_repeated_solve_is_the_same_read_only_solution(fresh_profile_memo):
    data, g = ProblemData(2, 1, 1, 2, 1, 1, 2), Grid(16.0, 201)
    sol = solve_profile(data, g)
    assert solve_profile(data, g) is sol
    info = fresh_profile_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    for name in _ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol, name)[0] = 0.0


def test_closed_form_profile_caches_read_only_arrays():
    sol = closed_form_profile(ProblemData(2, 2, 1, 3, 1, 1, 2), Grid(8.0, 101))
    for name in ("UV", "d_UV", "kU_alpha"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol, name)[0] = 0.0


@pytest.mark.parametrize(
    "data, tol",
    [(ProblemData(2, 1, 1, 1, 1, 1, 1e154), 1e-8), (ProblemData(2, 1, 1, 2, 1, 1, 2), np.nan)],
)
def test_a_failed_solve_is_raised_on_every_call_and_never_stored(fresh_profile_memo, data, tol):
    for _ in range(2):
        with pytest.raises(DomainError):
            solve_profile(data, Grid(16.0, 201), tol=tol)
    info = fresh_profile_memo.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_default_and_explicit_tolerance_share_one_entry(fresh_profile_memo):
    data, g = ProblemData(2, 1, 1, 2, 1, 1, 2), Grid(16.0, 201)
    sol = solve_profile(data, g)
    assert solve_profile(data, g, tol=1e-8) is sol
    assert solve_profile(data, g, tol=np.float64(1e-8)) is sol
    assert solve_profile(data, g, tol=1e-9) is not sol
    assert fresh_profile_memo.cache_info().currsize == 2


def test_the_memo_keeps_the_last_eight_solutions(fresh_profile_memo):
    g = Grid(16.0, 201)
    datas = [ProblemData(2, 1, 1, 2, 1, 1, 1.5 + 0.1 * i) for i in range(9)]
    first = solve_profile(datas[0], g)
    for data in datas[1:]:
        solve_profile(data, g)
    assert fresh_profile_memo.cache_info().currsize == 8
    assert solve_profile(datas[-1], g) is solve_profile(datas[-1], g)
    again = solve_profile(datas[0], g)  # evicted: solved anew, to the same bits
    assert again is not first
    assert all(np.array_equal(getattr(again, k), getattr(first, k)) for k in _ARRAYS)
