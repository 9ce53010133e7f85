import numpy as np
import pytest
from scipy.special import erf

from rdmix import (
    Grid,
    ProblemData,
    closed_form_profile,
    linear_diffusion_profile,
    profile_invariants,
    solve_profile,
)
from rdmix import fdops
from rdmix.errors import DomainError, NonConvergence


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
    g = Grid(8.0, 4001)
    assert np.max(np.abs(linear_diffusion_profile(1.0, 2.0, 2.0, g) - 2.0)) == 0.0
    U = linear_diffusion_profile(1.0, 0.0, 2.0, g)
    assert U[g.n // 2] == pytest.approx(1.0, abs=1e-14)
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


def test_singular_newton_jacobian_is_a_nonconvergence(monkeypatch):
    monkeypatch.setattr(fdops, "jacobian_banded", lambda grid, gp, wp: np.zeros((5, grid.n - 2)))
    with pytest.raises(NonConvergence):
        solve_profile(ProblemData(2, 1, 1, 2, 1, 1, 2), Grid(16.0, 201))
