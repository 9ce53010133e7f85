"""The mesh, quadrature and stencils of ``fdops``; the drift-diffusion solver's
cached LU factors give solve_banded's answer exactly."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from rdmix import Grid, default_half_width, integrate
from rdmix.errors import DomainError
from rdmix.fdops import DriftDiffusionSolver, _matvec, diff1, operators


def test_grid_construction():
    g = Grid(2.0, 5)
    assert g.h == 1.0
    np.testing.assert_allclose(g.nodes, [-2, -1, 0, 1, 2])
    assert np.max(np.abs(np.diff(g.nodes) - g.h)) <= 1e-12 * g.h


@pytest.mark.parametrize("bad", [(0.0, 5), (-1.0, 5), (1.0, 2), (1.0, 4), (1.0, 1)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(DomainError):
        Grid(*bad)


def test_default_half_width():
    assert default_half_width(1.0, 2.0) == 16.0
    assert default_half_width(0.3, 0.5) == 8.0


def test_diff1_constant_and_linear():
    g = Grid(3.0, 31)
    np.testing.assert_allclose(diff1(g, np.full(g.n, 4.2)), 0.0, atol=1e-14)
    np.testing.assert_allclose(diff1(g, g.nodes), 1.0, atol=1e-13)


def test_diff1_exact_on_quadratics():
    g = Grid(1.0, 101)
    err = diff1(g, g.nodes**2) - 2.0 * g.nodes
    assert np.max(np.abs(err)) <= 1e-10
    # rows of a stacked array are differentiated as if one by one
    rows = np.stack((g.nodes**2, np.exp(g.nodes)))
    stacked = diff1(g, rows)
    assert np.array_equal(stacked[0], diff1(g, rows[0]))
    assert np.array_equal(stacked[1], diff1(g, rows[1]))
    D2, D1, Y1 = operators(g)
    for ab in (D2, D1, Y1):
        assert np.array_equal(_matvec(ab, rows)[1], _matvec(ab, rows[1]))


def test_integrate_constant():
    g = Grid(5.0, 11)
    assert integrate(g, np.ones(g.n)) == pytest.approx(10.0, abs=1e-12)


def test_integrate_gaussian():
    g = Grid(8.0, 2001)
    assert integrate(g, np.exp(-(g.nodes**2))) == pytest.approx(np.sqrt(np.pi), abs=1e-8)


def test_integrate_odd_function_vanishes():
    g = Grid(4.0, 401)
    f = g.nodes**3 * np.exp(-np.abs(g.nodes))
    assert abs(integrate(g, f)) <= 1e-12


def test_integrate_linearity(rng):
    g = Grid(2.0, 201)
    f, h = rng.normal(size=g.n), rng.normal(size=g.n)
    a, b = 1.7, -0.3
    lhs = integrate(g, a * f + b * h)
    rhs = a * integrate(g, f) + b * integrate(g, h)
    scale = abs(lhs) + abs(rhs) + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_fundamental_theorem_consistency():
    g = Grid(3.0, 401)
    f = np.tanh(g.nodes)
    assert integrate(g, diff1(g, f)) == pytest.approx(f[-1] - f[0], abs=5 * g.h**2)


def test_value_validation():
    g = Grid(1.0, 11)
    with pytest.raises(DomainError):
        integrate(g, np.ones((2, g.n)))
    with pytest.raises(DomainError):
        integrate(g, np.array([np.nan] * g.n))


def _reference(grid, d, dtau, f, bc_left, bc_right):
    D2, _, Y1 = operators(grid)
    ab = -(dtau * (D2 * d + Y1))
    ab[2] += 1.0
    rhs = f.copy()
    rhs[0], rhs[-1] = bc_left, bc_right
    return solve_banded((2, 2), ab, rhs)


@pytest.mark.parametrize(
    "n, half_width, d",
    [(11, 4.0, 1.0), (401, 16.0, 3.0), (2001, 16.0, 0.25), (2001, 8.0, 50.0)],
)
def test_step_matches_solve_banded_bit_for_bit(n, half_width, d, rng):
    grid = Grid(half_width, n)
    solver = DriftDiffusionSolver(grid, d, 1.0, 2.0)
    dtaus = [1e-3, 1e-2, 2.5e-4, 1.0]
    for dtau in dtaus + dtaus:  # the second pass hits the cache
        f = 1.0 + rng.random(n)
        out = solver.step(f, dtau)
        assert np.array_equal(out, _reference(grid, d, dtau, f, 1.0, 2.0))


def test_step_after_cache_cleared(rng):
    grid = Grid(16.0, 401)
    solver = DriftDiffusionSolver(grid, 2.0, 1.5, 0.5)
    f = 1.0 + rng.random(grid.n)
    first = solver.step(f, 1e-3)
    for k in range(1, 12):  # more step sizes than the cache holds
        solver.step(f, 1e-3 * (1.0 + 0.1 * k))
    assert 1e-3 not in solver._cache
    again = solver.step(f, 1e-3)
    assert np.array_equal(again, first)
    assert np.array_equal(again, _reference(grid, 2.0, 1e-3, f, 1.5, 0.5))


def test_step_rejects_non_finite_input():
    grid = Grid(8.0, 101)
    solver = DriftDiffusionSolver(grid, 1.0, 1.0, 2.0)
    f = np.ones(grid.n)
    f[50] = np.nan
    with pytest.raises(ValueError):
        solver.step(f, 1e-3)
    f[50] = np.inf
    with pytest.raises(ValueError):
        solver.step(f, 1e-3)
    with pytest.raises(ValueError):
        solver.step(np.ones(grid.n), np.nan)
