"""The mesh, quadrature and stencils of ``fdops``; the drift-diffusion solver's
cached factors give backward-stable steps near solve_banded's answer."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from rdmix import Grid, default_half_width, fdops, integrate
from rdmix.errors import DomainError
from rdmix.fdops import DriftDiffusionSolver, _matvec, diff1, operators
from tests.conftest import stepped


def test_grid_construction():
    g = Grid(2.0, 5)
    assert g.h == 1.0
    np.testing.assert_allclose(g.nodes, [-2, -1, 0, 1, 2])
    assert np.max(np.abs(np.diff(g.nodes) - g.h)) <= 1e-12 * g.h


@pytest.mark.parametrize("bad", [(0.0, 5), (-1.0, 5), (1.0, 2), (1.0, 4), (1.0, 1), (16.0, 3)])
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


@pytest.mark.parametrize("n", [5, 7, 2001])
def test_diff1_equals_the_banded_product_bit_for_bit(n):
    # the slice-wise rows are D1 of operators() applied by _matvec, and the
    # end rows are its one-sided second-order differences
    g = Grid(16.0, n)
    rng = np.random.default_rng(n)
    for f in (rng.standard_normal(n), np.exp(g.nodes / 4.0), rng.standard_normal((2, n))):
        expected = _matvec(operators(g)[1], f)
        expected[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * g.h)
        expected[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * g.h)
        got = diff1(g, f)
        assert got.shape == f.shape
        assert got.tobytes() == expected.tobytes()


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


def _full_band(grid, d, dtau):
    """The whole step matrix I - dtau (d D2 + (y/2) D1) in the solve_banded layout."""
    D2, _, Y1 = operators(grid)
    ab = -(dtau * (D2 * d + Y1))
    ab[2] += 1.0
    return ab


def _check_step(solver, f, dtau):
    """One step is backward stable, near solve_banded's answer and exact at the ends."""
    grid, bcs = solver.grid, (solver.bc_left, solver.bc_right)
    x = stepped(solver, f, dtau)
    ab = _full_band(grid, solver.d, dtau)
    b = f.copy()
    b[0], b[-1] = bcs
    residual = np.max(np.abs(_matvec(ab, x) - b))
    norm_a = np.max(_matvec(np.abs(ab), np.ones(grid.n)))
    assert residual <= 1e-14 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
    reference = solve_banded((2, 2), ab, b)
    assert np.max(np.abs(x - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert (x[0], x[-1]) == bcs


@pytest.mark.parametrize(
    "n, half_width, d",
    [(11, 4.0, 1.0), (401, 16.0, 3.0), (2001, 16.0, 0.25), (2001, 8.0, 50.0)],
)
def test_step_without_interchanges_is_backward_stable(n, half_width, d, rng):
    grid = Grid(half_width, n)
    solver = DriftDiffusionSolver(grid, d, 1.0, 2.0)
    dtaus = [1e-3, 1e-2, 2.5e-4, 1.0]
    for dtau in dtaus + dtaus:  # the second pass hits the cache
        _check_step(solver, 1.0 + rng.random(n), dtau)
    # every step size took the two triangular sweeps
    assert (solver.factorizations, solver.pivoted_factorizations) == (4, 0)


def test_convection_dominated_step_keeps_pivoted_factors(rng):
    grid = Grid(16.0, 401)
    solver = DriftDiffusionSolver(grid, 0.01, 1.0, 2.0)
    _check_step(solver, 1.0 + rng.random(grid.n), 1e-3)
    assert (solver.factorizations, solver.pivoted_factorizations) == (1, 0)
    _check_step(solver, 1.0 + rng.random(grid.n), 0.1)
    assert (solver.factorizations, solver.pivoted_factorizations) == (2, 1)


def test_unscaled_factors_reproduce_the_interior_band():
    grid, d, dtau = Grid(16.0, 401), 3.0, 1e-2
    solver = DriftDiffusionSolver(grid, d, 1.0, 2.0)
    (lower, upper, diag), piv, _ = solver._factors(dtau)
    assert piv is None
    m = grid.n - 2
    L, U, B = np.eye(m), np.eye(m), np.zeros((m, m))
    ab = _full_band(grid, d, dtau)[:, 1:-1]
    for k, off in enumerate((2, 1, 0, -1, -2)):  # entry (i, i + off)
        i = np.arange(max(0, -off), m - max(0, off))
        B[i, i + off] = ab[k, i + off]
        if off > 0:
            U[i, i + off] = upper[2 - off, i + off]
        elif off < 0:
            L[i, i + off] = lower[-off, i + off]
    U = np.diag(diag) @ U  # L diag(d) U~, both triangles unit-diagonal
    assert np.all(np.abs(L @ U - B) <= 4 * np.finfo(float).eps * (np.abs(L) @ np.abs(U)))


def test_step_after_cache_cleared(rng):
    grid = Grid(16.0, 401)
    solver = DriftDiffusionSolver(grid, 2.0, 1.5, 0.5)
    f = 1.0 + rng.random(grid.n)
    first = stepped(solver, f, 1e-3)
    for k in range(1, 12):  # more step sizes than the cache holds
        stepped(solver, f, 1e-3 * (1.0 + 0.1 * k))
    assert 1e-3 not in solver._cache
    again = stepped(solver, f, 1e-3)
    assert np.array_equal(again, first)
    assert np.array_equal(again, stepped(solver, f, 1e-3))  # from the cache
    assert np.array_equal(again, stepped(DriftDiffusionSolver(grid, 2.0, 1.5, 0.5), f, 1e-3))
    assert solver.factorizations == 13


def test_step_rejects_non_finite_input():
    # the solver does not check its row (simulate._diffuse does), but a step size
    # that is not finite cannot be factored
    grid = Grid(8.0, 101)
    solver = DriftDiffusionSolver(grid, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        solver.step(np.ones(grid.n), np.nan)


def _entry_by_entry_operators(grid):
    """D2, D1 and (y/2) D1 placed one stencil weight at a time from the stencil table."""
    n, h, y = grid.n, grid.h, grid.nodes
    bands = [np.zeros((5, n)) for _ in range(3)]
    for i in range(1, n - 1):
        offs, w2, s2, w1, s1 = fdops._FIVE_POINT if 2 <= i <= n - 3 else fdops._THREE_POINT
        for off, a2, a1 in zip(offs, w2, w1):
            # entry (i, i + off) of a band lies at row 2 - off, column i + off
            bands[0][2 - off, i + off] = a2 * (1.0 / (s2 * h**2))
            bands[1][2 - off, i + off] = a1 * (1.0 / (s1 * h))
            bands[2][2 - off, i + off] = (y[i] / 2.0) * a1 * (1.0 / (s1 * h))
    return bands


@pytest.mark.parametrize("n", [5, 7, 2001])
def test_operators_equal_the_stencil_table_bit_for_bit(n):
    grid = Grid(16.0, n)
    for got, want in zip(operators(grid), _entry_by_entry_operators(grid)):
        assert got.shape == (5, n)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[2, 1] = 0.0
