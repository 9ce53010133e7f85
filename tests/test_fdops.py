"""The mesh, quadrature and stencils of ``fdops``; the drift-diffusion solver's
cached factors give backward-stable steps near solve_banded's answer; the
default grid follows its rule."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from rdmix import Grid, default_grid, fdops, integrate
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


@pytest.mark.parametrize("d1, d2, ends, J, L, n", [
    # tests/test_runio.py's MINIMAL, (2, 1) with A+- = (1, 1.2): J = 1
    (1.0, 1.0, ((1.0, 1.2), (1.0, 1.44)), 1.0, 10.513043539513864, 659),
    # the same with d2 = 3.7, whose profile.csv tests/test_runio.py pins
    (1.0, 3.7, ((1.0, 1.2), (1.0, 1.44)), 1.0, 20.22224301396219, 1265),
    # ROADMAP's M2, (1, 1) with d = (1, 5) and A+- = (1, 3): J = 2
    (1.0, 5.0, ((1.0, 3.0), (1.0, 3.0)), 2.0, 23.800911031508225, 1489),
], ids=["minimal", "minimal_d2_3.7", "m2"])
def test_default_grid_of_documented_configs(d1, d2, ends, J, L, n):
    assert fdops.equilibrium_jump(ends) == J
    grid = default_grid(d1, d2, ends)
    assert (grid.half_width, grid.n) == (L, n)
    # the slowest tail beyond L, times the jump, is the tail tolerance
    tail = J * math.exp(-(L**2) / (4.0 * max(d1, d2)))
    assert tail == pytest.approx(fdops._TAIL_TOLERANCE, rel=1e-12)
    # the spacing is at most _SPACING diffusion lengths, and one node fewer per side
    # would exceed it
    h = fdops._SPACING * math.sqrt(min(d1, d2))
    assert grid.h <= h < 2.0 * L / (n - 3)


def test_equilibrium_jump_is_the_larger_species_jump_and_at_least_one():
    # (2, 1) with A+- = (1, 3): u = A jumps by 2, v = A^2 by 8
    assert fdops.equilibrium_jump(((1.0, 3.0), (1.0, 9.0))) == 8.0
    assert fdops.equilibrium_jump(((9.0, 1.0), (3.0, 1.0))) == 8.0
    assert fdops.equilibrium_jump(((1.0, 1.2), (1.0, 1.44))) == 1.0


ONE = ((1.0, 2.0), (1.0, 2.0))  # end values whose jump J is 1


def test_default_grid_edge_half_widths():
    # a half-width shorter than two spacings still gets the smallest grid
    assert default_grid(1.0, 1.0, ONE, half_width=0.01).n == 5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="half_width"):
            default_grid(1.0, 1.0, ONE, half_width=bad)


def test_default_grid_past_the_node_limit_is_refused_before_any_array():
    # d2 / d1 = 1e8 asks for about 6.6 million nodes
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"grid\.n .*grid\.L"):
            default_grid(1e-4, 1e4, ONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the limit itself is allowed: L / h = 50000 cells a side
    h = fdops._SPACING
    assert default_grid(1.0, 1.0, ONE, half_width=50_000 * h).n == fdops._MAX_DEFAULT_NODES
    with pytest.raises(DomainError, match="grid.n"):
        default_grid(1.0, 1.0, ONE, half_width=50_001 * h)


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


def _check_backward_stable(grid, d, bcs, f, x, dtau):
    """The stepped row ``x`` of ``f`` solves the step matrix to a few rounding errors."""
    ab = _full_band(grid, d, dtau)
    b = f.copy()
    b[0], b[-1] = bcs
    residual = np.max(np.abs(_matvec(ab, x) - b))
    norm_a = np.max(_matvec(np.abs(ab), np.ones(grid.n)))
    assert residual <= 1e-14 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
    return ab, b


def _check_step(solver, f, dtau):
    """One step of a one-row solver is backward stable, near solve_banded's answer and
    exact at the ends."""
    (d,), bcs = solver.d, (*solver.bc_left, *solver.bc_right)
    x = stepped(solver, f, dtau)
    ab, b = _check_backward_stable(solver.grid, d, bcs, f, x, dtau)
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
    lower, upper, diag, pivoted, _ = solver._factors(dtau)
    assert not pivoted
    # the one row's interior columns of the block factors; its two ends are identity rows
    assert np.all(diag[[0, -1]] == 1.0)
    assert not lower[:, [0, -1]].any() and not upper[:, [0, -1]].any()
    lower, upper, diag = lower[:, 1:-1], upper[:, 1:-1], diag[1:-1]
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
    # one row, then two rows whose second keeps pivoted factors (from dtau 0.05 on)
    cases = [(((2.0,), (1.5,), (0.5,)), 1e-3), (((2.0, 0.01), (1.5, 1.0), (0.5, 2.0)), 0.05)]
    for rows, dtau in cases:
        solver = DriftDiffusionSolver(grid, *rows)
        f = 1.0 + rng.random((len(solver.d), grid.n))
        first = stepped(solver, f, dtau)
        for k in range(1, 12):  # more step sizes than the cache holds
            stepped(solver, f, dtau * (1.0 + 0.1 * k))
        assert dtau not in solver._cache
        again = stepped(solver, f, dtau)
        assert np.array_equal(again, first)
        assert np.array_equal(again, stepped(solver, f, dtau))  # from the cache
        assert np.array_equal(again, stepped(DriftDiffusionSolver(grid, *rows), f, dtau))
        assert solver.factorizations == 13 * len(solver.d)
        assert solver.pivoted_factorizations == 13 * (len(solver.d) - 1)


@settings(deadline=None)
@given(
    half_n=st.integers(2, 200),
    half_width=st.floats(2.0, 32.0),
    d=st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
    ends=st.tuples(*[st.floats(0.01, 10.0)] * 4),
    dtau=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# the second row keeps pivoted factors, so the block sweeps and dgbtrs share a step
@example(half_n=200, half_width=16.0, d=(3.0, 0.01), ends=(1.0, 1.5, 2.0, 0.5), dtau=0.1, seed=0)
def test_block_step_equals_one_row_steps(half_n, half_width, d, ends, dtau, seed):
    # a two-row solver's step against two one-row solvers' steps, bit for bit, and
    # each row against the step matrix
    grid = Grid(half_width, 2 * half_n + 1)
    left, right = ends[:2], ends[2:]
    f = np.random.default_rng(seed).uniform(0.01, 10.0, (2, grid.n))
    both = DriftDiffusionSolver(grid, d, left, right)
    got = stepped(both, f, dtau)
    singles = [DriftDiffusionSolver(grid, d[r], left[r], right[r]) for r in range(2)]
    want = np.array([stepped(single, f[r], dtau) for r, single in enumerate(singles)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert tuple(got[:, 0]) == left and tuple(got[:, -1]) == right
    assert both.pivoted_factorizations == sum(s.pivoted_factorizations for s in singles)
    for r in range(2):
        _check_backward_stable(grid, d[r], (left[r], right[r]), f[r], got[r], dtau)


def test_step_rejects_non_finite_input():
    # the solver does not check its row (simulate.step does), but a step size
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
