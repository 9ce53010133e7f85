"""The drift-diffusion solver's cached LU factors give solve_banded's answer exactly."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from rdmix import Grid
from rdmix.fdops import DriftDiffusionSolver, operators


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
