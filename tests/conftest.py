from __future__ import annotations

import numpy as np
import pytest

from rdmix import Grid, ProblemData, closed_form_profile, solve_profile


@pytest.fixture(scope="session")
def grid_8():
    return Grid(8.0, 2001)


@pytest.fixture(scope="session")
def equal_orders_profile(grid_8):
    """alpha = beta = 2, unequal diffusivities: nonzero multiplier."""
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    return solve_profile(data, Grid(16.0, 2001))


@pytest.fixture(scope="session")
def unequal_orders_profile():
    data = ProblemData(2, 1, 1, 2, 1, 1, 1.2)
    return solve_profile(data, Grid(16.0, 2001))


@pytest.fixture()
def fresh_profile_memo():
    """The solve_profile memo, emptied before and after the test.

    A test that patches code beneath ``solve_profile`` takes it: an entry made
    by an earlier test would otherwise be served and the patched path never run,
    and a solution made under the patch would be served to later tests.
    """
    from rdmix.profile import _solve_profile

    _solve_profile.cache_clear()
    yield _solve_profile
    _solve_profile.cache_clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(20230405)


def flat_profile(grid, value_u=1.0, value_v=1.0, data=None):
    """Hand-built constant profile for pure-functional unit tests."""
    from rdmix.profile import ProfileSolution

    if data is None:
        data = ProblemData(2, 1, 1, 1, 1, 1, 1)
    n = grid.n
    z = np.zeros(n)
    return ProfileSolution(
        grid=grid,
        data=data,
        U=np.full(n, float(value_u)),
        V=np.full(n, float(value_v)),
        Lambda=z.copy(),
        U1=z.copy(),
        U2=z.copy(),
        V1=z.copy(),
        V2=z.copy(),
        residual_norm=0.0,
    )


def stepped(solver, f, dtau):
    """The drift-diffusion step of a float64 copy of ``f`` (the solver overwrites its row)."""
    x = np.array(f, dtype=float)
    solver.step(x, dtau)
    return x
