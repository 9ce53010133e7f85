"""Shared finite-difference machinery for the profile solver and time integrator.

Interior nodes use fourth-order five-point stencils; the two nodes adjacent to
the boundary fall back to the standard three-point second-order stencils (the
solutions are flat to near machine precision there).  Both stencils come from
one weight table, from which each grid gets its banded D2 and (y/2) D1
operators once.  The steady profile residual, its Jacobian and the implicit
time-step matrix are all built from that pair, so the profile equation and
the integrator share one spatial operator.  A solved profile is a fixed
point of the scheme only when d1 = d2: otherwise the diffusion half of a step
moves it off the reaction equilibrium by dtau times the multiplier, and the
reaction half pulls it back only in part, more fully as e^tau grows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .grids import Grid

# The stencil table: (offsets, second-derivative weights, their divisor in
# units of h^2, first-derivative weights, their divisor in units of h).  The
# five-point set serves nodes 2 .. n-3, the three-point set nodes 1 and n-2.
_FIVE_POINT = (
    (-2, -1, 0, 1, 2),
    (-1.0, 16.0, -30.0, 16.0, -1.0),
    12.0,
    (1.0, -8.0, 0.0, 8.0, -1.0),
    12.0,
)
_THREE_POINT = ((-1, 0, 1), (1.0, -2.0, 1.0), 1.0, (-1.0, 0.0, 1.0), 2.0)

# Column offsets j - i of the rows of a banded array in the
# ``scipy.linalg.solve_banded`` layout with two sub- and two superdiagonals,
# where ``ab[2 + i - j, j]`` holds entry (i, j).
_OFFSETS = (2, 1, 0, -1, -2)


@lru_cache(maxsize=2)
def operators(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded D2, D1 and (y/2) D1 of the grid; rows 0 and n-1 are zero.

    The arrays are cached per grid and read-only.
    """
    y, h, n = grid.nodes, grid.h, grid.n
    D2, D1, Y1 = (np.zeros((5, n)) for _ in range(3))
    stencils = ((_FIVE_POINT, np.arange(2, n - 2)), (_THREE_POINT, np.array([1, n - 2])))
    for (offs, w2, s2, w1, s1), rows in stencils:
        c2, c1 = 1.0 / (s2 * h**2), 1.0 / (s1 * h)
        for off, a2, a1 in zip(offs, w2, w1):
            cols = rows + off
            D2[2 - off, cols] = a2 * c2
            D1[2 - off, cols] = a1 * c1
            Y1[2 - off, cols] = (y[rows] / 2.0) * a1 * c1
    for ab in (D2, D1, Y1):
        ab.setflags(write=False)
    return D2, D1, Y1


def _matvec(ab: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product of a banded array (``solve_banded`` layout) with a vector."""
    n = f.shape[0]
    out = np.zeros(n)
    for k, off in enumerate(_OFFSETS):
        if off >= 0:
            out[: n - off] += ab[k, off:] * f[off:]
        else:
            out[-off:] += ab[k, : n + off] * f[: n + off]
    return out


def scalar_residual(grid: Grid, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Evaluate D2[G] + (y/2) D1[W] on interior nodes; boundary rows are zero."""
    D2, _, Y1 = operators(grid)
    return _matvec(D2, G) + _matvec(Y1, W)


def jacobian_banded(grid: Grid, Gp: np.ndarray, Wp: np.ndarray) -> np.ndarray:
    """Banded (2,2) Jacobian of ``scalar_residual`` w.r.t. the interior unknowns.

    ``Gp`` and ``Wp`` are the nodewise derivatives dG/dU and dW/dU, which
    scale the columns of D2 and (y/2) D1.  Layout is the
    ``scipy.linalg.solve_banded`` convention over unknowns U_1 .. U_{n-2}.
    """
    D2, _, Y1 = operators(grid)
    return D2[:, 1:-1] * Gp[1:-1] + Y1[:, 1:-1] * Wp[1:-1]


def diff1(grid: Grid, f: np.ndarray) -> np.ndarray:
    """First derivative with the solver's stencils (4th order inside)."""
    h = grid.h
    out = _matvec(operators(grid)[1], f)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def diff2(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second derivative with the solver's stencils (4th order inside)."""
    h2 = grid.h**2
    out = _matvec(operators(grid)[0], f)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


class DriftDiffusionSolver:
    """Backward-Euler operator for u_tau = d u_yy + (y/2) u_y with pinned ends.

    A step solves (I - dtau (d D2 + (y/2) D1)) u+ = u; the zero boundary rows
    of the operators leave identity rows there (Dirichlet).  The LAPACK
    ``dgbtrf`` LU factors of that matrix and their pivots are cached per step
    size, so a step is one ``dgbtrs`` solve; this is what
    ``scipy.linalg.solve_banded((2, 2), ...)`` computes, bit for bit.
    """

    def __init__(self, grid: Grid, d: float, bc_left: float, bc_right: float):
        self.grid = grid
        self.d = float(d)
        self.bc_left = float(bc_left)
        self.bc_right = float(bc_right)
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _factors(self, dtau: float) -> tuple[np.ndarray, np.ndarray]:
        lu_piv = self._cache.get(dtau)
        if lu_piv is not None:
            return lu_piv
        D2, _, Y1 = operators(self.grid)
        # dgbtrf wants two extra rows on top for the fill-in of pivoting
        ab = np.zeros((7, self.grid.n), order="F")
        ab[2:] = -(dtau * (D2 * self.d + Y1))
        ab[4] += 1.0
        lu, piv, info = dgbtrf(np.asarray_chkfinite(ab), 2, 2, overwrite_ab=True)
        if info != 0:
            raise LinAlgError(f"banded LU factorization failed (dgbtrf info {info})")
        if len(self._cache) > 8:
            self._cache.clear()
        self._cache[dtau] = lu, piv
        return lu, piv

    def step(self, f: np.ndarray, dtau: float) -> np.ndarray:
        rhs = f.copy()
        rhs[0], rhs[-1] = self.bc_left, self.bc_right
        lu, piv = self._factors(dtau)
        x, info = dgbtrs(lu, 2, 2, np.asarray_chkfinite(rhs), piv, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dgbtrs")
        return x
