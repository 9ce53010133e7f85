"""The mesh, the stencils and the quadrature that every layer shares.

Grids are uniform on [-L, L] with an odd point count, which puts y = 0 on a
node; functionals are trapezoid quadratures on them.  Interior nodes use
fourth-order five-point stencils; the two nodes adjacent to the boundary
fall back to three-point second-order stencils (the solutions are flat to
near machine precision there).  Both come from one weight table, from which
each grid gets its banded D2, D1 and (y/2) D1 once.  The profile residual and
its Jacobian, the implicit time step and the Fisher information's derivative
are all built from them (``diff1`` applies D1 slice by slice, bit for bit).
The implicit step factors its interior band once per step size, without row
interchanges wherever that is backward stable (every acceptance case), as
L diag(d) U with both triangles unit-diagonal; a step then overwrites its row
in place with a unit-lower band sweep, one division by d and a unit-upper band
sweep.

A solved profile is a fixed point of the scheme only when d1 = d2.
Otherwise the diffusion half of a step moves it off the reaction equilibrium
by dtau times the multiplier and the reaction half pulls it back only in
part, so the step settles on a steady state of its own, whose E_B floor
scales like dtau^2 and does not vanish as e^tau grows (8.8e-7 at dtau 1e-2,
2.2e-7 at 5e-3, for alpha = beta = 1, d = (1, 5), A+ = 3, to tau = 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DomainError


@dataclass(frozen=True)
class Grid:
    """Uniform mesh y_0 = -L, ..., y_{n-1} = L with spacing h = 2L/(n-1).

    Grids compare and hash by (L, n) alone; ``nodes`` and ``h`` follow from them.
    """

    half_width: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    h: float = field(init=False, compare=False)

    def __post_init__(self):
        L, n = self.half_width, self.n
        if not (np.isfinite(L) and L > 0):
            raise DomainError(f"half_width must be positive and finite, got {L}")
        if n < 5 or n % 2 == 0:  # the one-sided end rows of diff2 read four nodes each
            raise DomainError(f"point count must be odd and >= 5, got {n}")
        nodes = np.linspace(-L, L, n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h", 2.0 * L / (n - 1))


def default_half_width(*equilibria: float) -> float:
    """Domain half-width 8 * max(1, A+, A-).

    The rule ignores the diffusivities, while an erf tail beyond L is
    1 - erf(L / sqrt(2 (d1 + d2))): 1.5e-8 at d1 = d2 = 1 with A+- <= 1, but
    3e-4 at d1 = d2 = 10 with A+- = (1, 2).
    """
    return 8.0 * max(1.0, *(abs(a) for a in equilibria))


def _nodal(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise DomainError(f"expected {grid.n} nodal values, got shape {f.shape}")
    return f


def check_values(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Validate a nodal value array against its grid; returns the array as float64."""
    f = _nodal(grid, f)
    if not np.all(np.isfinite(f)):
        raise DomainError("nodal values must be finite")
    return f


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Trapezoid rule over [-L, L].

    Raises DomainError unless the result is finite; a non-finite nodal value
    makes the sum non-finite, so this checks the integrand in one pass.
    """
    f = _nodal(grid, f)
    total = grid.h * (float(f.sum()) - 0.5 * (float(f[0]) + float(f[-1])))
    if not math.isfinite(total):
        raise DomainError(f"integral is not finite ({total})")
    return total


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

# The rows of S B S^-1, S = diag(2^-i), over those of a band B in that layout.
_SIMILARITY = np.array([[4.0], [2.0], [1.0], [0.5], [0.25]])


@lru_cache(maxsize=2)
def operators(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded D2, D1 and (y/2) D1 of the grid; rows 0 and n-1 are zero.

    The arrays are cached per grid and read-only.  Each weight of a stencil
    fills one band row over the slice of columns its rows lo .. hi-1 reach.
    """
    y2, h, n = grid.nodes / 2.0, grid.h, grid.n
    D2, D1, Y1 = (np.zeros((5, n)) for _ in range(3))
    blocks = ((_FIVE_POINT, 2, n - 2), (_THREE_POINT, 1, 2), (_THREE_POINT, n - 2, n - 1))
    for (offs, w2, s2, w1, s1), lo, hi in blocks:
        c2, c1 = 1.0 / (s2 * h**2), 1.0 / (s1 * h)
        for off, a2, a1 in zip(offs, w2, w1):
            cols = slice(lo + off, hi + off)
            D2[2 - off, cols] = a2 * c2
            D1[2 - off, cols] = a1 * c1
            Y1[2 - off, cols] = y2[lo:hi] * a1 * c1
    for ab in (D2, D1, Y1):
        ab.setflags(write=False)
    return D2, D1, Y1


def _matvec(ab: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product of a banded array (``solve_banded`` layout) with each row ``f[..., :]``."""
    n = f.shape[-1]
    out = np.zeros(f.shape)
    for k, off in enumerate(_OFFSETS):
        if off >= 0:
            out[..., : n - off] += ab[k, off:] * f[..., off:]
        else:
            out[..., -off:] += ab[k, : n + off] * f[..., : n + off]
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
    """First derivative of each row ``f[..., :]`` with the solver's stencils (4th order inside).

    The ends take one-sided second-order differences; values are not checked.
    The interior is formed from slices with the weights of ``operators(grid)[1]``,
    summed in ``_matvec``'s order (offsets +2, +1, -1, -2; the centre weight
    is 0), so the result equals the banded product bit for bit.
    """
    h = grid.h
    (w5, c5), (w3, c3) = ((s[3], 1.0 / (s[4] * h)) for s in (_FIVE_POINT, _THREE_POINT))
    out = np.empty(f.shape)
    # the rows run on as one line; the values that straddle two rows are overwritten below
    line, inner = f.reshape(-1), out.reshape(-1)[2:-2]
    np.multiply(line[4:], w5[4] * c5, out=inner)
    inner += w5[3] * c5 * line[3:-1]
    inner += w5[1] * c5 * line[1:-3]
    inner += w5[0] * c5 * line[:-4]
    # the four rows at the ends, one row of f at a time in Python floats (the same
    # IEEE operations, without an array call per value)
    n = f.shape[-1]
    for row, d in zip(f.reshape(-1, n), out.reshape(-1, n)):
        (f0, f1, f2), (g2, g1, g0) = row[:3].tolist(), row[-3:].tolist()
        d[0] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        d[1] = w3[2] * c3 * f2 + w3[0] * c3 * f0
        d[-2] = w3[2] * c3 * g0 + w3[0] * c3 * g2
        d[-1] = (3.0 * g0 - 4.0 * g1 + g2) / (2.0 * h)
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

    A step solves (I - dtau (d D2 + (y/2) D1)) u+ = u with both ends pinned
    (Dirichlet).  Their values move to the right-hand side through the four
    couplings of rows 1, 2, n-3 and n-2, so the ends come out exact and the
    interior band B of order n-2 is left, factored once per step size (nine
    cached at most, then the cache starts over).  Where diffusion dominates,
    elimination without row interchanges is backward stable on B, yet partial
    pivoting swaps rows: the multipliers tend to -(1 + r), r = 7 - sqrt(48), as
    dtau d / h^2 grows.  So ``dgbtrf`` factors S B S^-1, S = diag(2^-i), whose
    subdiagonals are scaled by 1/2 and 1/4 and superdiagonals by 2 and 4; if
    it swaps no rows, undoing S (exact in powers of two) gives B = L U without
    interchanges, kept as L, the diagonal d of U and U with d divided out of
    its rows.  A step is then a unit-lower ``dtbsv`` sweep, one vector
    division by d and a unit-upper sweep, which spares the upper sweep a
    division per node.  Otherwise (a cell Peclet number above about 1, such
    as d = 0.01 on L = 16) B keeps its pivoted factors and a step is a
    ``dgbtrs`` solve.  ``factorizations`` counts the step sizes factored,
    ``pivoted_factorizations`` those with pivoted factors.  ``step`` is the one
    solve: it overwrites a row in place and does not check it, so its caller
    (``simulate._diffuse``, the drift-diffusion half) checks the rows once.
    """

    def __init__(self, grid: Grid, d: float, bc_left: float, bc_right: float):
        self.grid = grid
        self.d = float(d)
        self.bc_left = float(bc_left)
        self.bc_right = float(bc_right)
        self.factorizations = 0
        self.pivoted_factorizations = 0
        self._cache: dict[float, tuple] = {}
        D2, _, Y1 = operators(grid)
        op = D2 * self.d + Y1
        # entries (1, 0), (2, 0), (n-3, n-1) and (n-2, n-1): the couplings to the ends over -dtau
        self._ends = (op[3, 0], op[4, 0], op[0, -1], op[1, -1])
        # the interior of S op S^-1 in dgbtrf's layout, with two rows on top for the
        # fill-in of pivoting; S B S^-1 is I - dtau times it
        self._scaled = np.zeros((7, grid.n - 2), order="F")
        self._scaled[2:] = op[:, 1:-1] * _SIMILARITY

    def _factors(self, dtau: float) -> tuple:
        """((L, U / d, d), None, ends) without interchanges, else (lu, piv, ends).

        L and U / d, entry (i, j) of U over d_i, are unit-diagonal ``dtbsv`` bands;
        ``ends`` are the terms that the pinned end values add to rows 1, 2, n-3 and n-2.
        """
        entry = self._cache.get(dtau)
        if entry is not None:
            return entry
        ab = np.asarray_chkfinite(self._scaled * -dtau)
        ab[4] += 1.0
        lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
        if info == 0 and np.array_equal(piv, np.arange(len(piv))):
            m = len(piv)
            lower, upper = np.ones((3, m), order="F"), np.zeros((3, m), order="F")
            diag = lu[4].copy()
            # U's two superdiagonals over the diagonal of their row, then L's two
            # multiplier rows; undoing S is exact
            np.divide(lu[2, 2:] / _SIMILARITY[0], diag[:-2], out=upper[0, 2:])
            np.divide(lu[3, 1:] / _SIMILARITY[1], diag[:-1], out=upper[1, 1:])
            for k in (1, 2):
                np.divide(lu[4 + k], _SIMILARITY[2 + k], out=lower[k])
            factors, piv = (lower, upper, diag), None
        else:
            ab = self._scaled * -dtau
            ab[2:] /= _SIMILARITY
            ab[4] += 1.0
            factors, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
            self.pivoted_factorizations += 1
        if info != 0:
            raise LinAlgError(f"banded LU factorization failed (dgbtrf info {info})")
        self.factorizations += 1
        if len(self._cache) > 8:
            self._cache.clear()
        bcs = (self.bc_left, self.bc_left, self.bc_right, self.bc_right)
        self._cache[dtau] = entry = factors, piv, tuple(
            float(-dtau * c * bc) for c, bc in zip(self._ends, bcs))
        return entry

    def step(self, x: np.ndarray, dtau: float) -> None:
        """Overwrite the contiguous float64 nodal row ``x`` with its step; ``x`` is not checked."""
        factors, piv, (e1, e2, e3, e4) = self._factors(dtau)
        x[0], x[-1] = self.bc_left, self.bc_right
        x[1] -= e1
        x[2] -= e2
        x[-3] -= e3
        x[-2] -= e4
        if piv is None:
            lower, upper, diag = factors
            dtbsv(2, lower, x, offx=1, lower=1, diag=1, overwrite_x=1)
            x[1:-1] /= diag
            dtbsv(2, upper, x, offx=1, diag=1, overwrite_x=1)
        else:
            x[1:-1], info = dgbtrs(factors, 2, 2, x[1:-1], piv)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of dgbtrs")
