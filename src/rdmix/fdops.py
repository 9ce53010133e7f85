"""The mesh, the stencils and the quadrature that every layer shares.

Grids are uniform on [-L, L] with an odd point count, which puts y = 0 on a
node; functionals are trapezoid quadratures on them.  A problem's default
grid (``default_grid``) is sized from its diffusivities and equilibria: L
leaves the slowest erf tail at 1e-12 of the jump, and the spacing is a fixed
fraction of the shortest diffusion length.  Interior nodes use
fourth-order five-point stencils; the two nodes adjacent to the boundary
fall back to three-point second-order stencils (the solutions are flat to
near machine precision there).  Both come from one weight table, from which
each grid gets its banded D2, D1 and (y/2) D1 once.  The profile residual and
its Jacobian, the implicit time step and the Fisher information's derivative
are all built from them (``diff1`` applies D1 slice by slice, bit for bit).
The implicit step lays its rows (both species of a Lie step) side by side in
one block band, with identity rows at the pinned ends and zero couplings
between rows, and factors the block once per step size: without row
interchanges wherever that is backward stable (every acceptance case), as
L diag(d) U with both triangles unit-diagonal, so that a step overwrites all
its rows in place with one unit-lower band sweep, one division by d and one
unit-upper band sweep, bit for bit what a solve per row gives.

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


# The default grid: the tail left beyond L, relative to the jump, and the node
# spacing in units of the shortest diffusion length sqrt(min(d1, d2)).
_TAIL_TOLERANCE = 1e-12
_SPACING = 0.032
_MAX_DEFAULT_NODES = 100_001


def equilibrium_jump(ends: tuple[tuple[float, float], ...]) -> float:
    """J = max(1, |plus - minus|) over each species' (minus, plus) end values."""
    return max(1.0, *(abs(plus - minus) for minus, plus in ends))


def default_grid(d1: float, d2: float, ends: tuple[tuple[float, float], ...],
                 half_width: float | None = None, n: int | None = None) -> Grid:
    """The grid of a problem with diffusivities d1, d2 and end values ``ends``.

    ``ends`` holds each species' (minus, plus) end values, ((u-, u+), (v-, v+)).
    A profile meets each end value like erfc(|y| / (2 sqrt(D))), with D between
    d1 and d2, so its tail beyond L is at most J exp(-L^2 / (4 max(d1, d2))),
    J = ``equilibrium_jump(ends)``.  The default half-width
    L = 2 sqrt(max(d1, d2) ln(J / _TAIL_TOLERANCE)) makes that _TAIL_TOLERANCE.
    The default spacing is h = _SPACING sqrt(min(d1, d2)), so n = 2 ceil(L / h) + 1
    (at least 5) depends only on d2 / d1 and J.  A ``half_width`` or ``n`` given
    replaces its default; with both given the rule is not used.

    At d1 = d2 = 1 the rule gives h = 0.032, the spacing of n = 1001 on L = 16,
    where E_B's space error is 1.9e-8 to 3.8e-8.  Raises DomainError, before
    any array is built, when the default point count exceeds _MAX_DEFAULT_NODES.
    """
    if half_width is None:
        tail = math.log(equilibrium_jump(ends) / _TAIL_TOLERANCE)
        half_width = 2.0 * math.sqrt(max(d1, d2) * tail)
    if n is None:
        L, h = half_width, _SPACING * math.sqrt(min(d1, d2))
        # Grid rejects a half-width that is not positive and finite itself
        cells = L / h if 0.0 < L < math.inf else 0.0
        if not cells <= _MAX_DEFAULT_NODES // 2:
            raise DomainError(
                f"the default grid for d1 = {d1:g}, d2 = {d2:g} on L = {L:.6g} needs more than "
                f"{_MAX_DEFAULT_NODES} nodes; give grid.n (and grid.L) to choose the grid"
            )
        n = 2 * max(2, math.ceil(cells)) + 1
    return Grid(half_width, n)


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
    """Backward-Euler operator for u_tau = d u_yy + (y/2) u_y on k rows with pinned ends.

    Row r of a (k, n) buffer has its own diffusivity ``d[r]`` and end values
    ``bc_left[r]``, ``bc_right[r]`` (a scalar each makes one row).  A step solves
    (I - dtau (d D2 + (y/2) D1)) u+ = u on every row with both ends pinned
    (Dirichlet).  Their values move to the right-hand side through the four
    couplings of rows 1, 2, n-3 and n-2, so the ends come out exact and one block
    B over the raveled buffer is left: an identity row at each pinned node, each
    row's interior band between them and zero couplings between rows.  B is
    factored once per step size (nine sizes cached at most, then the cache starts
    over).  Where diffusion dominates, elimination without row interchanges is
    backward stable on B, yet partial pivoting swaps rows: the multipliers tend to
    -(1 + r), r = 7 - sqrt(48), as dtau d / h^2 grows.  So ``dgbtrf`` factors
    S B S^-1, S = diag(2^-i), whose subdiagonals are scaled by 1/2 and 1/4 and
    superdiagonals by 2 and 4; if it swaps no rows, undoing S (exact in powers of
    two) gives B = L U without interchanges, and a step is one unit-lower ``dtbsv``
    sweep, one division by U's diagonal and one unit-upper sweep.  Otherwise (a row
    with a cell Peclet number above about 1, such as d = 0.01 on L = 16) B keeps
    its pivoted factors, and a step is one ``dgbtrs`` call.  As an identity row
    keeps its value and a zero coupling subtracts an exact 0, each row's bits are
    those of its own solve, save a row that would not pivot alone in a block that
    does.  ``factorizations`` counts the step sizes factored,
    ``pivoted_factorizations`` those with pivoted factors.  ``step`` is the one
    solve: it overwrites the buffer in place and checks only its layout, so its
    caller (``simulate.step``, the Lie step) checks the values once.
    """

    def __init__(self, grid: Grid, d, bc_left, bc_right):
        self.grid = grid
        self.d, self.bc_left, self.bc_right = (
            tuple(float(v) for v in np.atleast_1d(a)) for a in (d, bc_left, bc_right))
        self.factorizations = 0
        self.pivoted_factorizations = 0
        self._cache: dict[float, tuple] = {}
        # the pinned nodes 0 and n-1 of each row in the raveled buffer and their values;
        # the nodes 1, 2, n-3 and n-2 that the end values couple to, and those values
        n, starts = grid.n, np.arange(len(self.d))[:, None] * grid.n
        self._pinned = (starts + (0, n - 1)).ravel()
        self._pins = np.array((self.bc_left, self.bc_right)).T.ravel()
        self._near = (starts + (1, 2, n - 3, n - 2)).ravel()
        self._near_pins = np.repeat(self._pins, 2)
        D2, _, Y1 = operators(grid)
        op = np.array(self.d)[:, None, None] * D2 + Y1
        # entries (1, 0), (2, 0), (n-3, n-1) and (n-2, n-1) of each row: the couplings
        # to the ends over -dtau
        self._couplings = op[:, (3, 4, 0, 1), (0, 0, -1, -1)].ravel()
        op[:, :, (0, -1)] = 0.0
        # S op S^-1 of the block in dgbtrf's layout, with two rows on top for the fill-in
        # of pivoting; S B S^-1 is I - dtau times it
        self._band = np.zeros((7, op.size // 5), order="F")
        self._band[2:] = (op * _SIMILARITY).transpose(1, 0, 2).reshape(5, -1)

    def _factors(self, dtau: float) -> tuple:
        """(ends, factors) of one step size; the factors are (L, U / d, d) or (lu, piv).

        L and U / d (U's rows over its diagonal d) are unit-diagonal ``dtbsv`` bands,
        (lu, piv) B's pivoted factors, and ``ends`` the terms that the pinned end
        values add to nodes 1, 2, n-3 and n-2 of each row, in the order of ``_near``.
        """
        entry = self._cache.get(dtau)
        if entry is not None:
            return entry
        ab = np.asarray_chkfinite(self._band * -dtau)
        ab[4] += 1.0
        lu, piv, info = dgbtrf(ab, 2, 2)
        if info == 0 and np.array_equal(piv, np.arange(piv.size)):
            lower, upper = np.zeros((3, piv.size), order="F"), np.zeros((3, piv.size), order="F")
            # U's two superdiagonals over the diagonal of their row, then L's two
            # multiplier rows; undoing S is exact
            np.divide(lu[2, 2:] / _SIMILARITY[0], lu[4, :-2], out=upper[0, 2:])
            np.divide(lu[3, 1:] / _SIMILARITY[1], lu[4, :-1], out=upper[1, 1:])
            np.divide(lu[5, :-1], _SIMILARITY[3], out=lower[1, :-1])
            np.divide(lu[6, :-2], _SIMILARITY[4], out=lower[2, :-2])
            factors = lower, upper, lu[4].copy()
        else:  # B itself, with pivoting; undoing S is exact
            ab[2:] /= _SIMILARITY
            lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
            factors = lu, piv
            self.pivoted_factorizations += 1
        if info != 0:
            raise LinAlgError(f"banded LU factorization failed (dgbtrf info {info})")
        self.factorizations += 1
        if len(self._cache) > 8:
            self._cache.clear()
        self._cache[dtau] = entry = -dtau * self._couplings * self._near_pins, factors
        return entry

    def step(self, rows: np.ndarray, dtau: float) -> None:
        """Overwrite the (k, n) buffer ``rows`` with its step; its values are not checked.

        A one-row solver also takes a row of shape (n,).  ValueError unless ``rows`` is a
        C-contiguous float64 array of k n values, which the solve overwrites in place.
        """
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
                and rows.flags.c_contiguous and rows.size == self._band.shape[1]):
            raise ValueError(f"expected C-contiguous float64 rows of {self._band.shape[1]} values")
        ends, factors = self._factors(dtau)
        x = rows.reshape(-1)
        x[self._pinned] = self._pins
        # in order: at n = 5, node 2 = n - 3 takes both of its terms
        np.subtract.at(x, self._near, ends)
        if len(factors) == 2:
            lu, piv = factors
            info = dgbtrs(lu, 2, 2, x, piv, overwrite_b=1)[1]
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of dgbtrs")
        else:
            lower, upper, diag = factors
            dtbsv(2, lower, x, lower=1, diag=1, overwrite_x=1)
            x /= diag
            dtbsv(2, upper, x, diag=1, overwrite_x=1)
