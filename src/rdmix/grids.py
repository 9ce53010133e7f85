"""Uniform symmetric meshes on [-L, L] with finite differences and quadrature.

The real line is truncated to [-L, L]; all profiles and states handled here
decay to their boundary values super-exponentially, so a generous L makes the
truncation error negligible.  Grids are uniform with an odd point count, which
puts y = 0 on a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        if n < 3 or n % 2 == 0:
            raise DomainError(f"point count must be odd and >= 3, got {n}")
        nodes = np.linspace(-L, L, n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h", 2.0 * L / (n - 1))


def default_half_width(*equilibria: float) -> float:
    """Domain half-width 8 * max(1, A+, A-): erf-like tails are < 1e-9 beyond it."""
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


def derivative1(grid: Grid, f: np.ndarray) -> np.ndarray:
    """First derivative: centered differences inside, one-sided second order at the ends.

    ``f`` holds nodal values along its last axis, so rows of a stacked array
    are differentiated in one pass.  A non-finite value gives a non-finite
    derivative; it is not checked here.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n,):
        raise DomainError(f"expected {grid.n} nodal values, got shape {f.shape}")
    h2 = 2.0 * grid.h
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / h2
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / h2
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / h2
    return out


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
