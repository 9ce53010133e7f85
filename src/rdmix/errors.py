"""Exception types shared across the package."""

from __future__ import annotations


class RdmixError(Exception):
    """Base class for all package errors."""


class DomainError(RdmixError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(RdmixError):
    """Iterative solver failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


class NonPositivity(RdmixError):
    """Damped Newton could not keep the iterate above its positivity floor."""


class NewtonFailure(RdmixError):
    """Per-node implicit reaction solve failed."""

    def __init__(self, node: int, residual: float):
        self.node = node
        self.residual = residual
        super().__init__(f"reaction Newton failed at node {node} (residual {residual:.3e})")


class PositivityLoss(RdmixError):
    """A time step would produce a nonpositive concentration."""


class UnsupportedRegime(RdmixError):
    """No certificate covers the request: its (alpha, beta, p), or a constant it reads."""


class ThetaTooLarge(UnsupportedRegime):
    """Flatness number theta >= 1/2 at unequal orders: no Boltzmann certificate."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"theta = {theta:.6g} >= 1/2; certificate unavailable")


class UnsupportedEntropy(DomainError, UnsupportedRegime):
    """Entropy family p has no certificate: p != 1 at unequal orders, or p out of alpha's range."""


class EmptyCurve(RdmixError):
    """A decay verification was requested on an empty sample sequence."""


class ParseError(RdmixError):
    """Configuration text could not be parsed or validated; line 0 names no line."""

    def __init__(self, line: int, key: str, message: str):
        self.line = line
        self.key = key
        super().__init__(f"line {line}: {key}: {message}" if line else f"{key}: {message}")


class UsageError(ParseError):
    """A command or flag on the command line could not be parsed or validated; line 0."""
