"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems give 1, refusals
(degenerate geometry, oversized enumerations) give 2, solver failures give 3.
"""

from __future__ import annotations


class OrbitLocatorError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OrbitLocatorError):
    """Inputs have inconsistent or invalid shapes, or non-finite entries."""


class DependentBasisError(OrbitLocatorError):
    """A basis handed to make_subspace is linearly dependent."""

    def __init__(self, message: str, *, index: int):
        super().__init__(message)
        self.index = index


class ConvergenceFailure(OrbitLocatorError):
    """An eigen- or singular-value computation failed, or a result did not
    pass its residual check."""

    def __init__(self, message: str, *, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class SolverFailure(OrbitLocatorError):
    """The constrained distance solver ran out of budget.

    Carries the best rigorous bracket found: ``lower <= true distance <= upper``.
    """

    def __init__(self, message: str, *, lower: float, upper: float, iterations: int, partial=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations
        self.partial = partial


class NetTooLargeError(OrbitLocatorError):
    """An epsilon-net would exceed the configured point cap."""

    def __init__(self, message: str, *, required_size: int):
        super().__init__(message)
        self.required_size = required_size


class GridOracleRefusal(OrbitLocatorError):
    """The brute-force grid oracle refuses (too many coefficients to grid)."""


class PipelineRefusal(OrbitLocatorError):
    """The projection pipeline refused: a zero or marginal rank, or a radius
    at the tolerance, leaves no inner radius to truncate at."""

    def __init__(self, message: str, *, radius: float):
        super().__init__(message)
        self.radius = radius
