"""Exception types shared across the package.

Input-contract violations raise ValueError (CLI exit code 2). Numerical
failures raise NumericalError or a subclass (CLI exit code 3). Verification
suites do not raise on a violated bound; they report ok=False (CLI exit 4).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["NumericalError", "ConvergenceError"]


class NumericalError(RuntimeError):
    """A computation failed numerically (not an input-validation problem).

    index, when set, is the position of the failing point in an
    array-valued solve.
    """

    def __init__(self, message: str, *, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class ConvergenceError(NumericalError):
    """Fixed-point iteration did not reach the residual target.

    Carries the last residual and iteration count of the worst unconverged
    point, and its index in an array-valued solve, so callers can report
    how close the solve got.
    """

    def __init__(
        self, message: str, *, residual: float, iterations: int, index: Optional[int] = None
    ):
        super().__init__(
            f"{message} (residual={residual:.3e} after {iterations} iterations)", index=index
        )
        self.residual = residual
        self.iterations = iterations
