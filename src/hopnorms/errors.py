"""Exception types shared across the package, and the check of an order q."""

import math


class DomainError(ValueError):
    """Inputs outside an operation's admissible parameter domain."""


class SingularEvaluation(ArithmeticError):
    """Evaluation requested exactly at a non-removable singularity."""


class NumericalFailure(RuntimeError):
    """A numerical procedure did not reach its target accuracy.

    Carries the best available result in ``best`` when one exists.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class UnsupportedAsymptotics(DomainError):
    """Requested an asymptotic regime with no known closed leading term."""


def check_order(q: float) -> None:
    """Raise DomainError unless the order q is positive and finite."""
    if not q > 0:
        raise DomainError("q must be positive")
    if q == math.inf:
        raise DomainError("q must be finite")
