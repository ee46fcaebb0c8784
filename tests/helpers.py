"""Shared fixtures for the test suite."""
import math

from hopnorms.families import gegenbauer, hermite, jacobi, laguerre
from hopnorms.validate import FAMILY_GRID as FAMILY_CONFIGS

ONE_PER_FAMILY = (hermite(), laguerre(2.5), jacobi(2.5, 1.5), gegenbauer(3.5))


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def log_ratio_err(log_a: float, log_b: float) -> float:
    """|a/b - 1| computed from the logs."""
    return abs(math.expm1(log_a - log_b))
