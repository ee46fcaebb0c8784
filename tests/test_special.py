import math

import pytest
from hypothesis import given, strategies as st

from hopnorms.errors import DomainError
from hopnorms.special import digamma, log_gamma

EULER_GAMMA = 0.57721566490153286


def test_log_gamma_half():
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_digamma_at_one():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=500.0, allow_nan=False))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-10, abs=1e-12)
