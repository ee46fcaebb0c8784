import math

import pytest
from hypothesis import given, strategies as st

from hopnorms.logreal import SignedLogReal

finite = st.floats(min_value=-1e100, max_value=1e100,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-100)


@given(nonzero, nonzero)
def test_mul_matches_float(a, b):
    got = (SignedLogReal.from_float(a) * SignedLogReal.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12)


@given(nonzero, nonzero)
def test_add_matches_float(a, b):
    got = (SignedLogReal.from_float(a) + SignedLogReal.from_float(b)).to_float()
    want = a + b
    if want == 0.0:
        assert abs(got) <= 1e-12 * max(abs(a), abs(b))
    else:
        # cancellation loses relative accuracy proportionally, as for floats
        assert abs(got - want) <= 1e-10 * max(abs(a), abs(b))


@given(nonzero, nonzero)
def test_div_matches_float(a, b):
    got = (SignedLogReal.from_float(a) / SignedLogReal.from_float(b)).to_float()
    assert got == pytest.approx(a / b, rel=1e-12)


@given(nonzero, st.integers(min_value=0, max_value=9))
def test_integer_power(a, k):
    got = SignedLogReal.from_float(a).powi(k)
    assert got.sign == (0 if k > 0 and a == 0 else (1 if a > 0 or k % 2 == 0 else -1))
    if a != 0:
        assert got.log_abs == pytest.approx(k * math.log(abs(a)), abs=1e-9)


def test_zero_handling():
    z = SignedLogReal.zero()
    x = SignedLogReal.from_float(3.5)
    assert (z * x).is_zero
    assert (z + x).to_float() == 3.5
    assert (x + (-x)).is_zero
    assert z.to_float() == 0.0
    with pytest.raises(ZeroDivisionError):
        x / z


def test_add_near_total_cancellation():
    # exp(lo - hi) rounds to 1.0 here, yet the difference is a tiny nonzero value
    a, b = SignedLogReal(1, 0.1), SignedLogReal(1, math.nextafter(0.1, 0.0))
    want = math.exp(0.1) * (0.1 - math.nextafter(0.1, 0.0))
    assert (a - b).sign == 1
    assert (a - b).to_float() == pytest.approx(want, rel=1e-6)
    assert (b - a).to_float() == pytest.approx(-want, rel=1e-6)


def test_zero_log_abs_canonical():
    assert SignedLogReal(0, 123.0).log_abs == 0.0
    assert SignedLogReal(0, 123.0) == SignedLogReal.zero()


def test_overflow_range():
    big = SignedLogReal(1, 50000.0)
    assert big.to_float() == math.inf
    assert (big * big).log_abs == 100000.0
    assert (big / big).to_float() == 1.0


def test_to_float_overflows_where_exp_does():
    # doubles reach e^709.78: a cut at ln|x| = 709 sent e^709.34 to inf, so
    # eval_poly(hermite(), 150, 57.25) gave inf for 1.156e308
    assert SignedLogReal(1, 709.3413034531691).to_float() == pytest.approx(1.1561e308, rel=1e-4)
    assert SignedLogReal(-1, 709.5).to_float() == -math.exp(709.5)
    assert SignedLogReal(1, 709.79).to_float() == math.inf


def test_invalid_sign_rejected():
    with pytest.raises(ValueError):
        SignedLogReal(2, 0.0)


def test_real_power_requires_nonnegative():
    with pytest.raises(ValueError):
        SignedLogReal.from_float(-2.0).powf(0.5)
    v = SignedLogReal.from_float(4.0).powf(0.5)
    assert v.to_float() == pytest.approx(2.0)
