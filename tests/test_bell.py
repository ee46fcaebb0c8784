import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hopnorms.bell import _poly_power, bell_polynomial, unweighted_norm_bell
from hopnorms.errors import DomainError
from hopnorms.families import (gegenbauer, hermite, jacobi, laguerre, norm_constant_log,
                               power_basis)
from hopnorms.norms import unweighted_norm_quad

from .helpers import FAMILY_CONFIGS


def bell_by_enumeration(m, l, args):
    """Direct sum over partitions: j_1+...+j_k = l, j_1+2j_2+...+k j_k = m."""
    k = m - l + 1
    total = 0.0
    for js in itertools.product(range(l + 1), repeat=k):
        if sum(js) != l or sum((i + 1) * j for i, j in enumerate(js)) != m:
            continue
        term = math.factorial(m)
        for i, j in enumerate(js):
            term /= math.factorial(j)
            term *= (args[i] / math.factorial(i + 1)) ** j
        total += term
    return total


def test_bell_base_cases():
    # B_{m,1}(c_1..c_m) = c_m
    assert bell_polynomial(5, 1, [1.0, 2.0, 3.0, 4.0, 7.0]) == 7.0
    # B_{2,2}(c_1) = c_1^2
    assert bell_polynomial(2, 2, [3.0]) == 9.0
    # B_{3,2}(c_1, c_2) = 3 c_1 c_2
    assert bell_polynomial(3, 2, [2.0, 5.0]) == 30.0
    # B_{4,2}(c_1, c_2, c_3) = 3 c_2^2 + 4 c_1 c_3
    assert bell_polynomial(4, 2, [1.0, 2.0, 3.0]) == 24.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_bell_matches_enumeration(m, data):
    l = data.draw(st.integers(min_value=1, max_value=m))
    args = data.draw(st.lists(st.floats(min_value=-3, max_value=3),
                              min_size=m - l + 1, max_size=m - l + 1))
    got = bell_polynomial(m, l, args)
    want = bell_by_enumeration(m, l, args)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-9)


def test_bell_argument_validation():
    with pytest.raises(DomainError):
        bell_polynomial(3, 0, [1.0])
    with pytest.raises(DomainError):
        bell_polynomial(3, 4, [1.0])
    with pytest.raises(DomainError):
        bell_polynomial(3, 2, [1.0])  # needs 2 args


def test_norm_bell_examples():
    r = unweighted_norm_bell(hermite(), 1, 2)
    assert r.to_float() == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
    assert r.method == "bell"
    r = unweighted_norm_bell(hermite(), 1, 4)
    assert r.to_float() == pytest.approx(12.0 * math.sqrt(math.pi), rel=1e-12)
    r = unweighted_norm_bell(laguerre(0.0), 1, 2)
    assert r.to_float() == pytest.approx(1.0, rel=1e-12)


def test_norm_bell_rejections():
    with pytest.raises(DomainError):
        unweighted_norm_bell(hermite(), 1, 3)
    with pytest.raises(DomainError):
        unweighted_norm_bell(hermite(), 1, 2.0)  # non-integer type
    with pytest.raises(DomainError):
        unweighted_norm_bell(hermite(), 61, 4)


def test_engine_equivalence():
    # bell vs quadrature within 1e-11 relative for q in {2,4}, n <= 6
    for fam in FAMILY_CONFIGS:
        for q in (2, 4):
            for n in (0, 1, 3, 6):
                b = unweighted_norm_bell(fam, n, q).value.log_abs
                g = unweighted_norm_quad(fam, n, float(q)).value.log_abs
                assert abs(b - g) < 1e-11, (fam.label(), n, q, b, g)


@pytest.mark.parametrize("fam,n,q", [
    (laguerre(2.5), 30, 8), (laguerre(2.5), 60, 4),
    (jacobi(2.5, 1.5), 30, 8), (jacobi(2.5, 1.5), 3, 80), (jacobi(2.5, 1.5), 20, 6),
    (hermite(), 12, 20),  # n*q = 240, the cap
    (gegenbauer(1.75), 10, 24),
    (jacobi(-0.7, -0.6), 6, 4),  # a + b <= -1
    # lambda < 1/4: the exponent lambda - 1/2 rounds, and both engines take that weight
    (gegenbauer(0.1), 6, 4), (gegenbauer(-0.3), 6, 4),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_engine_equivalence_at_large_degree_and_q(fam, n, q):
    b = unweighted_norm_bell(fam, n, q)
    g = unweighted_norm_quad(fam, n, float(q))
    assert abs(b.log_value - g.log_value) < 1e-11, (b.log_value, g.log_value)
    assert b.error_estimate < 1e-12


@pytest.mark.parametrize("fam,a,b", [
    (laguerre(1e4), None, None), (jacobi(1e4, 0.5), 1e4, 0.5), (gegenbauer(1e4), 9999.5, 9999.5),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_error_estimate_covers_mu0_at_large_parameters(fam, a, b):
    # N_2[p_0] = mu_0, whose log-gammas cancel by ~1e-11 in doubles here
    with mpmath.workdps(40):
        if a is None:
            want = mpmath.loggamma(mpmath.mpf(fam.alpha) + 1)
        else:
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            want = ((a + b + 1) * mpmath.log(2) + mpmath.loggamma(a + 1)
                    + mpmath.loggamma(b + 1) - mpmath.loggamma(a + b + 2))
    r = unweighted_norm_bell(fam, 0, 2)
    assert abs(r.log_value - float(want)) <= r.error_estimate < 1e-8


@pytest.mark.parametrize("fam", [f(eps) for eps in (1e-3, 1e-6, 1.234567e-9) for f in (
    lambda eps: jacobi(-1.0 + eps, -1.0 + eps), lambda eps: gegenbauer(-0.5 + eps))],
    ids=lambda fam: fam.label())
def test_quadrature_meets_bell_near_the_parameter_limits(fam):
    # the recurrence rows group their sums, so 2k + a + b does not cancel as
    # a + b -> -2 (ungrouped, N_4 of Jacobi(-1 + 1.234567e-9, same), n = 2,
    # missed by 2.1e-7 claiming 1.1e-14), and the Bell engine's mu_0 is that
    # of the weight its moments use, whose exponent lambda - 1/2 is rounded
    for n in (2, 3, 5, 8):
        for q in (4, 6):
            g, b = unweighted_norm_quad(fam, n, float(q)), unweighted_norm_bell(fam, n, q)
            miss = abs(math.expm1(g.log_value - b.log_value))
            assert miss <= g.error_estimate + b.error_estimate, (n, q)


def test_bell_polynomial_gives_power_coefficients():
    # [x^t] p^q = q!/(t+q)! B_{t+q,q}(1! c_0, 2! c_1, ..., (t+1)! c_t)
    for fam in FAMILY_CONFIGS:
        for n, q in ((1, 2), (2, 3), (3, 4), (2, 6)):
            c = power_basis(fam, n, Fraction)
            power = _poly_power(c, q)
            assert len(power) == n * q + 1
            scale = max(abs(float(v)) for v in power)
            for t, want in enumerate(power):
                args = [math.factorial(j + 1) * float(c[j]) if j <= n else 0.0
                        for j in range(t + 1)]
                got = bell_polynomial(t + q, q, args) / math.prod(range(q + 1, t + q + 1))
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12 * scale), (
                    fam.label(), n, q, t)


def test_norm_bell_q2_is_kappa():
    for fam in FAMILY_CONFIGS:
        for n in (0, 2, 5):
            r = unweighted_norm_bell(fam, n, 2)
            assert r.value.log_abs == pytest.approx(
                norm_constant_log(fam, n).log_abs, abs=1e-8)
