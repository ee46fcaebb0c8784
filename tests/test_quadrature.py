import math

import numpy as np
import pytest

from hopnorms.errors import DomainError
from hopnorms.families import hermite
from hopnorms import norms
from hopnorms.norms import weighted_norm_quad
from hopnorms.quadrature import (LogIntegrand, QuadratureConfig, QuadratureFailure,
                                 log_integral)


def test_gaussian_full_line():
    spec = LogIntegrand(a=-math.inf, b=math.inf, g_core=lambda x: -x * x,
                        tail_seed_left=0.0, tail_seed_right=0.0)
    res = log_integral(spec)
    assert res.sign == 1
    assert res.log_abs == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_shifted_narrow_gaussian():
    # peak at x = 4000 with curvature 1/2000; exercises the peak scan + shift
    spec = LogIntegrand(a=0.0, b=math.inf,
                        g_core=lambda x: 4000.0 * math.log(x) - x if x > 0 else -math.inf,
                        tail_seed_right=4100.0)
    res = log_integral(spec)
    want = math.lgamma(4001.0)
    assert res.log_abs == pytest.approx(want, abs=1e-9)


def test_endpoint_singularity_transform():
    # int_0^1 x^(-1/2) dx = 2, exponent supplied separately from the core
    spec = LogIntegrand(a=0.0, b=1.0, g_core=lambda x: 0.0, e_left=-0.5)
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(2.0, rel=1e-11)


def test_both_endpoints_singular():
    # int_-1^1 (1-x)^(-0.3) (1+x)^(-0.6) dx (a Beta integral)
    spec = LogIntegrand(a=-1.0, b=1.0, g_core=lambda x: 0.0, e_left=-0.6, e_right=-0.3)
    res = log_integral(spec)
    want = (0.1 * math.log(2.0) + math.lgamma(0.7) + math.lgamma(0.4) - math.lgamma(1.1))
    assert res.log_abs == pytest.approx(want, rel=1e-11)


def test_non_integrable_exponent_rejected():
    spec = LogIntegrand(a=0.0, b=1.0, g_core=lambda x: 0.0, e_left=-1.2)
    with pytest.raises(DomainError):
        log_integral(spec)


def test_signed_phi():
    # int_-inf^inf exp(-x^2) (x^3 - x) dx = 0 by parity; abs_tol path
    spec = LogIntegrand(a=-math.inf, b=math.inf, g_core=lambda x: -x * x,
                        phi=lambda x: x ** 3 - x,
                        tail_seed_left=0.0, tail_seed_right=0.0)
    res = log_integral(spec, QuadratureConfig(abs_tol=1e-12))
    assert res.sign == 0 or res.log_abs < math.log(1e-11)


def test_phi_with_value():
    # int_0^inf e^{-x} x dx = 1 via phi
    spec = LogIntegrand(a=0.0, b=math.inf, g_core=lambda x: -x, phi=lambda x: x,
                        tail_seed_right=1.0)
    res = log_integral(spec)
    assert res.sign == 1
    assert math.exp(res.log_abs) == pytest.approx(1.0, rel=1e-11)


def test_breakpoint_cusp():
    # int_-1^1 |x|^0.5 dx = 4/3 with a cusp breakpoint at 0
    spec = LogIntegrand(a=-1.0, b=1.0,
                        g_core=lambda x: 0.5 * math.log(abs(x)) if x != 0 else -math.inf,
                        breakpoints=(0.0,))
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_monotone_refinement():
    spec = LogIntegrand(a=-1.0, b=1.0,
                        g_core=lambda x: 3.0 * math.log(abs(math.sin(3 * x) + 1.1)))
    errs = []
    tol = 1e-6
    for _ in range(6):
        errs.append(log_integral(spec, QuadratureConfig(rel_tol=tol)).rel_err)
        tol /= 2.0
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_failure_carries_best_estimate():
    c = 0.3331
    spec = LogIntegrand(a=0.0, b=1.0, g_core=lambda x: 0.5 * math.log(abs(x - c)))
    with pytest.raises(QuadratureFailure) as exc_info:
        log_integral(spec, QuadratureConfig(rel_tol=1e-30, max_depth=3))
    best = exc_info.value.best
    assert best is not None
    exact = (2.0 / 3.0) * (c ** 1.5 + (1.0 - c) ** 1.5)
    assert math.exp(best.log_abs) == pytest.approx(exact, rel=0.01)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_depth=0)


def _laguerre_like(batched):
    # tail walk, a cusp breakpoint, a transformed singular left endpoint and phi
    spec = LogIntegrand(a=0.0, b=math.inf, e_left=-0.5, breakpoints=(1.5,),
                        g_core=lambda x: 3.0 * math.log(abs(x - 1.5)) - x if x != 1.5 else -math.inf,
                        phi=lambda x: math.log(x + 2.0), tail_seed_right=4.0)
    if batched:
        spec.g_core_many = lambda xs: 3.0 * np.log(np.abs(xs - 1.5)) - xs
        spec.phi_many = lambda xs: np.log(xs + 2.0)
    return spec


def _jacobi_like(batched):
    # both endpoints singular and transformed, one interior breakpoint
    spec = LogIntegrand(a=-1.0, b=1.0, e_left=-0.3, e_right=-0.6, breakpoints=(0.25,),
                        g_core=lambda x: 4.0 * math.log(abs(x - 0.25)) if x != 0.25 else -math.inf)
    if batched:
        spec.g_core_many = lambda xs: 4.0 * np.log(np.abs(xs - 0.25))
    return spec


@pytest.mark.parametrize("make", [_laguerre_like, _jacobi_like])
def test_array_forms_match_scalar_forms(make):
    scalar = log_integral(make(False))
    batched = log_integral(make(True))
    assert batched.neval == scalar.neval
    assert batched.sign == scalar.sign == 1
    assert abs(batched.log_abs - scalar.log_abs) <= 1e-13 * max(1.0, abs(scalar.log_abs))


def test_positive_integrand_that_sums_to_zero_fails():
    # the peak of p^2 h to the power q = 1e4 is narrower than the scan grid,
    # so every Gauss-Kronrod node underflows; that must not read as W_q = 0
    with pytest.raises(QuadratureFailure):
        weighted_norm_quad(hermite(), 2, 1e4)


def test_refinement_splits_in_rounds(monkeypatch):
    # each call of the array integrand evaluates the polynomial once; greedy
    # one-interval splitting made 316 calls here, refinement in rounds ~10
    calls = []
    eval_log_many = norms.eval_log_many

    def counted(*args):
        calls.append(None)
        return eval_log_many(*args)

    monkeypatch.setattr(norms, "eval_log_many", counted)
    r = weighted_norm_quad(hermite(), 100, 2.0)
    assert len(calls) <= 20
    assert r.log_value == pytest.approx(864.5467788760479, rel=1e-12)
