import math

import mpmath
import numpy as np
import pytest

from hopnorms.errors import DomainError
from hopnorms.families import hermite
from hopnorms import norms, quadrature
from hopnorms.norms import weighted_norm_quad
from hopnorms.quadrature import (_LEFT, LogIntegrand, QuadratureConfig, QuadratureFailure,
                                 _Panel, _bisect_edges, _logf_rows, log_integral)


def test_gaussian_full_line():
    spec = LogIntegrand(a=-math.inf, b=math.inf, g_core_many=lambda x: -x * x,
                        tail_seed_left=0.0, tail_seed_right=0.0)
    res = log_integral(spec)
    assert res.sign == 1
    assert res.log_abs == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_shifted_narrow_gaussian():
    # peak at x = 4000 with curvature 1/2000; exercises the peak scan + shift
    spec = LogIntegrand(a=0.0, b=math.inf,
                        g_core_many=lambda x: 4000.0 * np.log(x) - x,
                        tail_seed_right=4100.0)
    res = log_integral(spec)
    want = math.lgamma(4001.0)
    assert res.log_abs == pytest.approx(want, abs=1e-9)


def test_endpoint_singularity_transform():
    # int_0^1 x^(-1/2) dx = 2, exponent supplied separately from the core
    spec = LogIntegrand(a=0.0, b=1.0, g_core_many=np.zeros_like, e_left=-0.5)
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(2.0, rel=1e-11)


def test_both_endpoints_singular():
    # int_-1^1 (1-x)^(-0.3) (1+x)^(-0.6) dx (a Beta integral)
    spec = LogIntegrand(a=-1.0, b=1.0, g_core_many=np.zeros_like, e_left=-0.6, e_right=-0.3)
    res = log_integral(spec)
    want = (0.1 * math.log(2.0) + math.lgamma(0.7) + math.lgamma(0.4) - math.lgamma(1.1))
    assert res.log_abs == pytest.approx(want, rel=1e-11)


def test_non_integrable_exponent_rejected():
    spec = LogIntegrand(a=0.0, b=1.0, g_core_many=np.zeros_like, e_left=-1.2)
    with pytest.raises(DomainError):
        log_integral(spec)


def test_signed_phi():
    # int_-inf^inf exp(-x^2) (x^3 - x) dx = 0 by parity; converges on the
    # rounding floor of int |f|
    spec = LogIntegrand(a=-math.inf, b=math.inf, g_core_many=lambda x: -x * x,
                        phi_many=lambda x: x ** 3 - x,
                        tail_seed_left=0.0, tail_seed_right=0.0)
    res = log_integral(spec)
    assert res.sign == 0 or res.log_abs < math.log(1e-11)


def test_phi_with_value():
    # int_0^inf e^{-x} x dx = 1 via phi
    spec = LogIntegrand(a=0.0, b=math.inf, g_core_many=lambda x: -x, phi_many=lambda x: x,
                        tail_seed_right=1.0)
    res = log_integral(spec)
    assert res.sign == 1
    assert math.exp(res.log_abs) == pytest.approx(1.0, rel=1e-11)


def test_breakpoint_cusp():
    # int_-1^1 |x|^0.5 dx = 4/3 with a cusp breakpoint at 0
    spec = LogIntegrand(a=-1.0, b=1.0,
                        g_core_many=lambda x: 0.5 * np.log(np.abs(x)),
                        breakpoints=(0.0,))
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_monotone_refinement():
    spec = LogIntegrand(a=-1.0, b=1.0,
                        g_core_many=lambda x: 3.0 * np.log(np.abs(np.sin(3 * x) + 1.1)))
    errs = []
    tol = 1e-6
    for _ in range(6):
        errs.append(log_integral(spec, QuadratureConfig(rel_tol=tol)).rel_err)
        tol /= 2.0
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_failure_carries_best_estimate(monkeypatch):
    c = 0.3331
    spec = LogIntegrand(a=0.0, b=1.0, g_core_many=lambda x: 0.5 * np.log(np.abs(x - c)))
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
    with pytest.raises(QuadratureFailure) as exc_info:
        log_integral(spec, QuadratureConfig(rel_tol=1e-30))
    best = exc_info.value.best
    assert best is not None
    exact = (2.0 / 3.0) * (c ** 1.5 + (1.0 - c) ** 1.5)
    assert math.exp(best.log_abs) == pytest.approx(exact, rel=0.01)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)


def _laguerre_like():
    # tail walk, a cusp breakpoint, a transformed singular left endpoint and phi
    spec = LogIntegrand(a=0.0, b=math.inf, e_left=-0.5, breakpoints=(1.5,),
                        g_core_many=lambda x: 3.0 * np.log(np.abs(x - 1.5)) - x,
                        phi_many=lambda x: np.log(x + 2.0), tail_seed_right=4.0)
    want = mpmath.quad(lambda x: x ** -0.5 * abs(x - 1.5) ** 3 * mpmath.exp(-x) * mpmath.log(x + 2),
                       [0, 1.5, mpmath.inf])
    return spec, want


def _jacobi_like():
    # both endpoints singular and transformed, one interior breakpoint
    spec = LogIntegrand(a=-1.0, b=1.0, e_left=-0.3, e_right=-0.6, breakpoints=(0.25,),
                        g_core_many=lambda x: 4.0 * np.log(np.abs(x - 0.25)))
    want = mpmath.quad(lambda x: (1 + x) ** -0.3 * (1 - x) ** -0.6 * (x - 0.25) ** 4,
                       [-1, 0.25, 1])
    return spec, want


@pytest.mark.parametrize("make", [_laguerre_like, _jacobi_like])
def test_against_mpmath_reference(make):
    with mpmath.workdps(30):
        spec, want = make()
    res = log_integral(spec)
    assert res.sign == 1
    assert math.exp(res.log_abs) == pytest.approx(float(want), rel=1e-12)


def test_live_windows_of_several_panels():
    # one narrow peak per panel, each at its own height: every panel is cut
    # to its live window, six window edges at three levels in one call
    k, centres, heights = 1e4, np.array([0.4, 1.55, 2.7]), np.array([0.0, 3.0, -2.0])

    def g(x):
        i = np.clip(np.floor(x), 0, 2).astype(int)
        return heights[i] - k * (x - centres[i]) ** 2

    res = log_integral(LogIntegrand(a=0.0, b=3.0, g_core_many=g, breakpoints=(1.0, 2.0)))
    want = 0.5 * math.log(math.pi / k) + math.log(np.exp(heights).sum())
    assert res.sign == 1
    assert math.exp(res.log_abs - want) == pytest.approx(1.0, rel=1e-13)


def test_batched_edge_search_is_the_bisection():
    # reference: the 60-step bisection one point at a time; the batched
    # search takes the same steps on the same midpoints.  Peaks at 0.06 and
    # 0.3 put three crossings of -120 in (0, 0.3); bisection finds 0.265
    spec = LogIntegrand(a=0.0, b=2.0, e_left=-0.5,
                        g_core_many=lambda x: np.logaddexp(-1e5 * (x - 0.3) ** 2,
                                                           -1e5 * (x - 0.06) ** 2))
    plain, left = _Panel(0.0, 2.0), _Panel(0.0, 1.0, _LEFT)
    edges = [(plain, 0.0, 0.3, -120.0), (plain, 2.0, 0.3, -120.0), (plain, 0.2, 0.3, -20.0),
             (left, 0.0, 0.55, -120.0), (left, 1.0, 0.55, -120.0)]

    def bisect(panel, outer, inner, level):
        for _ in range(60):
            mid = 0.5 * (outer + inner)
            if _logf_rows(spec, [panel], np.array([[mid]]))[0][0, 0] >= level:
                inner = mid
            else:
                outer = mid
        return 0.5 * (outer + inner)

    panels, outer, inner, level = zip(*edges)
    with np.errstate(divide="ignore"):
        found = _bisect_edges(spec, list(panels), np.array(outer), np.array(inner), np.array(level))
        want = [bisect(*e) for e in edges]
    assert found.tolist() == want


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
