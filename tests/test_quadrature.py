import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopnorms.bell import unweighted_norm_bell
from hopnorms.errors import DomainError
from hopnorms.families import gegenbauer, hermite, jacobi, laguerre
from hopnorms import norms, quadrature
from hopnorms.norms import unweighted_norm_quad, weighted_norm_quad
from hopnorms.quadrature import (_LEFT, LogIntegrand, QuadratureConfig, QuadratureFailure,
                                 _Panel, _logf_rows, _power, _scan_panels,
                                 _split_on_live_windows, bisect_brackets, log_integral)


def test_gaussian_full_line():
    spec = LogIntegrand(a=-math.inf, b=math.inf, g_core_many=lambda x: -x * x)
    res = log_integral(spec)
    assert res.sign == 1
    assert res.log_abs == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_shifted_narrow_gaussian():
    # peak at x = 4000 with curvature 1/2000; exercises the peak scan + shift
    spec = LogIntegrand(a=0.0, b=math.inf,
                        g_core_many=lambda x: 4000.0 * np.log(x) - x)
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
                        phi_many=lambda x, *_: x ** 3 - x)
    res = log_integral(spec)
    assert res.sign == 0 or res.log_abs < math.log(1e-11)


def test_phi_with_value():
    # int_0^inf e^{-x} x dx = 1 via phi
    spec = LogIntegrand(a=0.0, b=math.inf, g_core_many=lambda x: -x, phi_many=lambda x, *_: x)
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
                        phi_many=lambda x, *_: np.log(x + 2.0))
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
        found = bisect_brackets(
            lambda us: _logf_rows(spec, list(panels), us)[0] >= np.array(level)[:, None],
            np.array(outer), np.array(inner))
        want = [bisect(*e) for e in edges]
    assert found.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(4.0, 7.0), st.floats(-0.1, 1.1), st.floats(-5.0, 5.0)),
                min_size=1, max_size=4))
def test_coarse_edges_lie_just_outside_the_exact_edges(peaks):
    # one peak h - k (x - c)^2 per unit panel, its centre inside the panel
    # (two-sided live window) or just beyond an end (one-sided).  The edges
    # found under the stop rule lie on the outer side of those of the full
    # 60-step bisection, within 2^-6 of the live span
    log_k, t, h = map(np.array, zip(*peaks))
    k, c = 10.0 ** log_k, np.arange(len(peaks)) + t

    def g(x):
        i = np.clip(np.floor(x), 0, len(peaks) - 1).astype(int)
        return h[i] - k[i] * (x - c[i]) ** 2

    spec = LogIntegrand(a=0.0, b=float(len(peaks)), g_core_many=g)
    panels = [_Panel(float(i), float(i + 1)) for i in range(len(peaks))]
    scan = _scan_panels(spec, panels)
    coarse = _split_on_live_windows(spec, panels, *scan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_EDGE_PRECISION", 0.0)  # no bracket settles: all 10 rounds
        exact = _split_on_live_windows(spec, panels, *scan)

    def window(out, p):  # the sub-panel of p that keeps its peak
        return next((s.lo, s.hi) for s in out if p.lo <= s.lo and s.hi <= p.hi and s.peak == p.peak)

    for p in panels:
        (lo, hi), (lo_x, hi_x) = window(coarse, p), window(exact, p)
        tol = 2.0 ** -6 * (hi_x - lo_x)
        assert 0.0 <= lo_x - lo <= tol and 0.0 <= hi - hi_x <= tol


@pytest.mark.parametrize("a, q", [(2.0, 1e6), (7.0, 1e6)])
def test_error_covers_the_rounding_of_g_at_its_scale(a, q):
    # int x^(qa) e^(-qx) dx = Gamma(qa + 1) / q^(qa + 1): g peaks near -1e6
    # nats, where its own rounding exceeds rel_tol.  The claim must cover
    # that rounding, and the refinement must stop at it instead of stalling
    spec = LogIntegrand(a=0.0, b=math.inf, g_core_many=lambda x: q * (a * np.log(x) - x),
                        breakpoints=(0.98 * a, 1.02 * a))
    res = log_integral(spec)
    with mpmath.workdps(40):
        want = mpmath.loggamma(q * a + 1) - (q * a + 1) * mpmath.log(q)
        miss = float(abs(res.log_abs - want))
    assert res.sign == 1 and miss <= res.rel_err <= 1e-8


@pytest.mark.parametrize("c, w", [(1 / 3, 1e-6), (1 / 3, 1e-7), (100.3, 1e-4)])
def test_error_covers_the_rounding_of_the_nodes(c, w):
    # a peak of width w next to |x| ~ c: each node x rounds by a few eps |x|,
    # which moves g by eps |x| / w, far beyond the rounding of g's own terms.
    # The integral over (c - 1, c + 1) is w sqrt(2 pi) to double precision
    spec = LogIntegrand(a=c - 1.0, b=c + 1.0, g_core_many=lambda x: -0.5 * ((x - c) / w) ** 2)
    res = log_integral(spec)
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.mpf(w) * mpmath.sqrt(2 * mpmath.pi))
        miss = abs(float(mpmath.expm1(mpmath.mpf(res.log_abs) - want)))
    assert res.sign == 1 and miss <= res.rel_err <= 1e-8


def test_positive_integrand_that_sums_to_zero_fails():
    # g is 0 at the scan and far below it at every later point, as where
    # the nodes miss a peak the scan saw; that must not read as an integral
    # of 0.  (A concave peak no longer vanishes: every node of its live
    # window lies within the cutoff of the peak found.)
    calls = []

    def g(x):
        calls.append(None)
        return np.full_like(x, 0.0 if len(calls) == 1 else -1e4)

    with pytest.raises(QuadratureFailure, match="summed to zero"):
        log_integral(LogIntegrand(a=0.0, b=1.0, g_core_many=g))


def test_gauss_kronrod_table():
    # K21 integrates x^k exactly for k <= 31, its embedded G10 for k <= 19
    xk, wk, wg = quadrature._XK, quadrature._WK, quadrature._WG
    assert xk.size == 21 and wg.size == 10
    assert np.array_equal(xk, -xk[::-1]) and np.array_equal(wk, wk[::-1])
    assert np.array_equal(wg, wg[::-1])
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(wk @ xk ** k - exact) <= 1e-15, k
        if k <= 19:
            assert abs(wg @ xk[1::2] ** k - exact) <= 1e-15, k


@pytest.fixture
def batches(monkeypatch):
    """The calls of the norms' array integrand, one polynomial batch each."""
    calls = []
    eval_log_many = norms.eval_log_many

    def counted(*args):
        calls.append(None)
        return eval_log_many(*args)

    monkeypatch.setattr(norms, "eval_log_many", counted)
    return calls


def test_refinement_splits_in_rounds(batches):
    # greedy one-interval splitting made 316 calls here, refinement in rounds ~10
    r = weighted_norm_quad(hermite(), 100, 2.0)
    assert len(batches) <= 20
    assert r.log_value == pytest.approx(864.5467788760479, rel=1e-12)


@pytest.mark.parametrize("fam, n, q, most", [(hermite(), 12, 1.0, 4), (laguerre(0.5), 18, 1.0, 5),
                                             (jacobi(2.5, 1.5), 40, 3.0, 5)])
def test_first_gauss_kronrod_pass_leaves_little_to_refine(batches, fam, n, q, most):
    # a 7-15 rule, with each tail panel halved toward its mass next to the
    # outermost zero one pass at a time, took 8, 9 and 6 integrand batches
    # here; the 10-21 rule over tail panels cut at the tail walk's points
    # takes 3, 4 and 4
    r = weighted_norm_quad(fam, n, q)
    assert len(batches) <= most
    assert r.error_estimate <= 1e-11


def test_substitution_powers():
    # |x - c| = t^p turns |x - c|^e dx into p t^j dt with p = (j + 1)/(1 + e)
    assert _power(-0.5) == (2.0, 0)
    for e in (-0.25, 0.25, 0.5, 0.75, 1.25, 2.5, 3.75, 5.5, 5.999):
        p, j = _power(e)
        assert p == pytest.approx((j + 1) / (1 + e), rel=1e-15)
        if e > 0:  # the least j whose t^(j + p) is no weaker than t^6
            assert j + p >= 6 > (j - 1) + j / (1 + e)
        else:
            assert j == 0
    for e in (0.0, 1.0, 3.0, 6.0, 7.5, 100.0):  # integer, or smooth enough as it is
        assert _power(e) is None


_ENDPOINT_EXPONENTS = (-0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 2.5, 3.75, 5.5)


def _substituted_families():
    fams = [hermite()]  # no finite end: the plain panels alone
    for i, e in enumerate(_ENDPOINT_EXPONENTS):
        fams += [laguerre(e), jacobi(e, _ENDPOINT_EXPONENTS[(i + 4) % 9])]
        if e != -0.5:  # lambda = 0 is excluded
            fams.append(gegenbauer(e + 0.5))
    return fams


@pytest.mark.parametrize("fam", _substituted_families(), ids=lambda f: f.label())
def test_substituted_norms_against_the_exact_engine(fam):
    # N_2 and N_4 with every endpoint exponent substituted (or, for Hermite,
    # none) meet the exact rational moment sum within their claimed error
    for n in (0, 1, 5, 20):
        for q in (2, 4):
            r, exact = unweighted_norm_quad(fam, n, float(q)), unweighted_norm_bell(fam, n, q)
            miss = abs(math.expm1(r.log_value - exact.log_value))
            assert miss <= r.error_estimate + exact.error_estimate, (n, q)


@pytest.mark.parametrize("fam, n, q, most", [(gegenbauer(1.75), 28, 4.0, 8),
                                             (laguerre(0.5), 40, 2.0, 10)])
def test_weak_endpoint_powers_cost_few_batches(batches, fam, n, q, most):
    # (1 - x)^1.25 at both ends of Gegenbauer(1.75) N_4, and x^0.5 at the
    # left end of Laguerre(0.5) N_2, once took 19 and 23 integrand batches:
    # their end intervals were halved a dozen times, the error falling about
    # 5x per round.  Substituted, they take 5 and 8 (3 and 3 with the 10-21
    # rule)
    r = unweighted_norm_quad(fam, n, q)
    assert len(batches) <= most
    assert r.error_estimate <= 1e-11


def test_only_unresolved_peaks_are_zoomed():
    # a broad peak is resolved by the scan alone: one batch.  A peak
    # narrower than the scan's spacing takes the three zoom rounds, and
    # only its own panel is zoomed
    calls = []

    def g(x):
        calls.append(x.size)
        return np.where(x < 1.0, -(x - 0.3) ** 2, -1e6 * (x - 1.6) ** 2)

    spec = LogIntegrand(a=0.0, b=2.0, g_core_many=g)
    _, _, gmax, _ = _scan_panels(spec, [_Panel(0.0, 1.0)])
    assert len(calls) == 1 and gmax[0] > -1e-3
    calls.clear()
    _, _, gmax, _ = _scan_panels(spec, [_Panel(0.0, 1.0), _Panel(1.0, 2.0)])
    assert calls == [2 * 33] + [16] * 3  # the scan, then 16 zoom points a round
    assert gmax[1] > -0.1
