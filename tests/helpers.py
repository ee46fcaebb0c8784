"""Shared fixtures for the test suite."""
import math

import numpy as np

from hopnorms.families import gegenbauer, hermite, jacobi, laguerre
from hopnorms.quadrature import LogIntegrand
from hopnorms.special import digamma
from hopnorms.validate import FAMILY_GRID as FAMILY_CONFIGS

ONE_PER_FAMILY = (hermite(), laguerre(2.5), jacobi(2.5, 1.5), gegenbauer(3.5))


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def beta_entropy(a: float, b: float) -> float:
    """Shannon entropy of rho-hat_0 of Jacobi(a, b), the Beta(b + 1, a + 1)
    density on [-1, 1]."""
    p, q = b + 1.0, a + 1.0
    return (math.log(2.0) + math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
            - (p - 1.0) * digamma(p) - (q - 1.0) * digamma(q) + (p + q - 2.0) * digamma(p + q))


def log_ratio_err(log_a: float, log_b: float) -> float:
    """|a/b - 1| computed from the logs."""
    return abs(math.expm1(log_a - log_b))


# -- a reference for the engine's peaks -------------------------------------

_GRID_POINTS = 257
_ZOOM_POINTS = 33
_ZOOM_ROUNDS = 12
_RESOLVED_NATS = 0.01


def _gap_grid(lo: float, hi: float) -> np.ndarray:
    """Points over the gap (lo, hi), its finite ends included; toward an
    infinite end they grow geometrically, to e^40 times the scale."""
    if math.isfinite(lo) and math.isfinite(hi):
        return np.linspace(lo, hi, _GRID_POINTS)
    reach = np.expm1(np.linspace(0.0, 40.0, _GRID_POINTS))
    if math.isfinite(lo):
        return lo + (1.0 + abs(lo)) * reach
    if math.isfinite(hi):
        return hi - (1.0 + abs(hi)) * reach[::-1]
    return np.concatenate((-reach[:0:-1], reach))


def grid_peaks(g_core, a: float, b: float, e_left: float = 0.0, e_right: float = 0.0,
               knots=()) -> tuple:
    """``LogIntegrand.peaks`` of the raw integrand g_core(x) + e_left ln(x - a)
    + e_right ln(b - x), found with no closed form: in each gap between the
    knots (and the ends), the argmax of a dense grid, zoomed between its
    neighbours until they lie within 0.01 nats of it, with g' and g'' of
    the parabola through the three.  Where the gap ends at a pole (an
    exponent in (-1, 0)), g leaves that end's power out.  The gaps still
    zooming are evaluated together, one call of g_core per round."""
    knots = np.array(sorted(k for k in knots if a < k < b), dtype=float)
    edges = np.array([a, *knots.tolist(), b])
    # per end power (e, c, side), the gaps whose g holds it: not those beside it at a pole
    powers = [(e, c, s, ~((-1.0 < e < 0.0) & (ends == c)))
              for e, c, s, ends in ((e_left, a, 1.0, edges[:-1]), (e_right, b, -1.0, edges[1:]))
              if math.isfinite(c) and e != 0.0]

    def g(gaps, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.asarray(g_core(x.ravel()), dtype=float).reshape(x.shape)
            for e, c, s, keep in powers:
                v = v + np.where(keep[gaps, None], e * np.log(s * (x - c)), 0.0)
        return np.where(np.isnan(v), -np.inf, v)

    gaps = np.arange(len(edges) - 1)
    x = np.array([_gap_grid(lo, hi) for lo, hi in zip(edges, edges[1:])])
    tops, g1, g2 = np.empty((3, gaps.size))
    for last in [False] * _ZOOM_ROUNDS + [True]:
        v = g(gaps, x)
        rows = np.arange(gaps.size)
        i = np.argmax(v, axis=1)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, x.shape[1] - 1)
        done = last | (v[rows, i] - np.minimum(v[rows, lo], v[rows, hi]) <= _RESOLVED_NATS)
        j = np.clip(i, 1, x.shape[1] - 2)
        (x0, x1, x2), (v0, v1, v2) = ([u[rows, j + k] for k in (-1, 0, 1)] for u in (x, v))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d01 = (v1 - v0) / (x1 - x0)
            curv = 2.0 * ((v2 - v1) / (x2 - x1) - d01) / (x2 - x0)
            slope = d01 + 0.5 * curv * (2.0 * x[rows, i] - x0 - x1)
        r = gaps[done]
        tops[r] = x[rows, i][done]
        g1[r] = np.where(np.isfinite(slope), slope, 0.0)[done]
        g2[r] = np.where(np.isfinite(curv), curv, 0.0)[done]
        gaps, lo, hi = gaps[~done], x[rows, lo][~done], x[rows, hi][~done]
        if not gaps.size:
            break
        x = np.linspace(lo, hi, _ZOOM_POINTS, axis=1)
    return tops, knots, g1, g2


def named(**kw) -> LogIntegrand:
    """The raw LogIntegrand of the keywords, its ``peaks`` named by
    :func:`grid_peaks` over its breakpoints."""
    g_core = kw["g_core_many"]
    if kw.get("sized"):
        g_core = (lambda x, g=g_core: g(x)[0])
    kw["peaks"] = grid_peaks(g_core, kw["a"], kw["b"], kw.get("e_left", 0.0),
                             kw.get("e_right", 0.0), kw.get("breakpoints", ()))
    return LogIntegrand(**kw)
