"""Adaptive Gauss-Kronrod quadrature for log-space integrands.

Every integral in this package has the shape

    I = int exp(g(x)) * phi(x) dx,    g(x) = g_core(x) + e_a ln(x-a) + e_b ln(b-x),

where g may swing over thousands of nats (weights like x^alpha e^(-x) with
alpha ~ 1e4) and phi is an optional signed factor (entropy integrands).
The engine:

  * truncates infinite tails where g falls _TAIL_CUTOFF + 30 nats below
    the running peak (walk with geometrically growing steps, from the
    outermost breakpoint, or from 0 where it lies further out),
  * splits the domain at caller-supplied breakpoints (polynomial zeros,
    where |p|^q has cusps and log factors have singularities),
  * substitutes |x - c| = t^p at a finite endpoint c whose exponent e is
    not an integer and below 6, with p = (j + 1)/(1 + e), which turns
    |x - c|^e dx into p t^j dt (Davis & Rabinowitz 1984, sec. 2.12): j = 0
    for e in (-1, 0) removes the singularity, and for e >= 0 the least j
    with j + p >= 6 leaves the smooth rest of the integrand, a series in
    t^p, no term weaker than t^6.  Without it, an end interval whose
    power is weak converges slowly: at e = 1.25 its error falls about 5x
    per halving,
  * locates the global maximum M of g by per-panel Chebyshev scans, zooming
    in on the panels whose scanned peak is not resolved, then integrates
    exp(g - M) with the 10-21 Gauss-Kronrod pair of QUADPACK's QAGS,
    refined in rounds (below),
  * returns sign, ln|I| (shift M re-applied) and a relative error bound,
    and raises QuadratureFailure when a positive integrand (no phi) sums to
    zero because every node underflowed below M.

Refinement is globally adaptive in rounds (after QUADPACK, Piessens et
al. 1983).  A round takes intervals off an error-ordered heap, largest
first, until the errors taken would, once removed, bring the total error
down to the tolerance; it takes at least one.  Every interval taken is
halved, and the two child rules of all of them are one call of the
integrand's array form.  The rounds are deterministic, and the children
of an interval almost always carry far less error than the next interval
in line, so a round usually splits the same intervals as one-at-a-time
greedy refinement would, with the same number of evaluations.  The
reported error estimate is monotone under tolerance halving for the
integrands used here.

Every other phase is batched too, so the integrand exists only in its
array form.  The tail walks of both infinite ends evaluate blocks of their
steps together.  The scans, each zoom round and the first Gauss-Kronrod
pass of all panels are one call each.  A panel whose scanned peak has both
scanned neighbours within _RESOLVED nats of it is resolved to a fraction
of a nat, and is not zoomed: an underestimated peak only widens the live
window and lowers the shift, far inside _EXP_CLAMP.  The other panels are
zoomed in three rounds, and a round with no such panel is skipped.  A
panel whose scanned live points (g within the cutoff of its peak) span
more than a quarter of it stays whole.  A panel with no live scanned point,
whose peak only a zoom reached, grows its window from the zoomed point.
The live-window edges of all other panels are bisected together, six
steps per call, in the rounds of :func:`bisect_brackets`, the bisection
the Laplace maximizer also uses for the critical points of the density.
The maximizer takes all ten rounds (60 steps), because its point must be
exact.  The edge search stops once every bracket is narrower than 2^-6 of
its panel's live span seen so far (usually after one round), because both
dead flanks are integrated too: only the window's width matters, not
where exactly it is cut.

The first Gauss-Kronrod pass cuts every plain panel at the tail walks'
points inside it.  A tail panel, from the outermost breakpoint to the
cut, holds its mass next to that breakpoint, and refinement would halve
it toward the mass one pass at a time; the walk's steps, growing by 1.35,
grade it that way from the start.  The cuts are depth-0 intervals of the
one panel, not panel breakpoints: as breakpoints, every tail sub-panel
would be scanned and most of them zoomed.

The sum is accepted when its error estimate E meets

    E <= max(max(rel_tol, 4 eps G) * |I|,  50 eps * int |f|),

where int |f| is the Kronrod rule applied to |f| on the same nodes, summed
over the intervals like I and E.  The second term is the rounding floor of
the sum itself (QUADPACK's ``resabs`` test): a signed integrand that
cancels to zero, such as an odd moment, converges on it, while a positive
integrand, whose int |f| is |I|, is held to rel_tol whatever its scale.
The term 4 eps G is the rounding of g itself.  Each of its terms, g_core
and the two endpoint powers, is rounded at its own scale, so G is the
mean over |f| of the sum of their magnitudes, taken from the first pass,
and at least |M|: at G ~ 1e5 nats it exceeds the default rel_tol, and no
refinement removes it.  G exceeds |M| where the terms cancel, as
q a ln(1 - x) + q b ln(1 + x) do near a central peak at large q.  The
node u is rounded too, by a few eps |u|, which moves g by eps |u g'(u)|,
about eps |u|/w next to a peak of width w; so each node's size also holds
|u dg/du|, from differences of g along its row of 21 nodes.  The logs of
the ends +-1, or of any power of two, are taken as ln|c| + log1p(-x/c),
which keeps the bits of x that forming x - c drops.
The reported relative error is max(E, 50 eps int |f|) / |I| or 4 eps G,
the larger: E, the Gauss-Kronrod difference, overstates the error of the
Kronrod sum by orders of magnitude, except where the rule is exact and
the roundings remain.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalFailure
from .special import log_distance

__all__ = ["QuadratureConfig", "QuadratureFailure", "LogIntegrand", "LogQuadResult", "log_integral",
           "bisect_brackets"]

# 10-21 Gauss-Kronrod pair on [-1, 1], QUADPACK's QK21 (Piessens et al.
# 1983), to 17 significant digits: the nodes x < 0 with their Kronrod
# weights, then the weight of x = 0; the table is mirrored about x = 0
_XK_LEFT = (-0.99565716302580808, -0.97390652851717172, -0.93015749135570823,
            -0.86506336668898451, -0.78081772658641690, -0.67940956829902441,
            -0.56275713466860468, -0.43339539412924719, -0.29439286270146020,
            -0.14887433898163121)
_WK_LEFT = (0.011694638867371874, 0.032558162307964727, 0.054755896574351996,
            0.075039674810919953, 0.093125454583697606, 0.10938715880229764,
            0.12349197626206585, 0.13470921731147333, 0.14277593857706008,
            0.14773910490133849)
_WK_MID = 0.14944555400291691
# the 10-point Gauss weights of x < 0, which attach to Kronrod nodes 1, 3, 5, 7, 9
_WG_LEFT = (0.066671344308688138, 0.14945134915058059, 0.21908636251598204,
            0.26926671930999636, 0.29552422471475287)
_XK = np.array(_XK_LEFT + (0.0,) + tuple(-x for x in reversed(_XK_LEFT)))
_WK = np.array(_WK_LEFT + (_WK_MID,) + _WK_LEFT[::-1])
_WG = np.array(_WG_LEFT + _WG_LEFT[::-1])  # Kronrod nodes 1, 3, ..., 19
# the two nodes each node's slope is differenced over: its neighbours, at an end itself and one
_NEXT, _PREV = np.minimum(np.arange(1, 22), 20), np.maximum(np.arange(-1, 20), 0)

_SCAN_POINTS = 33
_REFINE_ROUNDS = 3
_REFINE_POINTS = 17
_RESOLVED = 1.0  # nats: a scanned peak this close to both neighbours needs no zoom
_SMOOTH_POWER = 6  # a substituted end panel's weakest power of t, at least
_BISECT_STEPS = 6    # bisection steps per batch
_BISECT_ROUNDS = 10  # 60 steps in all
_EDGE_PRECISION = 2.0 ** -6  # live-window edge bracket, relative to the live span
_TAIL_STEPS = 500
_TAIL_BLOCK = 16
_MAX_INTERVALS = 40_000
_MAX_DEPTH = 40
_TAIL_CUTOFF = 120.0  # nats below the peak where tails and dead flanks are cut
_EXP_CLAMP = 500.0
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
_SHIFT_ROUNDING = 4.0 * np.finfo(float).eps  # relative error of exp(g - M) per nat of g's terms


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-11

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureFailure(NumericalFailure):
    """Tolerance not met within the subdivision budget; .best holds the estimate."""


class LogQuadResult(NamedTuple):
    sign: int
    log_abs: float      # ln|I|; -inf when I == 0
    rel_err: float
    neval: int


@dataclass
class LogIntegrand:
    """Problem description handed to :func:`log_integral`.

    ``g_core_many`` and ``phi_many`` are the integrand's array forms, and
    every phase of the engine evaluates whole batches, so no scalar form is
    needed.  ``g_core_many`` maps a 1-d array of points x to g_core(x).
    ``phi_many(x, core, ends)`` is optional (without it phi = 1); it gets
    the points, the values of g_core there and the endpoint powers
    ends = e_left ln(x - a) + e_right ln(b - x), so that phi can be built
    from the logs the engine already holds.  On a substituted end panel x
    may round to the endpoint, but the engine takes that endpoint's log
    from t exactly, so ends stays finite where x alone would give ln 0.
    """

    a: float
    b: float
    g_core_many: Callable[[np.ndarray], np.ndarray]
    e_left: float = 0.0
    e_right: float = 0.0
    breakpoints: tuple = ()
    phi_many: Optional[Callable[[np.ndarray], np.ndarray]] = None


_PLAIN, _LEFT, _RIGHT = 0, 1, -1


class _Panel:
    """One integration panel in its own coordinate u over (lo, hi).

    A plain panel has u = x.  A panel at a substituted endpoint c (``side``
    _LEFT for a, _RIGHT for b) has u = t with |x - c| = t^p, see
    :func:`_power`.
    """

    __slots__ = ("lo", "hi", "side", "peak")

    def __init__(self, lo, hi, side=_PLAIN):
        self.lo = lo
        self.hi = hi
        self.side = side
        self.peak = -math.inf


def _power(e: float) -> Optional[tuple[float, int]]:
    """(p, j) of the substitution |x - c| = t^p, p = (j + 1)/(1 + e), which
    turns |x - c|^e dx into p t^j dt; None where the end stays plain.

    j = 0 for e in (-1, 0).  For e >= 0 the smooth rest F of the integrand
    becomes F(c +- t^p), a series in t^p, and j is the least integer with
    j + p >= _SMOOTH_POWER.  An integer e, or one of at least
    _SMOOTH_POWER, is smooth enough as it stands."""
    if not -1.0 < e < _SMOOTH_POWER or e == math.floor(e):
        return None
    j = 0
    if e > 0.0:
        while j + (j + 1) / (1.0 + e) < _SMOOTH_POWER:
            j += 1
    return (j + 1) / (1.0 + e), j


class _Sub(NamedTuple):
    """A substituted end: its exponent e, p and j of :func:`_power`, and
    the other end with its exponent."""

    end: float
    e: float
    p: float
    j: int
    other: float
    e_other: float


def _substituted(spec: LogIntegrand, side: int) -> Optional[_Sub]:
    """The substitution at end ``side`` of the spec, or None."""
    if side == _LEFT:
        end, e, other, e_other = spec.a, spec.e_left, spec.b, spec.e_right
    else:
        end, e, other, e_other = spec.b, spec.e_right, spec.a, spec.e_left
    power = _power(e) if math.isfinite(end) else None
    if power is None:
        return None
    return _Sub(end, e, *power, other, e_other)


def _logf_rows(spec: LogIntegrand, panels: list[_Panel], us: np.ndarray, sizes: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(g, x, core, ends, size) at the points us[i] of panels[i], with one
    call of the core over the whole batch: g is the log-integrand in the
    panels' own coordinates, core = g_core(x), ends the endpoint powers
    e_left ln(x - a) + e_right ln(b - x), a substituted end's log taken
    from t, and size, if asked for, the sum of the magnitudes of the terms
    of g, each rounded at its own scale."""
    xs = us.copy()
    sides = np.array([p.side for p in panels])
    rows = []  # (side, substitution, row mask, ln t) per substituted side
    for side in (_LEFT, _RIGHT):
        r = sides == side
        if r.any():
            sub, t = _substituted(spec, side), us[r]
            lt = np.log(t)
            xs[r] = np.where(t > 0.0, sub.end + side * np.exp(sub.p * lt), sub.end)
            rows.append((side, sub, r, lt))
    core = spec.g_core_many(xs.ravel()).reshape(xs.shape)
    ends = np.zeros_like(xs)
    size = np.abs(core) if sizes else None
    for end, e, dist in ((spec.b, spec.e_right, spec.b - xs), (spec.a, spec.e_left, xs - spec.a)):
        if math.isfinite(end) and e != 0.0:
            term = e * log_distance(end, xs, dist)
            ends = np.where(dist > 0.0, ends + term, -math.inf if e > 0 else math.inf)
            if sizes:
                size += np.abs(term)
    g = core + ends
    for side, sub, r, lt in rows:
        # the substituted end's e ln|x - c|, with dx = p t^(p-1) dt, is ln p + j ln t
        g[r] = core[r] + math.log(sub.p)
        if sub.j:
            g[r] += sub.j * lt
        other = 0.0
        if math.isfinite(sub.other) and sub.e_other != 0.0:
            other = sub.e_other * log_distance(sub.other, xs[r], side * (sub.other - xs[r]))
            g[r] += other
        ends[r] = sub.e * sub.p * lt + other
        if sizes:
            size[r] = np.abs(core[r]) + np.abs(other) + (sub.j * np.abs(lt) if sub.j else 0.0)
    return g, xs, core, ends, size


def _walk(start: float, direction: int):
    """The tail walk's points: start, then _TAIL_STEPS steps growing by 1.35."""
    x, step = start, 1.0 + 0.05 * abs(start)
    yield x
    for _ in range(_TAIL_STEPS):
        x += direction * step
        yield x
        step *= 1.35


def _tail_cuts(spec: LogIntegrand, walks: list[tuple[float, int]]
               ) -> tuple[list[float], list[float]]:
    """For each walk (start, direction), the first point where g lies
    _TAIL_CUTOFF + 30 nats below the best value met so far, from the third
    step on; and the points of all walks short of their cuts.  The walks
    still going are evaluated together, one row each, in batches of
    _TAIL_BLOCK points."""
    points = [_walk(start, direction) for start, direction in walks]
    best, cuts = [-math.inf] * len(walks), [None] * len(walks)
    walked = []
    plain = _Panel(-math.inf, math.inf)
    k0 = -1  # k counts steps; the start is step -1
    while live := [i for i, cut in enumerate(cuts) if cut is None]:
        blocks = [list(itertools.islice(points[i], _TAIL_BLOCK)) for i in live]
        if not blocks[0]:  # every walk has the same length
            raise NumericalFailure(f"tail walk found no decay within {_TAIL_STEPS} steps")
        gs = _logf_rows(spec, [plain] * len(live), np.array(blocks))[0]
        for i, block, row in zip(live, blocks, gs.tolist()):
            for k, (x, gv) in enumerate(zip(block, row), k0):
                if k < 0:
                    best[i] = gv if math.isfinite(gv) else -math.inf
                elif gv > best[i]:
                    best[i] = gv
                elif k >= 2 and gv < best[i] - (_TAIL_CUTOFF + 30.0):
                    cuts[i] = x
                    break
                walked.append(x)
        k0 += _TAIL_BLOCK
    return cuts, walked


# ascending Chebyshev scan nodes on [-1, 1] and the zoom steps j = 1..16
_SCAN_COS = np.array([math.cos(math.pi * (j + 0.5) / _SCAN_POINTS)
                      for j in range(_SCAN_POINTS - 1, -1, -1)])
_REFINE_J = np.arange(1.0, _REFINE_POINTS)


def _scan_panels(spec: LogIntegrand, panels: list[_Panel]):
    """Chebyshev scan of every panel, then zoom rounds around the sampled
    argmax of each panel whose peak the scan leaves unresolved; one batch
    per phase.  Returns (xs, gs, gmax, xmax) per panel row, xmax the point
    of the peak gmax found."""
    lo = np.array([p.lo for p in panels])
    hi = np.array([p.hi for p in panels])
    rows = np.arange(len(panels))
    xs = 0.5 * (lo + hi)[:, None] + (0.5 * (hi - lo))[:, None] * _SCAN_COS
    gs = _logf_rows(spec, panels, xs)[0]
    best = gs.argmax(axis=1)
    gmax, xmax = gs[rows, best], xs[rows, best]
    # a concave peak whose neighbours at spacing h lie within _RESOLVED
    # nats of it is within about _RESOLVED / 4 nats of the true one
    inner = np.clip(best, 1, _SCAN_POINTS - 2)
    resolved = ((best == inner) & (gs[rows, inner - 1] >= gmax - _RESOLVED)
                & (gs[rows, inner + 1] >= gmax - _RESOLVED))
    zoom = np.flatnonzero(~resolved)
    if zoom.size:
        sub, zrows = [panels[i] for i in zoom], np.arange(zoom.size)
        lo, hi, xz, gz_max = lo[zoom], hi[zoom], xmax[zoom], gmax[zoom]
        win = (hi - lo) / _SCAN_POINTS
        for _ in range(_REFINE_ROUNDS):
            a = np.maximum(lo, xz - win)
            b = np.minimum(hi, xz + win)
            zs = a[:, None] + (b - a)[:, None] * _REFINE_J / _REFINE_POINTS
            gz = _logf_rows(spec, sub, zs)[0]
            best = gz.argmax(axis=1)
            better = gz[zrows, best] > gz_max
            gz_max = np.where(better, gz[zrows, best], gz_max)
            xz = np.where(better, zs[zrows, best], xz)
            win = win / _REFINE_POINTS
        gmax[zoom], xmax[zoom] = gz_max, xz
    return xs, gs, gmax, xmax


def _bisect_round(above_many: Callable[[np.ndarray], np.ndarray], outer: np.ndarray,
                  inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_BISECT_STEPS bisection steps of every bracket (outer[i] false, inner[i]
    true) at once; returns the new (outer, inner).  All midpoints the steps
    could visit are evaluated in one batch, then the steps are taken on the
    values."""
    rows = np.arange(len(outer))
    parts = 2 ** _BISECT_STEPS
    grid = np.empty((len(outer), parts + 1))
    grid[:, 0], grid[:, -1] = outer, inner
    step = parts // 2
    while step:  # nested midpoints, rounded as the bisection rounds them
        grid[:, step::2 * step] = 0.5 * (grid[:, :-1:2 * step] + grid[:, 2 * step::2 * step])
        step //= 2
    above = above_many(grid[:, 1:-1])  # column j - 1 holds grid point j
    o, half = np.zeros_like(rows), parts // 2
    while half:  # the bracket is grid points o and o + 2 half
        m = o + half
        o = np.where(above[rows, m - 1], o, m)
        half //= 2
    return grid[rows, o], grid[rows, o + 1]


def bisect_brackets(above_many: Callable[[np.ndarray], np.ndarray], outer,
                    inner) -> np.ndarray:
    """Where a predicate turns true between outer[i] (false) and inner[i]
    (true): a 60-step bisection of every bracket at once, in _BISECT_ROUNDS
    rounds of :func:`_bisect_round`.  above_many maps a 2-d array of points,
    row i inside bracket i, to the boolean array of the predicate."""
    for _ in range(_BISECT_ROUNDS):
        outer, inner = _bisect_round(above_many, outer, inner)
    return 0.5 * (outer + inner)


def _split_on_live_windows(spec: LogIntegrand, panels: list[_Panel], xs: np.ndarray,
                           gs: np.ndarray, gmax: np.ndarray, xmax: np.ndarray) -> list[_Panel]:
    """Cut each panel whose live window (where g is within _TAIL_CUTOFF of the
    panel's peak) spans at most a quarter of it into the window and the two
    dead flanks.  A panel whose scanned live points already span more than
    a quarter stays whole without a search.  Where no scanned point is live,
    only a zoom reached the peak, and the window grows from its point xmax
    between the two scanned neighbours; kept whole, such a panel can hide
    the peak between its Gauss-Kronrod nodes, whose flanks alone then seem
    to converge.  The edges of all others are
    bisected together in rounds of :func:`_bisect_round` until every
    bracket is narrower than _EDGE_PRECISION times its panel's live span
    seen so far, or for at most _BISECT_ROUNDS rounds.  That span runs
    between the two inner ends of a two-sided window, and from the inner
    end to the far panel end of a one-sided one.  Both dead flanks are
    integrated too, so only the window's width needs this precision, not
    where it is cut; the outer end of each bracket is taken, so the window
    only widens."""
    last = xs.shape[1] - 1
    wins, edges = [], []  # edges: (row, side, outer, inner, level, far panel end)
    for i, (p, peak, top) in enumerate(zip(panels, gmax.tolist(), xmax.tolist())):
        p.peak = peak
        level = peak - _TAIL_CUTOFF
        idx = np.flatnonzero(gs[i] >= level)
        if idx.size and xs[i, idx[-1]] - xs[i, idx[0]] > 0.25 * (p.hi - p.lo):
            wins.append(None)
            continue
        if idx.size:  # the live scanned points run from lo_i to hi_i
            lo_i, hi_i = idx[0], idx[-1]
            left, right = xs[i, lo_i], xs[i, hi_i]
        else:  # the zoomed peak lies between the dead points hi_i and lo_i
            lo_i = int(np.searchsorted(xs[i], top))
            hi_i, left, right = lo_i - 1, top, top
        wins.append([p.lo, p.hi])
        if lo_i > 0:
            edges.append((i, 0, xs[i, lo_i - 1], left, level, p.hi))
        if hi_i < last:
            edges.append((i, 1, xs[i, hi_i + 1], right, level, p.lo))
    if edges:
        rows, sides, outer, inner, level, far = map(np.array, zip(*edges))
        sub, level = [panels[i] for i in rows], level[:, None]
        own = np.arange(len(rows))
        pair = own.copy()  # the other edge of a two-sided window, else the edge itself
        both = np.flatnonzero(rows[1:] == rows[:-1])
        pair[both], pair[both + 1] = both + 1, both

        def above(us):
            return _logf_rows(spec, sub, us)[0] >= level

        for _ in range(_BISECT_ROUNDS):
            outer, inner = _bisect_round(above, outer, inner)
            span = np.abs(np.where(pair == own, far, inner[pair]) - inner)
            if (np.abs(outer - inner) < _EDGE_PRECISION * span).all():
                break
        for i, side, x in zip(rows, sides, outer.tolist()):
            wins[i][side] = x
    out = []
    for p, win in zip(panels, wins):
        if win is None or win[1] - win[0] > 0.25 * (p.hi - p.lo):
            out.append(p)
            continue
        left, right = win
        for u, v in ((p.lo, left), (left, right), (right, p.hi)):
            if v > u:
                sub = _Panel(u, v, p.side)
                sub.peak = p.peak if (u, v) == (left, right) else p.peak - _TAIL_CUTOFF
                out.append(sub)
    return out


def _gk_rows(spec: LogIntegrand, panels: list[_Panel], a: list[float], b: list[float],
             shift: float, sizes: bool = False
             ) -> tuple[list[float], list[float], list[float], Optional[float]]:
    """10-21 Gauss-Kronrod rule over (a[i], b[i]) of panels[i], one batch for
    all rows; returns the Kronrod estimates, their error estimates
    |K21 - G10| h and the Kronrod estimates of int |f|, and, if asked for,
    the Kronrod estimate of int |f| size over all rows (see
    :func:`_logf_rows`; size here also holds each node's |u dg/du|)."""
    a, b = np.array(a), np.array(b)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = c[:, None] + h[:, None] * _XK
    g, xs, core, ends, size = _logf_rows(spec, panels, us, sizes)
    if sizes:  # the node's own rounding, |u dg/du|, by differences along each row
        slope = (g[:, _NEXT] - g[:, _PREV]) / (us[:, _NEXT] - us[:, _PREV])
        size = size + np.where(np.isfinite(slope), np.abs(us * slope), 0.0)
    if (g - shift > _EXP_CLAMP).any():
        raise NumericalFailure("integrand exceeds shifted clamp; peak scan missed the maximum")
    w = np.where(g > -math.inf, np.exp(g - shift), 0.0)
    if spec.phi_many is not None:
        live = w != 0.0
        w[live] *= spec.phi_many(xs[live], core[live], ends[live])
    if np.isnan(w).any():
        raise NumericalFailure(f"integrand evaluated to NaN at x={us[np.isnan(w)][0]}")
    fk = w @ _WK
    fg = w[:, 1::2] @ _WG
    i_k = (h * fk).tolist()
    a_k = i_k if spec.phi_many is None else (h * (np.abs(w) @ _WK)).tolist()  # without phi, f >= 0
    size_sum = float(h @ (np.where(w != 0.0, np.abs(w) * size, 0.0) @ _WK)) if sizes else None
    return i_k, np.abs(h * (fk - fg)).tolist(), a_k, size_sum


def log_integral(spec: LogIntegrand, cfg: QuadratureConfig = DEFAULT_CONFIG) -> LogQuadResult:
    """int exp(g) phi over the spec's domain (see the module docstring).

    Refines in rounds: each round halves, in one batch, the largest-error
    intervals whose errors together stand between the running total and
    the tolerance.  Refinement stops at the acceptance rule of the module
    docstring, or stalls (raising QuadratureFailure with ``.best``) at an
    interval of depth _MAX_DEPTH or at _MAX_INTERVALS intervals."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_integral(spec, cfg)


def _log_integral(spec: LogIntegrand, cfg: QuadratureConfig) -> LogQuadResult:
    lo, hi = spec.a, spec.b
    bps = sorted(x for x in spec.breakpoints if spec.a < x < spec.b)
    # direction: start of the tail walk, the outermost of 0 and the breakpoints
    walks = {d: start for d, end, start in ((-1, lo, min([0.0] + bps)), (1, hi, max([0.0] + bps)))
             if not math.isfinite(end)}
    cuts, walked = _tail_cuts(spec, [(start, d) for d, start in walks.items()])
    cuts = dict(zip(walks, cuts))
    lo, hi = cuts.get(-1, lo), cuts.get(+1, hi)

    for e, name in ((spec.e_left, "left"), (spec.e_right, "right")):
        if e <= -1.0:
            raise DomainError(f"non-integrable {name} endpoint exponent {e}")

    edges = [lo] + [x for x in bps if lo < x < hi] + [hi]
    left, right = _substituted(spec, _LEFT), _substituted(spec, _RIGHT)
    if len(edges) == 2 and left is not None and right is not None:
        edges = [lo, 0.5 * (lo + hi), hi]

    panels: list[_Panel] = []
    for i in range(len(edges) - 1):
        u, v = edges[i], edges[i + 1]
        if not v > u:
            continue
        # t = |x - c|^(1/p), with 1/p = 1 + e exactly where j = 0
        if i == 0 and left is not None and u == spec.a:
            panels.append(_Panel(0.0, (v - u) ** ((1.0 + left.e) / (left.j + 1)), _LEFT))
        elif i == len(edges) - 2 and right is not None and v == spec.b:
            panels.append(_Panel(0.0, (v - u) ** ((1.0 + right.e) / (right.j + 1)), _RIGHT))
        else:
            panels.append(_Panel(u, v))

    work = _split_on_live_windows(spec, panels, *_scan_panels(spec, panels))
    shift = max(p.peak for p in work)

    # the first pass cuts every plain panel at the tail walks' points inside it
    walked.sort()
    panels, los, his = [], [], []
    for p in work:
        cut = walked[bisect.bisect_right(walked, p.lo):bisect.bisect_left(walked, p.hi)]
        ends = [p.lo] + (cut if p.side == _PLAIN else []) + [p.hi]
        panels += [p] * (len(ends) - 1)
        los += ends[:-1]
        his += ends[1:]
    heap = []
    tick = 0
    total_i = total_err = total_abs = 0.0
    neval = _XK.size * len(panels)
    i_rows, e_rows, a_rows, total_size = _gk_rows(spec, panels, los, his, shift, sizes=True)
    for p, a, b, I, err, A in zip(panels, los, his, i_rows, e_rows, a_rows):
        heapq.heappush(heap, (-err, tick, p, a, b, I, err, A, 0))
        tick += 1
        total_i += I
        total_err += err
        total_abs += A

    # each term of g, and each node, is rounded at its own scale, so every
    # node carries a relative error of a few eps times its size, which no
    # refinement removes: at least |shift|, more where terms cancel
    scale = max(abs(shift), total_size / total_abs if total_abs > 0.0 else 0.0)
    g_err = _SHIFT_ROUNDING * scale if math.isfinite(scale) else 0.0
    rel_tol = max(cfg.rel_tol, g_err)

    def within_tol(err: float) -> bool:
        return err <= max(rel_tol * abs(total_i), _ROUNDING_FLOOR * total_abs)

    stalled = False
    while not stalled and not within_tol(total_err):
        # one round: pop, largest error first, the shortest prefix whose
        # removal would meet the tolerance, then split all of it in one batch
        split, narrow = [], []
        remaining = total_err
        while heap:
            entry = heapq.heappop(heap)
            _, _, p, a, b, I, err, A, depth = entry
            if depth >= _MAX_DEPTH or len(heap) + len(narrow) + 2 * len(split) > _MAX_INTERVALS:
                heapq.heappush(heap, entry)
                stalled = True
                break
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                narrow.append(entry)  # too narrow to split: its error is final
                total_err -= err
            else:
                split.append(entry)
            remaining -= err
            if within_tol(remaining):
                break
        for _, _, p, a, b, I, _, A, depth in narrow:
            heapq.heappush(heap, (0.0, tick, p, a, b, I, 0.0, A, depth))
            tick += 1
        if not split:
            continue
        panels, los, his = [], [], []
        for _, _, p, a, b, _, _, _, _ in split:
            mid = 0.5 * (a + b)
            panels += (p, p)
            los += (a, mid)
            his += (mid, b)
        i_rows, e_rows, a_rows, _ = _gk_rows(spec, panels, los, his, shift)
        neval += _XK.size * len(panels)
        for k, (_, _, p, a, b, I, err, A, depth) in enumerate(split):
            j = 2 * k
            mid = los[j + 1]
            (i1, i2), (e1, e2), (a1, a2) = i_rows[j:j + 2], e_rows[j:j + 2], a_rows[j:j + 2]
            total_i += (i1 + i2) - I
            total_err += (e1 + e2) - err
            total_abs += (a1 + a2) - A
            heapq.heappush(heap, (-e1, tick, p, a, mid, i1, e1, a1, depth + 1))
            heapq.heappush(heap, (-e2, tick + 1, p, mid, b, i2, e2, a2, depth + 1))
            tick += 2

    if total_i == 0.0:
        sign, log_abs = 0, -math.inf
        rel = math.inf if total_err > 0 else 0.0
    else:
        sign = 1 if total_i > 0 else -1
        log_abs = math.log(abs(total_i)) + shift
        rel = max(max(total_err, _ROUNDING_FLOOR * total_abs) / abs(total_i), g_err)
    result = LogQuadResult(sign, log_abs, rel, neval)
    if total_i == 0.0 and spec.phi_many is None and shift > -math.inf:
        # exp(g) > 0 at the scanned peak, so a zero sum means every node missed it
        raise QuadratureFailure(
            "a positive integrand summed to zero: every Gauss-Kronrod node underflowed "
            "below the scanned peak", best=result)
    if not within_tol(total_err):
        raise QuadratureFailure(
            f"quadrature stalled at relative error {rel:.3e} (target {rel_tol:.1e})",
            best=result)
    return result
