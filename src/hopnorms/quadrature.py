"""Adaptive Gauss-Kronrod quadrature for log-space integrands.

Every integral in this package has the shape

    I = int exp(g(x)) * phi(x) dx,    g(x) = g_core(x) + e_a ln(x-a) + e_b ln(b-x),

where g may swing over thousands of nats (weights like x^alpha e^(-x) with
alpha ~ 1e4) and phi is an optional signed factor (entropy integrands).
The engine:

  * truncates infinite tails where g falls _TAIL_CUTOFF + 30 nats below
    the running peak (walk with geometrically growing steps),
  * splits the domain at caller-supplied breakpoints (polynomial zeros,
    where |p|^q has cusps and log factors have singularities),
  * removes integrable endpoint singularities with exponent e in (-1, 0)
    by the substitution t = (x - a)^(1+e), which cancels the singular
    factor exactly,
  * locates the global maximum M of g by per-panel Chebyshev scans with
    local refinement, then integrates exp(g - M) with a 7-15
    Gauss-Kronrod pair refined in rounds (below),
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
pass of all panels are one call each.  A panel whose scanned live points
(g within the cutoff of its peak) span more than a quarter of it stays
whole.  The live-window edges of all other panels are bisected together,
six steps per call, in the rounds of :func:`bisect_brackets`, the
bisection the Laplace maximizer also uses for the critical points of the
density.  The maximizer takes all ten rounds (60 steps), because its
point must be exact.  The edge search stops once every bracket is
narrower than 2^-6 of its panel's live span seen so far (usually after
one round), because both dead flanks are integrated too: only the
window's width matters, not where exactly it is cut.

The sum is accepted when its error estimate E meets

    E <= max(max(rel_tol, 4 eps |M|) * |I|,  50 eps * int |f|),

where int |f| is the Kronrod rule applied to |f| on the same nodes, summed
over the intervals like I and E.  The second term is the rounding floor of
the sum itself (QUADPACK's ``resabs`` test): a signed integrand that
cancels to zero, such as an odd moment, converges on it, while a positive
integrand, whose int |f| is |I|, is held to rel_tol whatever its scale.
The term 4 eps |M| is the rounding of g itself, which is computed at the
scale of its peak M: at |M| ~ 1e5 nats it exceeds the default rel_tol, and
no refinement removes it.  The reported relative error is
max(E / |I|, 4 eps |M|): E, the Gauss-Kronrod difference, overstates the
error of the Kronrod sum by orders of magnitude, so the larger term bounds
both.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalFailure

__all__ = ["QuadratureConfig", "QuadratureFailure", "LogIntegrand", "LogQuadResult", "log_integral",
           "bisect_brackets"]

# 7-15 Gauss-Kronrod pair on [-1, 1]
_XK = np.array((
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
))
_WK = np.array((
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
))
# Gauss weights attach to Kronrod nodes 1, 3, 5, 7, 9, 11, 13
_WG = np.array((0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
                0.381830050505119, 0.279705391489277, 0.129484966168870))

_SCAN_POINTS = 33
_REFINE_ROUNDS = 3
_REFINE_POINTS = 17
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
_SHIFT_ROUNDING = 4.0 * np.finfo(float).eps  # relative error of exp(g - M) per nat of |M|


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

    ``g_core_many`` and ``phi_many`` are the integrand's array forms: each
    maps a 1-d array of points to the array of values of g_core or phi.
    Every phase of the engine evaluates whole batches, so no scalar form is
    needed.  ``phi_many`` is optional; without it phi = 1.
    """

    a: float
    b: float
    g_core_many: Callable[[np.ndarray], np.ndarray]
    e_left: float = 0.0
    e_right: float = 0.0
    breakpoints: tuple = ()
    phi_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail_seed_left: Optional[float] = None
    tail_seed_right: Optional[float] = None


_PLAIN, _LEFT, _RIGHT = 0, 1, -1


class _Panel:
    """One integration panel in its own coordinate u over (lo, hi).

    A plain panel has u = x.  A panel at a singular endpoint c (``side``
    _LEFT for a, _RIGHT for b) has u = t = |x - c|^(1+e), which cancels the
    factor |x - c|^e exactly.
    """

    __slots__ = ("lo", "hi", "side", "peak")

    def __init__(self, lo, hi, side=_PLAIN):
        self.lo = lo
        self.hi = hi
        self.side = side
        self.peak = -math.inf


def _transform(spec: LogIntegrand, side: int) -> tuple[float, float, float, float, float]:
    """(end, p, other end, its exponent, ln p) of a transformed panel."""
    if side == _LEFT:
        end, e, other, e_other = spec.a, spec.e_left, spec.b, spec.e_right
    else:
        end, e, other, e_other = spec.b, spec.e_right, spec.a, spec.e_left
    p = 1.0 / (1.0 + e)
    return end, p, other, e_other, math.log(p)


def _logf_rows(spec: LogIntegrand, panels: list[_Panel],
               us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-integrand, x) at the points us[i] of panels[i], with one call of
    the core over the whole batch."""
    xs = us.copy()
    sides = np.array([p.side for p in panels])
    rows = [(side, sides == side) for side in (_LEFT, _RIGHT) if (sides == side).any()]
    for side, r in rows:
        end, p, _, _, _ = _transform(spec, side)
        t = us[r]
        xs[r] = np.where(t > 0.0, end + side * np.exp(p * np.log(t)), end)
    core = spec.g_core_many(xs.ravel()).reshape(xs.shape)
    g = core  # plain panels: g_core plus both endpoint logs
    for end, e, dist in ((spec.b, spec.e_right, spec.b - xs), (spec.a, spec.e_left, xs - spec.a)):
        if math.isfinite(end) and e != 0.0:
            g = np.where(dist > 0.0, g + e * np.log(dist), -math.inf if e > 0 else math.inf)
    for side, r in rows:
        _, _, other, e_other, lnp = _transform(spec, side)
        g[r] = core[r] + lnp
        if math.isfinite(other) and e_other != 0.0:
            g[r] += e_other * np.log(side * (other - xs[r]))
    return g, xs


def _walk(start: float, direction: int):
    """The tail walk's points: start, then _TAIL_STEPS steps growing by 1.35."""
    x, step = start, 1.0 + 0.05 * abs(start)
    yield x
    for _ in range(_TAIL_STEPS):
        x += direction * step
        yield x
        step *= 1.35


def _tail_cuts(spec: LogIntegrand, walks: list[tuple[float, int]]) -> list[float]:
    """For each walk (start, direction), the first point where g lies
    _TAIL_CUTOFF + 30 nats below the best value met so far, from the third
    step on.  The walks still going are evaluated together, one row each,
    in batches of _TAIL_BLOCK points."""
    points = [_walk(start, direction) for start, direction in walks]
    best, cuts = [-math.inf] * len(walks), [None] * len(walks)
    plain = _Panel(-math.inf, math.inf)
    k0 = -1  # k counts steps; the start is step -1
    while live := [i for i, cut in enumerate(cuts) if cut is None]:
        blocks = [list(itertools.islice(points[i], _TAIL_BLOCK)) for i in live]
        if not blocks[0]:  # every walk has the same length
            raise NumericalFailure(f"tail walk found no decay within {_TAIL_STEPS} steps")
        gs, _ = _logf_rows(spec, [plain] * len(live), np.array(blocks))
        for i, block, row in zip(live, blocks, gs.tolist()):
            for k, (x, gv) in enumerate(zip(block, row), k0):
                if k < 0:
                    best[i] = gv if math.isfinite(gv) else -math.inf
                elif gv > best[i]:
                    best[i] = gv
                elif k >= 2 and gv < best[i] - (_TAIL_CUTOFF + 30.0):
                    cuts[i] = x
                    break
        k0 += _TAIL_BLOCK
    return cuts


# ascending Chebyshev scan nodes on [-1, 1] and the zoom steps j = 1..16
_SCAN_COS = np.array([math.cos(math.pi * (j + 0.5) / _SCAN_POINTS)
                      for j in range(_SCAN_POINTS - 1, -1, -1)])
_REFINE_J = np.arange(1.0, _REFINE_POINTS)


def _scan_panels(spec: LogIntegrand, panels: list[_Panel]):
    """Chebyshev scan of every panel, then zoom rounds around each sampled
    argmax; one batch per phase.  Returns (xs, gs, gmax) per panel row."""
    lo = np.array([p.lo for p in panels])
    hi = np.array([p.hi for p in panels])
    rows = np.arange(len(panels))
    xs = 0.5 * (lo + hi)[:, None] + (0.5 * (hi - lo))[:, None] * _SCAN_COS
    gs, _ = _logf_rows(spec, panels, xs)
    best = gs.argmax(axis=1)
    gmax, xmax = gs[rows, best], xs[rows, best]
    win = (hi - lo) / _SCAN_POINTS
    for _ in range(_REFINE_ROUNDS):
        a = np.maximum(lo, xmax - win)
        b = np.minimum(hi, xmax + win)
        zs = a[:, None] + (b - a)[:, None] * _REFINE_J / _REFINE_POINTS
        gz, _ = _logf_rows(spec, panels, zs)
        best = gz.argmax(axis=1)
        better = gz[rows, best] > gmax
        gmax = np.where(better, gz[rows, best], gmax)
        xmax = np.where(better, zs[rows, best], xmax)
        win = win / _REFINE_POINTS
    return xs, gs, gmax


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
                           gs: np.ndarray, gmax: np.ndarray) -> list[_Panel]:
    """Cut each panel whose live window (where g is within _TAIL_CUTOFF of the
    panel's peak) spans at most a quarter of it into the window and the two
    dead flanks.  A panel whose scanned live points already span more than
    a quarter stays whole without a search.  The edges of all others are
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
    for i, (p, peak) in enumerate(zip(panels, gmax.tolist())):
        p.peak = peak
        level = peak - _TAIL_CUTOFF
        idx = np.flatnonzero(gs[i] >= level)
        if not idx.size or xs[i, idx[-1]] - xs[i, idx[0]] > 0.25 * (p.hi - p.lo):
            wins.append(None)
            continue
        lo_i, hi_i = idx[0], idx[-1]
        wins.append([p.lo, p.hi])
        if lo_i > 0:
            edges.append((i, 0, xs[i, lo_i - 1], xs[i, lo_i], level, p.hi))
        if hi_i < last:
            edges.append((i, 1, xs[i, hi_i + 1], xs[i, hi_i], level, p.lo))
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
             shift: float) -> tuple[list[float], list[float], list[float]]:
    """7-15 Gauss-Kronrod rule over (a[i], b[i]) of panels[i], one batch for
    all rows; returns the Kronrod estimates, their error estimates and the
    Kronrod estimates of int |f|."""
    a, b = np.array(a), np.array(b)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = c[:, None] + h[:, None] * _XK
    g, xs = _logf_rows(spec, panels, us)
    if (g - shift > _EXP_CLAMP).any():
        raise NumericalFailure("integrand exceeds shifted clamp; peak scan missed the maximum")
    w = np.where(g > -math.inf, np.exp(g - shift), 0.0)
    if spec.phi_many is not None:
        live = w != 0.0
        w[live] *= spec.phi_many(xs[live])
    if np.isnan(w).any():
        raise NumericalFailure(f"integrand evaluated to NaN at x={us[np.isnan(w)][0]}")
    fk = w @ _WK
    fg = w[:, 1::2] @ _WG
    i_k = (h * fk).tolist()
    a_k = i_k if spec.phi_many is None else (h * (np.abs(w) @ _WK)).tolist()  # without phi, f >= 0
    return i_k, np.abs(h * (fk - fg)).tolist(), a_k


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
    walks = {}  # direction: start of the tail walk
    if not math.isfinite(lo):
        seed = spec.tail_seed_left if spec.tail_seed_left is not None else 0.0
        walks[-1] = min([seed] + bps)
    if not math.isfinite(hi):
        seed = spec.tail_seed_right if spec.tail_seed_right is not None else 0.0
        walks[+1] = max([seed] + bps)
    cuts = dict(zip(walks, _tail_cuts(spec, [(start, d) for d, start in walks.items()])))
    lo, hi = cuts.get(-1, lo), cuts.get(+1, hi)

    for e, name in ((spec.e_left, "left"), (spec.e_right, "right")):
        if e <= -1.0:
            raise DomainError(f"non-integrable {name} endpoint exponent {e}")

    edges = [lo] + [x for x in bps if lo < x < hi] + [hi]
    left_singular = math.isfinite(spec.a) and -1.0 < spec.e_left < 0.0
    right_singular = math.isfinite(spec.b) and -1.0 < spec.e_right < 0.0
    if len(edges) == 2 and left_singular and right_singular:
        edges = [lo, 0.5 * (lo + hi), hi]

    panels: list[_Panel] = []
    for i in range(len(edges) - 1):
        u, v = edges[i], edges[i + 1]
        if not v > u:
            continue
        if i == 0 and left_singular and u == spec.a:
            panels.append(_Panel(0.0, (v - spec.a) ** (1.0 + spec.e_left), _LEFT))
        elif i == len(edges) - 2 and right_singular and v == spec.b:
            panels.append(_Panel(0.0, (spec.b - u) ** (1.0 + spec.e_right), _RIGHT))
        else:
            panels.append(_Panel(u, v))

    work = _split_on_live_windows(spec, panels, *_scan_panels(spec, panels))
    shift = max(p.peak for p in work)

    heap = []
    tick = 0
    total_i = total_err = total_abs = 0.0
    neval = _XK.size * len(work)
    for p, I, err, A in zip(work, *_gk_rows(spec, work, [p.lo for p in work], [p.hi for p in work],
                                            shift)):
        heapq.heappush(heap, (-err, tick, p, p.lo, p.hi, I, err, A, 0))
        tick += 1
        total_i += I
        total_err += err
        total_abs += A

    # g is rounded at the scale |shift|, so every node carries a relative
    # error of a few eps |shift| that no refinement removes
    shift_err = _SHIFT_ROUNDING * abs(shift) if math.isfinite(shift) else 0.0
    rel_tol = max(cfg.rel_tol, shift_err)

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
        i_rows, e_rows, a_rows = _gk_rows(spec, panels, los, his, shift)
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
        rel = max(total_err / abs(total_i), shift_err)
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
