"""Adaptive Gauss-Kronrod quadrature for log-space integrands.

Every integral in this package has the shape

    I = int exp(g(x)) * phi(x) dx,    g(x) = g_core(x) + e_a ln(x-a) + e_b ln(b-x),

where g may swing over thousands of nats (weights like x^alpha e^(-x) with
alpha ~ 1e4) and phi is an optional signed factor (entropy integrands).
The engine:

  * truncates infinite tails where g falls _TAIL_CUTOFF nats below
    the running peak (walk with geometrically growing steps, from the
    outermost breakpoint, or from 0 where it lies further out),
  * splits the domain at caller-supplied breakpoints (polynomial zeros,
    where |p|^q has cusps and log factors have singularities),
  * grades each panel whose integrand is not smooth at an end, a finite
    end of the support among them, with its own power k: x - c ~ s^k
    turns |x - c|^e dx into s^(k(e + 1) - 1) ds (below).  Without it, an
    end interval whose power is weak converges slowly: at e = 1.25 its
    error falls about 5x per halving,
  * locates the global maximum M of g from each panel's peak, known in
    closed form (below), then integrates exp(g - M) with the 10-21
    Gauss-Kronrod pair of QUADPACK's QAGS, refined in rounds (below),
  * returns sign, ln|I| (shift M re-applied) and a relative error bound,
    and fails with QuadratureFailure when a positive integrand (no phi)
    sums to zero because every node underflowed below M.

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
steps together, and the first Gauss-Kronrod pass of all panels is one call.

Each panel's peak comes one of two ways.  A basis (:class:`Basis`),
g = a ln|p_n| + b ln h with a > 0 and b >= 0 on the family's support, h
the family's weight with the spec's own end exponents (as the Temme
oracle's x^(mu - 1)), takes its peaks from :func:`families.basis_peaks`,
which alone chooses how, with g' and g'' as sums over the zeros x_k of
p_n, g'/a = sum 1/(x - x_k) + (b/a) (ln h)' and g''/a = -sum 1/(x - x_k)^2
+ (b/a) (ln h)'' (``families._slopes``).  Where both end exponents are
>= 0, g'' < 0, so each gap between neighbouring zeros of p_n and ends
holds one peak, clipped to the panel: :func:`families.critical_points`
gives all n + 1 as the eigenvalues of one Jacobi matrix, with no
recurrence; one batch of the tops gives the peak values.  Hermite
n = 1000, W_50 takes 23,146 points where a Chebyshev scan of every panel
took 103,352.

A weight with a pole, an end exponent in (-1, 0), can fail Wendroff's
condition for that eigenproblem, and g need not be concave there: the
tops of g with its pole powers set to 0 start bracketed Newton steps on
g' (``families._gap_tops``).  A pole's end panel takes its top, and its
peak value, from g without that end's power, as Fisher's do (below), and
is graded with its own power (below), which takes the pole out: N_2 of
Gegenbauer(0.25), n = 1, takes 1 Gauss-Kronrod batch, where plain end
panels, halved toward the pole, took 10.

A raw g_core names its peaks (``LogIntegrand.peaks``): the Fisher
integrand rho'^2/rho = h N^2/(d^2 kappa_n), N = d (2 p_n' + p_n h'/h),
breaks at the zeros of N, the critical points of the density, where it
vanishes, so each panel holds one hump on which g is concave (at an end
pole of h/d^2, without that end's power), and
:func:`families.numerator_peaks` gives each hump's top, g' and g'', the
same sums over the zeros of N: one Newton step from each zero of p_n,
and the end humps' by the same bracketed Newton steps.  Two rules serve
a raw spec alone, so the norm and density integrands keep their bits.
A plain panel near a graded finite end, a branch point of its
integrand, converged slowly: |K21 - G10| is G10's error, which sees that
point, and Fisher's first inner panel of Jacobi(2.5, 1.5), n = 8, beside
the pole (1 + x)^(-1/2), took two more rounds.  So such a panel's sigma
is at most half its distance to that end, and the first pass cuts it
toward the end: without that, the functionals pool took 1,424 batches in
place of 1,168.  And no cut falls
within one sigma of a panel end: Fisher's panels end where the integrand
vanishes, and a sliver there held nearly nothing at 21 nodes.  With its
peaks named, the benchmark's 336 Fisher requests took 309,463 integrand
points in place of 635,281.

Several integrals run in lockstep (:func:`log_integrals`; a lone one is
:func:`log_integral`).  Each phase above, and each refinement round, is one
batch over the rows of every integral still running, each integral's rows
contiguous.  A row carries its integral's constants (ends, exponents
and shift), so everything but phi and a raw g_core is
evaluated for all rows at once and elementwise.  That includes the
polynomial of the integrals whose g_core names a basis (see
:class:`Basis`): one recurrence serves the rows of all the integrals
whose bases share a degree, a family kind and a weight core, as in a
sweep over q or over a weight parameter, since at low degree a
recurrence costs about the same over any number of points.  The sums over
the nodes, whose BLAS rounding depends on the other rows of a call, are
taken over each integral's rows alone.  Each integral keeps its own heap,
tolerance, stopping rounds and error claim, so its result is bit-identical
to integrating it alone, and one that fails drops out without stopping the
others.  A batch costs mostly a fixed amount however many points it holds,
so lockstep pays where many small integrals run side by side, as in a
sweep over q.

The first Gauss-Kronrod pass cuts each panel whose peak is narrow next to
it toward that peak.  At large q, or at a large weight parameter, g is a
narrow Laplace peak inside a panel, or mass pressed against an end of the
support (a tail panel, from the outermost breakpoint to the cut, holds its
mass next to that breakpoint), and refinement would halve its way there
one round per halving; in a sweep the slowest row sets the rounds of all.
Each panel knows its peak: its point, the top, and its width sigma.  A
peak has sigma = 1/sqrt(-g'') at its critical point, or
1/(a |g'| + sqrt(-a g'')) where it sits at an end whose exponent is 0 and
g' need not vanish.  g' serves a peak at an end where g need not level
off, as W_q of Laguerre(0) at x = 0: without it, the first pass took no
cuts and every node underflowed.  The first
pass cuts a panel wider than 5 sigma, whose peak lies within 40 nats of
its integral's shift, at top +- 1.5 sigma and at top +- 4 sigma 2^j,
j = 0, 1, ..., inside it; a graded panel adds their images in s to its
own cuts (below).  The cuts are depth-0 intervals of the one
panel, not panel breakpoints.  On a
Gaussian the piece (-1.5, 1.5) sigma has
|K21 - G10| 9e-13 of the mass, below the default tolerance, where (-2, 2)
sigma has 2.6e-10 and needs one more round; the pieces (1.5, 4) and
(4, 8) sigma have 3e-15 and 4e-14, where a ratio of 3, (4.5, 13.5), would
have 1.3e-10.  Over the benchmark's pools, measured when every peak was
still found by a scan, Gauss-Kronrod batches per request went from 5.92,
1.93 and 3.29 to 1.17, 1.03 and 2.10, and the evaluations from 1,138,641,
580,797 and 2,493,876 to 959,427, 676,263 and 2,386,020.  The
alternatives, measured the same way: cuts at top +- 2 sigma 2^j took 1.96
q-sweep batches per request; a width of 6 sigma took 1.10 degree-sweep
batches, and 4 sigma 1.00
at 906,045 evaluations, which ran slower.  Cutting the tail panels at the
tail walk's points, as before, where no peak cut them, cost 19,509 more
q-sweep evaluations and saved no batch; cutting them there in place of
the peak cuts took 1.62 q-sweep batches and left Hermite n = 2 at
q = 1000 with 3 rounds.  Refinement still handles any peak the width
misjudges, and the error is still |K21 - G10| per interval.  Each spec's
cuts come from its own rows, so lockstep stays bit-identical to
integrating alone.

A panel is graded where its integrand is not smooth at an end, where the
10-21 rule converges slowly: halving the interval next to a pole of the
weight only halved its error, and refinement could run out of depth.  A
graded panel has the coordinate s over (0, 1), and
x = v0 + (v1 - v0) tau(s), tau(s) = s^k/(s^k + (1 - s)^k), graded at both
ends with one integer power k.  g gains ln dx/ds, and phi still gets x.
The map and ln dx/ds are formed in logs, ln tau = k ln s -
ln(s^k + (1 - s)^k) by logaddexp, so that no power of s underflows, as
s^k would at k = 50,001.  A graded panel takes the log of a finite end it
reaches from s, ln(x - v0) = ln(v1 - v0) + ln tau, or ln(v1 - x) from
ln(1 - tau): Shannon of Jacobi(-0.9999, 0.5) holds its mass within
exp(-1e4) of x = 1, where x rounds onto the end and ln(1 - x) from x
would be -inf.  Over the Shannon and E requests of the benchmark's
functionals pool, grading a panel's other end too (a weight end or a
tail cut) took 5% fewer evaluations than a one-sided s^k.

Each panel takes its k from the local exponents at its two ends
(:func:`_grade`).  Where the integrand behaves like |x - c|^a next to an
end c, times ln|x - c| where phi is log-singular there, x - c ~ s^k
turns it into s^(k(a + 1) - 1).  That is smooth where k(a + 1) is an
integer, the rule of the substitution |x - c| = t^p this grading
replaces (Davis & Rabinowitz 1984, sec. 2.12), and Sidi (Numerical
Integration IV, ISNM 112, 1993) likewise chooses the order of his sin^m
transformations from the strength of the end singularity.  An end takes
the least integer k >= 1 at which that power reaches _GRADE_POWER = 4 or,
with no log, k(a + 1) is an integer, allowing for the rounding of a + 1:
a = -0.9 gives 0.09999999999999998, smooth at k = 10, where k = 51 would
reach 4.  A log is smooth at no k: it takes k >= 2, and its power must
pass 4, since s^4 ln s left 1e-10 of the integral on the end quarter of
Shannon of Jacobi(1.5, 2.5) at n = 0, and the functionals pool took 1,205
batches in place of 1,168.  k comes in closed form, not by a loop: a
log-singular pole at e = -0.999 takes k = 5,000.  A panel takes the
larger k of its two ends, and k = 1 leaves it plain.  The local exponent
a of each kind of panel end:

  * a zero x_k of a basis's p_n: the a of |p_n|^a, as in the norms at
    q = 1 +- h and 2 +- h of the Richardson stencils, with a log where
    phi is ``log_singular`` (the Shannon entropy and the functional E,
    whose phi holds -ln|p_n|: (x - x_k)^2 ln|x - x_k|, k = 2).  A raw
    spec's knot has a = 0, as Fisher's, where its integrand vanishes
    like (x - x_k)^2;
  * a finite end with an exponent e != 0: a = e, with a log where phi is
    ``log_singular_ends`` (Shannon's -ln rho and I's -ln h hold
    e ln|x - c| there).  A pole, e in (-1, 0), is graded smooth: N_2 of
    Gegenbauer(0.25) takes k = 4, the s^4 that the substitution
    (p = 4/3) and then its grading in t (k = 3) gave.  Shannon of
    Gegenbauer(2.5) at n = 0, with no zero to grade at, takes 84
    evaluations in place of 651;
  * a tail cut, or an end with exponent 0: smooth.

Integer a keeps plain panels and its bits, as do the moments and many
norms of the degree and q sweeps.  Gauss-Kronrod batches/points under
one k = 2 for every graded panel (cusps of |p_n|^a graded only below
a = 3; the poles of a raw spec, and the weight end of an infinite
support, never), then under each end's own k on top of the substitution
in t, then under the one map here; the pole/Temme and cusp sets are
those of scripts/gk_counts.py:

    integrals                          k = 2            t, own k         one map
    Shannon Jacobi(-0.5, 0.3), n = 0   12/630           2/294            1/210
    N_0.1 Hermite n = 6                10/4,032         2/1,344          1/1,680
    Fisher Jacobi(1.3, 1.7), n = 3      8/567           1/378            1/546
    Fisher Jacobi(1.5, 2.5), n = 0      3/126           3/126            1/168
    pole/Temme set, 200 integrals     515/88,116       326/70,245       299/91,140
    cusp set, 128 integrals           497/142,065      205/82,719       130/83,097
    functionals pool                1,172/1,482,285  1,168/1,484,469  1,168/1,479,177
    degree-sweep pool                 381/677,628      381/677,628      381/708,120
    q-sweep pool                      331/994,497      331/994,497      321/1,028,685

A threshold of 3 took 358/71,715 on the pole/Temme set and 222/82,719 on
the cusp set; 5 gave Shannon's zeros k = 3 and took 1,312/1,677,963 on
the functionals pool and 222/92,379 on the cusp set (both under the
substitution).  A log end left plain where its power reached the
threshold at k = 1, as t^5 ln t at the e = 2.5 end of Jacobi(1.5, 2.5)
under the substitution, took 3 batches for Shannon at n = 0 in place of
1.  Splitting a support with a pole at each end and no zero (n = 0) at
its midpoint, as the substitution needed, took the same 299 batches on
the pole/Temme set and 3,444 more points, so the one panel stays whole.

The first pass cuts a graded panel about s = 1/2 as about a peak
(above) of width near/3, where 1/2 +- i near, near = tan(pi/(2k))/2, are
the poles of tau nearest (0, 1).  The integrand's singularities beyond
the panel, the other zeros of p_n and the other end, map to about the
same distance from s = 1/2, and the middle of the panel in x shrinks
into s within a few near of 1/2: near = 0.5 at k = 2, 0.29 at k = 3,
0.21 at k = 4 and about pi/(4k) at large k.  At k = 2 the cuts are the
quarters, 1/4, 1/2 and 3/4: refinement halved every graded panel at
least twice anyway, and the quarters skip the two coarser passes, whose
sums it discarded; over the Shannon and E requests of the functionals
pool, that cut the evaluations from 264,852 to 162,666 and the
refinement rounds per integral from 3.0 to 1.2.  Quarters at every k took
1,383 batches over the functionals pool and 217 over the cusp set, where
a k = 3 end panel held a peak of width 0.09 in s beside the poles of
tau; cuts about 1/2 only at k >= 4, where near < 1/4, took 1,337 and 180;
at every k, 1,205 and 130.  On quarters alone, Shannon of
Jacobi(-0.9999, 0.5) (k = 50,001) missed the Beta form by 5e-4, every
node of the first pass beside the x-middle of its panel.  A graded panel
whose peak is known keeps its top and sigma in x, and the first pass
adds to those cuts the images in s of the peak cuts above,
s = r/(1 + r), r = ((x - v0)/(v1 - x))^(1/k), and of the top itself: the
map bends the core (-1.5, 1.5) sigma in s, and without the top's cut the
tail pieces of Shannon of Hermite n = 15 missed the tolerance by a
quarter.  The tail panel of Hermite and Laguerre runs from the outermost
zero to the tail cut, with the outer hump far inside it, and took two
more rounds on quarters alone.  Over the functionals pool Gauss-Kronrod
batches per request went from 2.24 (Shannon), 1.75 (E), 3.21 (I), 5.37
(E by the q-derivative) and 5.57 (Shannon by the q-derivative) to 1.20,
1.00, 1.05, 1.00 and 1.00, and the pool's Gauss-Kronrod points from
2,409,414 to 1,482,285; cuts without the top took 1.60, 1.31, 1.06, 1.21
and 1.21 batches.  The node-rounding term below covers x formed from s.
The node s is rounded, which moves g by eps |s dg/ds|.  Then x is
rounded as it is formed, by a few eps |x|, not |x - c|, which moves g
by eps |x dg_x/dx|, with g_x = g - ln dx/ds the log-integrand in x less
the end logs taken from s, which that rounding leaves alone.  Both terms
enter the size of a graded node.  Without the second, N_q of
Jacobi(0.055, 0.055) at n = 12 and q = 8.7e5, whose mass lies within
1e-7 of the ends, missed by 5e-9 while claiming 1.3e-10 (with x formed
from t, as it then was).

The sum is accepted when its error estimate E meets

    E <= max(max(rel_tol, 4 eps G) * |I|,  50 eps * int |f|),

where int |f| is the Kronrod rule applied to |f| on the same nodes, summed
over the intervals like I and E.  The second term is the rounding floor of
the sum itself (QUADPACK's ``resabs`` test): a signed integrand that
cancels to zero, such as an odd moment, converges on it, while a positive
integrand, whose int |f| is |I|, is held to rel_tol whatever its scale.
The term 4 eps G is the rounding of g itself.  Each of its terms, g_core
(or a ln|p_n| and b core_h of a basis, or the terms a ``sized`` raw g_core
sizes itself, as Fisher's does) and the two endpoint powers, is rounded
at its own scale, so G is the mean over |f| of the sum of their
magnitudes, taken from the first pass, and at least |M|: at G ~ 1e5
nats it exceeds the default rel_tol, and no refinement removes it.  G
exceeds |M| where the terms cancel, as q a ln(1 - x) + q b ln(1 + x) do
near a central peak at large q.  p_n, n >= 1, is itself rounded by a
few eps, so a ln|p_n| counts as |a| (|ln|p_n|| + 1): where |p_n| is near
1, as at the end peak x = 0 of Laguerre(0), M can be 0 while a ln|p_n|
still carries about a eps.  The
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

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalFailure
from .families import PolynomialFamily, basis_peaks, eval_log_many
from .special import log_distance

__all__ = ["QuadratureConfig", "QuadratureFailure", "Basis", "LogIntegrand", "LogQuadResult",
           "log_integral", "log_integrals", "raise_first"]

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

_GRADE_POWER = 4.0  # the power in s a graded panel end reaches, at least (see _grade)
# a peaked panel's first pass: cuts at top +- 1.5 sigma and top +- 4 sigma 2^j,
# where the panel is wider than 5 sigma and its peak within 40 nats of the
# shift (see the module docstring)
_PEAK_CORE = 1.5
_PEAK_STEP = 4.0
_PEAK_WIDTH = 5.0
_PEAK_NATS = 40.0
# a spec that names its own peaks (see LogIntegrand): each panel's sigma at
# most 1/_BRANCH_SPAN of its distance to a graded finite end, and no cut
# within _CUT_MARGIN sigma of a panel end (see the module docstring)
_BRANCH_SPAN = 2.0
_CUT_MARGIN = 1.0
_TAIL_STEPS = 500
_TAIL_BLOCK = 16
_MAX_INTERVALS = 40_000
_MAX_DEPTH = 40
_TAIL_CUTOFF = 150.0  # nats below the tail walk's best value where it cuts
_EXP_CLAMP = 500.0
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon
_SHIFT_ROUNDING = 4.0 * sys.float_info.epsilon  # relative error of exp(g - M) per nat of g's terms


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


class Basis(NamedTuple):
    """g_core = a ln|p_n| + b core_h, with p_n of the family fam and core_h
    the core of its weight (:class:`families.Weight`)."""

    fam: PolynomialFamily
    n: int
    a: float
    b: float


@dataclass
class LogIntegrand:
    """Problem description handed to :func:`log_integral`.

    g_core is given by exactly one of ``g_core_many`` and ``basis``.
    ``g_core_many`` and ``phi_many`` are the integrand's array forms, and
    every phase of the engine evaluates whole batches, so no scalar form is
    needed.  ``g_core_many`` maps a 1-d array of points x to g_core(x), or,
    with ``sized``, to (g_core(x), size), size the sum of the magnitudes at
    which its terms are rounded, which the error claim takes in place of
    |g_core| (see the module docstring).  A raw g_core must name its
    ``peaks`` (DomainError otherwise): (tops, knots, g', g'') with its
    log-integrand g (in x, end powers included) strictly concave between
    neighbouring knots, every knot inside the support a breakpoint, and the
    peak of the gap between knots i - 1 and i (or an end) at tops[i], with
    g' and g'' there (at an end with a pole, of g without that end's
    power).  The engine puts each panel's peak at its gap's top, clipped
    to the panel; a second peak in a gap can be missed while the error
    claim stays small.  A ``basis`` names
    the polynomial instead (see :class:`Basis`), so that specs in lockstep
    whose bases share a degree, a family kind and a weight core have p_n
    evaluated in one recurrence over all their rows (see
    :func:`families.eval_log_many`), each row with the bits its spec alone
    would give it.
    ``phi_many(x, core, ends)`` is optional (without it phi = 1); it gets
    the points, the values of g_core there and the endpoint powers
    ends = e_left ln(x - a) + e_right ln(b - x), so that phi can be built
    from the logs the engine already holds.  On a
    graded end panel x may round to the endpoint, but the engine takes
    that endpoint's log from the panel's coordinate s, so ends stays
    finite where x alone would give ln 0.  ``log_singular`` marks a phi that is
    log-singular at the breakpoints, and ``log_singular_ends`` one that is
    log-singular at each finite end with a nonzero exponent: facts about
    phi that the engine cannot see.  It grades each panel with a power
    taken from the local exponents at its two ends, these logs among them
    (see :func:`_spec_panels` and the module docstring).
    """

    a: float
    b: float
    g_core_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    e_left: float = 0.0
    e_right: float = 0.0
    breakpoints: tuple = ()
    phi_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    basis: Optional[Basis] = None
    log_singular: bool = False
    log_singular_ends: bool = False
    sized: bool = False
    peaks: Optional[tuple] = None

    def __post_init__(self):
        if (self.g_core_many is None) == (self.basis is None):
            raise DomainError("give exactly one of g_core_many and basis")
        if self.g_core_many is not None and self.peaks is None:
            raise DomainError("a raw g_core_many must name its peaks")


@functools.lru_cache(maxsize=256)
def _grade(a: float, log: bool) -> int:
    """The power k of a graded panel end where the integrand behaves like
    |v - c|^a, times ln|v - c| where ``log``: v - c ~ s^k turns it into
    s^(k(a + 1) - 1), so k is the least integer >= 1 at which that power
    reaches _GRADE_POWER or, with no log, is an integer, where it is
    smooth; a log is smooth at no k, and takes k >= 2 and a power above
    _GRADE_POWER (see the module docstring).  k = 1 leaves the end plain.
    a + 1 is taken as the fraction it was meant to be, to within the
    rounding of a and of a + 1: a = -0.9 gives 0.09999999999999998, which
    is 1/10, smooth at k = 10; 3 - 4e-16, an ulp from 3, is no integer."""
    x = Fraction(a + 1.0)
    near = x.limit_denominator(math.ceil((_GRADE_POWER + 1.0) / (a + 1.0)) + 1)
    if abs(x - near) < 0.5 * (math.ulp(a) + math.ulp(a + 1.0)):
        x = near
    need = Fraction(_GRADE_POWER + 1.0) / x  # the k at which the power is _GRADE_POWER
    return max(2, math.floor(need) + 1) if log else max(1, min(math.ceil(need), x.denominator))


def _end_powers(spec: LogIntegrand) -> list[tuple[float, int]]:
    """(c, k) of each end c of the spec, a then b: k the :func:`_grade` of
    its exponent e, with a log where phi is ``log_singular_ends``, or 1
    where c is infinite or e = 0."""
    return [(c, _grade(e, spec.log_singular_ends) if math.isfinite(c) and e != 0.0 else 1)
            for c, e in ((spec.a, spec.e_left), (spec.b, spec.e_right))]


class _Panel:
    """One integration panel of spec ``owner`` in its own coordinate u over
    (lo, hi).

    A plain panel has u = x.  A graded panel (``grade`` = (v0, v1, k)) has
    u = s over (0, 1), mapped onto (v0, v1) of x, graded at both ends with
    the power k, see :func:`_graded`.
    """

    __slots__ = ("lo", "hi", "owner", "grade", "peak", "top", "sigma")

    def __init__(self, lo, hi, owner=0, grade=None):
        self.lo = lo
        self.hi = hi
        self.owner = owner
        self.grade = grade
        self.peak = -math.inf
        self.top = math.nan  # the point of the peak
        self.sigma = math.inf  # the width of the peak, see _place_peaks


def _graded(panels: list[_Panel], us: np.ndarray) -> Optional[tuple]:
    """(rows, v, parts) of the graded panels' rows of points s = us:
    v = v0 + (v1 - v0) tau(s), tau(s) = s^k/(s^k + (1 - s)^k), with each
    panel's own k, and parts = (v0, v1, ln(v1 - v0), ln tau, ln(1 - tau),
    ln k - ln s - ln(1 - s)), whose sum less v0 and v1 is ln dv/ds (see
    :func:`_lifted`); formed in logs, so that no power of s underflows at
    large k.  None where no row is graded."""
    grades = [p.grade for p in panels]
    if not any(grades):
        return None
    rows = _ALL
    if None in grades:
        rows = np.array([grade is not None for grade in grades])
        grades = [grade for grade in grades if grade is not None]
        us = us[rows]
    v0, v1, k = np.array(grades).T[:, :, None]
    ls, l1s = np.log(us), np.log1p(-us)
    den = np.logaddexp(k * ls, k * l1s)  # ln(s^k + (1 - s)^k)
    a = k * ls - den
    parts = (v0, v1, np.log(v1 - v0), a, k * l1s - den, np.log(k) - ls - l1s)
    return rows, v0 + (v1 - v0) * np.exp(a), parts


def _lifted(parts: tuple, e0=0.0, e1=0.0) -> tuple:
    """(ln dv/ds + e0 ln(v - v0) + e1 ln(v1 - v), the sum of the magnitudes
    of its terms) at rows of a graded panel's points, from the ``parts`` of
    :func:`_graded`.  A finite end's power enters as (e + 1) ln tau, one
    product: ln tau and e ln tau apart are each about -k ln s, and their
    sum would carry eps k |ln s| where e is near -1 and k large."""
    _, _, span, a, b, rest = parts
    terms = ((1.0 + e0 + e1) * span, (1.0 + e0) * a, (1.0 + e1) * b, rest)
    return sum(terms), sum(np.abs(t) for t in terms)


# columns of _Specs.table: the ends and their exponents
_A, _B, _E_LEFT, _E_RIGHT = range(4)


_ALL = slice(None)  # every row of a batch


class _Specs:
    """The specs integrated in lockstep.

    A batch holds the rows of several specs, each spec's rows contiguous
    and in spec order, and a row's panel names its spec (``owner``).
    ``table`` holds each spec's constants, which :func:`_logf_rows` spreads
    over the rows; a constant all specs share stays one float.
    ``errors[k]`` is the DomainError or NumericalFailure that ended spec k;
    later batches leave its rows out."""

    def __init__(self, specs):
        self.specs = list(specs)
        rows = [[float(s.a), float(s.b), float(s.e_left), float(s.e_right)] for s in self.specs]
        self.table = np.array(rows) if len(rows) > 1 else None
        self.shared = [v[0] if v.count(v[0]) == len(v) else None for v in zip(*rows)]
        # per end (column of the end, column of its exponent): which specs'
        # g hold its power, whether all do, and whether any does
        self.enters = {}
        for c, e in ((_B, _E_RIGHT), (_A, _E_LEFT)):
            flags = [math.isfinite(row[c]) and row[e] != 0.0 for row in rows]
            every, some = all(flags), any(flags)
            self.enters[c] = (np.array(flags) if some and not every else None, every, some)
        self.errors: list[Optional[Exception]] = [None] * len(self.specs)
        self.shift = [0.0] * len(self.specs)  # each spec's highest panel peak, once known
        self.graded = [False] * len(self.specs)  # whether a panel of the spec is graded

    def entering(self, c: int, owner: Optional[np.ndarray]):
        """The rows whose end in column c is finite with a nonzero exponent:
        None, every one (_ALL) or a row mask."""
        flags, every, some = self.enters[c]
        if every:
            return _ALL
        if not some:
            return None
        act = flags[owner]
        return _ALL if act.all() else act if act.any() else None


def _blocks(specs: _Specs, panels: list[_Panel]
            ) -> tuple[Optional[np.ndarray], list[tuple[int, slice]]]:
    """The owner of each row (None for a lone spec), and (owner, rows) of
    each spec's block."""
    if len(specs.specs) == 1:
        return None, [(0, _ALL)]
    owner = np.array([p.owner for p in panels], dtype=int)
    if not panels:
        return owner, []
    cuts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), len(panels)]
    return owner, [(int(owner[i]), slice(i, j)) for i, j in zip(cuts, cuts[1:])]


def _log_distances(c, xs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """:func:`special.log_distance` with the end c, a float or a column of
    one end per row, one call per distinct end."""
    if isinstance(c, float):
        return log_distance(c, xs, dist)
    c = c.ravel()
    ends = np.unique(c).tolist()
    if len(ends) == 1:
        return log_distance(ends[0], xs, dist)
    out = np.empty_like(dist)
    for end in ends:
        r = c == end
        out[r] = log_distance(end, xs[r], dist[r])
    return out


def _core_rows(specs: _Specs, blocks: list[tuple[int, slice]], xs: np.ndarray,
               sizes: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(g_core, size) at the rows of points xs: one call of each raw spec's
    g_core_many over its block, and one polynomial evaluation over the
    points of the specs whose bases share a degree, a family kind and a
    weight core, each spec's a ln|p_n| + b core_h on its own points.  size,
    if asked for, is the magnitude at which g_core is rounded: |g_core| of
    a raw spec, or the size a ``sized`` one gives, and |a| (|ln|p_n|| + 1)
    + |b core_h| of a basis, whose a ln|p_n| carries the rounding of p_n,
    a few eps of a, even where ln|p_n| is 0 (p_0 = 1 is exact: there it is
    |b core_h|).  A spec whose
    core raises is marked failed, and its rows, like those of specs that
    failed before, hold NaN."""
    parts = []  # (block, g_core there, its size)
    shared = {}  # (degree, kind, weight core c1 and c2) -> [(spec, its block)]
    for k, block in blocks:
        if specs.errors[k] is not None:
            continue
        spec = specs.specs[k]
        basis = spec.basis
        if basis is not None:
            w = basis.fam.weight
            shared.setdefault((basis.n, basis.fam.kind, w.c1, w.c2), []).append((k, block))
            continue
        x = xs if block is _ALL else xs[block]
        try:
            vals = spec.g_core_many(x.ravel())
        except (DomainError, NumericalFailure) as exc:
            specs.errors[k] = exc
            continue
        vals, mag = vals if spec.sized else (vals, np.abs(vals) if sizes else None)
        parts.append((block, vals.reshape(x.shape), mag.reshape(x.shape) if sizes else None))
    for (n, *_), group in shared.items():
        bases = [specs.specs[k].basis for k, _ in group]
        rows = [xs if block is _ALL else xs[block] for _, block in group]
        whole = len(group) == len(blocks)  # the group holds every row
        if len(group) == 1:  # as a lone spec: its own recurrence over its points
            u, fams, at = rows[0].ravel(), bases[0].fam, None
            a, b = bases[0].a, bases[0].b
        else:  # one recurrence over all the points, each with the basis at[point]
            u = (xs if whole else np.concatenate(rows)).ravel()
            fams = [basis.fam for basis in bases]
            at = np.repeat(np.arange(len(group)), [r.size for r in rows])
            a, b = (_per_point([getattr(basis, f) for basis in bases], at) for f in "ab")
        try:
            log_p = eval_log_many(fams, n, u, at)[1]
        except (DomainError, NumericalFailure) as exc:
            for k, _ in group:
                specs.errors[k] = exc
            continue
        core_h = b * bases[0].fam.weight.core(u)  # one core: it is in the key
        vals = a * log_p + core_h
        size = np.abs(a) * (np.abs(log_p) + (n > 0)) + np.abs(core_h) if sizes else None
        if whole:
            parts.append((_ALL, vals.reshape(xs.shape),
                          None if size is None else size.reshape(xs.shape)))
            continue
        start = 0
        for (_, block), r in zip(group, rows):
            end = start + r.size
            parts.append((block, vals[start:end].reshape(r.shape),
                          None if size is None else size[start:end].reshape(r.shape)))
            start = end
    if len(parts) == 1 and parts[0][0] is _ALL:  # the batch is this one part
        return parts[0][1:]
    core = np.full_like(xs, math.nan)  # NaN: the rows of failed specs
    size = np.zeros_like(xs) if sizes else None
    for block, vals, mag in parts:
        core[block] = vals
        if sizes:
            size[block] = mag
    return core, size


def _per_point(values: list[float], at: np.ndarray):
    """values[at], or the one value where all are equal."""
    return values[0] if values.count(values[0]) == len(values) else np.array(values)[at]


def _logf_rows(specs: _Specs, panels: list[_Panel], us: np.ndarray, sizes: bool = False,
               layout=None) -> tuple:
    """(g, x, core, ends, size, graded) at the points us[i] of panels[i],
    with one call of each spec's core over its rows: g is the log-integrand
    in the panels' own coordinates, core = g_core(x), ends the endpoint
    powers e_left ln(x - a) + e_right ln(b - x), size, if asked for, the
    sum of the magnitudes of the terms of g, each rounded at its own scale
    (g_core's from :func:`_core_rows`), and graded (rows, v, jac) of the
    batch's graded rows, or None.  A graded panel takes the log of a
    finite end it reaches from s, so ends stays finite where x rounds onto
    that end, and g takes that end's power with ln dv/ds, as jac (see
    :func:`_lifted`).
    Everything but the core is computed for all rows at once, each row
    with its spec's constants, and elementwise, so a row's values do not
    depend on the other rows.  A spec whose core raises is marked failed,
    and its rows, like those of specs that failed before, hold NaN.
    ``layout`` is the batch's :func:`_blocks`, where the caller has it."""
    owner, blocks = layout or _blocks(specs, panels)
    const = None if owner is None else specs.table[owner]

    def col(j: int, r=_ALL):
        """Constant j of the rows r, a float where every spec shares it."""
        v = specs.shared[j]
        return v if v is not None else const[r, j, None]

    graded = _graded(panels, us) if any(specs.graded[k] for k, _ in blocks) else None
    xs = us
    if graded is not None:
        rg, v, parts = graded
        if rg is _ALL:
            xs = v
        else:
            xs = us.copy()
            xs[rg] = v
    core, core_size = _core_rows(specs, blocks, xs, sizes)
    ends = np.zeros_like(xs)
    g_ends = ends if graded is None else np.zeros_like(xs)  # the terms of ends taken from x
    size = core_size.copy() if sizes else None
    lift = {}  # per end: each row's exponent of it, where its log comes from s
    for c_col, e_col, side in ((_B, _E_RIGHT, 1), (_A, _E_LEFT, 0)):
        r = specs.entering(c_col, owner)
        if r is None:
            continue
        c, e = col(c_col, r), col(e_col, r)
        x = xs if r is _ALL else xs[r]
        dist = c - x if side else x - c
        # ln 0 on or beyond c
        term = e * np.where(dist > 0.0, _log_distances(c, x, dist), -math.inf)
        if graded is not None:  # a graded row that reaches c takes ln|x - c| from s
            reach, log_s = np.zeros((len(panels), 1), dtype=bool), np.zeros_like(xs)
            reach[rg], log_s[rg] = parts[side] == col(c_col, rg), parts[2] + parts[3 + side]
            reach, log_s = (reach, log_s) if r is _ALL else (reach[r], log_s[r])
            ends[r] += np.where(reach, e * log_s, term)
            term = np.where(reach, 0.0, term)
            lift[side] = np.zeros((len(panels), 1))
            lift[side][r] = np.where(reach, e, 0.0)
        g_ends[r] += term
        if sizes:
            size[r] += np.abs(term)
    g = core + g_ends
    if graded is not None:
        jac, jac_size = _lifted(parts, *(lift[i][rg] if i in lift else 0.0 for i in (0, 1)))
        g[rg] += jac
        if sizes:
            size[rg] += jac_size
        graded = rg, v, jac
    return g, xs, core, ends, size, graded


def _walk(start: float, direction: int):
    """The tail walk's points: start, then _TAIL_STEPS steps growing by 1.35."""
    x, step = start, 1.0 + 0.05 * abs(start)
    yield x
    for _ in range(_TAIL_STEPS):
        x += direction * step
        yield x
        step *= 1.35


def _tail_cuts(specs: _Specs, walks: list[tuple[int, float, int]]) -> list[Optional[float]]:
    """For each walk (owner, start, direction), the first point where g
    lies _TAIL_CUTOFF nats below the best value met so far, from the
    third step on.  The walks still going are evaluated together, one row
    each, in batches of _TAIL_BLOCK points.  A spec whose walk finds no
    decay fails."""
    points = [_walk(start, direction) for _, start, direction in walks]
    plain = [_Panel(-math.inf, math.inf, owner=k) for k, _, _ in walks]
    best, cuts = [-math.inf] * len(walks), [None] * len(walks)
    k0 = -1  # k counts steps; the start is step -1
    while live := [i for i, (k, _, _) in enumerate(walks)
                   if cuts[i] is None and specs.errors[k] is None]:
        blocks = [list(itertools.islice(points[i], _TAIL_BLOCK)) for i in live]
        if not blocks[0]:  # every walk has the same length
            for i in live:
                specs.errors[walks[i][0]] = NumericalFailure(
                    f"tail walk found no decay within {_TAIL_STEPS} steps")
            break
        gs = _logf_rows(specs, [plain[i] for i in live], np.array(blocks))[0]
        for i, block, row in zip(live, blocks, gs.tolist()):
            for k, (x, gv) in enumerate(zip(block, row), k0):
                if k < 0:
                    best[i] = gv if math.isfinite(gv) else -math.inf
                elif gv > best[i]:
                    best[i] = gv
                elif k >= 2 and gv < best[i] - _TAIL_CUTOFF:
                    cuts[i] = x
                    break
        k0 += _TAIL_BLOCK
    return cuts


def _known_peaks(spec: LogIntegrand) -> tuple:
    """(tops, knots, g'/a, g''/a, a): a raw g_core's own ``peaks``, with
    a = 1, or the :func:`families.basis_peaks` of a basis (see the module
    docstring) whose every zero of p_n is a breakpoint; DomainError else."""
    if spec.peaks is not None:
        return (*spec.peaks, 1.0)
    (fam, n, a, b), w = spec.basis, spec.basis.fam.weight
    own = (spec.e_left, spec.e_right) == (b * w.e_lo, b * w.e_hi)  # the family's weight
    table = None
    if a > 0.0 and b >= 0.0 and (own or b) and (spec.a, spec.b) == (w.lo, w.hi):
        weight = None if own else w._replace(e_lo=spec.e_left / b, e_hi=spec.e_right / b)
        table = basis_peaks(fam, n, b / a, weight)
    if table is None or n and not set(table[1]) <= set(spec.breakpoints):
        raise DomainError(f"no known peaks for the basis {fam.label()} n={n}, a={a:g}, b={b:g} "
                          f"on ({spec.a:g}, {spec.b:g})")
    return (*table, a)


def _place_peaks(specs: _Specs, panels: list[_Panel], known: dict) -> None:
    """Record on each panel of the specs (``known``, spec -> its
    :func:`_known_peaks`) its top, the peak of its gap between knots
    clipped to the panel, and the width sigma = 1/(a |g'| + sqrt(-a g''))
    there, 1/sqrt(-g'') at an interior peak; and its peak, g at the top,
    from one batch over all of them.  g is -inf (+inf at a pole) on an
    end with a nonzero exponent, so a top there takes its value one ulp
    inward.  At a pole the table's g leaves the end's power out, and so
    does the peak of the pole's end panel.  A spec that names its own
    peaks has each sigma at most 1/_BRANCH_SPAN of the panel's distance to
    a graded finite end (see the module docstring).  A graded panel
    records its top and sigma in x over its ``grade``, not in s; the first
    pass maps its cuts into s (:func:`_ungraded`)."""
    owner, blocks = _blocks(specs, panels)
    x = np.array([(p.grade or (p.lo, p.hi))[:2] for p in panels])  # each panel's span in x
    mid = 0.5 * (x[:, 0] + x[:, 1])
    peak, g1, g2, a, lo_end, hi_end, lo_pole, hi_pole = np.empty((8, len(panels)))
    for k, r in blocks:
        tops, knots, d1, d2, a[r] = known[k]
        i = np.searchsorted(knots, mid[r])
        spec = specs.specs[k]
        peak[r], g1[r], g2[r] = tops[i], d1[i], d2[i]
        lo_end[r] = spec.a if spec.e_left != 0.0 else math.nan
        hi_end[r] = spec.b if spec.e_right != 0.0 else math.nan
        # the exponent of a pole at a panel's end, whose power its peak leaves out
        lo_pole[r] = np.where(x[r, 0] == spec.a, min(spec.e_left, 0.0), 0.0)
        hi_pole[r] = np.where(x[r, 1] == spec.b, min(spec.e_right, 0.0), 0.0)
    top = np.clip(peak, x[:, 0], x[:, 1])
    on_end = (top == lo_end) | (top == hi_end)
    at = np.where(on_end, np.nextafter(top, mid), top)  # where each peak value is taken
    den = a * np.abs(g1) + np.sqrt(np.maximum(-a * g2, 0.0))
    sigma = np.where(np.isfinite(den) & (den > 0.0), 1.0 / den, math.inf)
    for k, r in blocks:  # a spec's own peaks: narrower near a graded finite end
        for c, power in _end_powers(specs.specs[k]) if specs.specs[k].peaks is not None else ():
            if power > 1:
                near = np.abs(x[r] - c).min(axis=1)  # 0 on the end panel itself
                sigma[r] = np.where(near > 0.0, np.minimum(sigma[r], near / _BRANCH_SPAN), sigma[r])
    plain = {k: _Panel(-math.inf, math.inf, owner=k) for k, _ in blocks}
    rows = [plain[0]] * len(panels) if owner is None else [plain[k] for k in owner.tolist()]
    g = _logf_rows(specs, rows, at[:, None])[0][:, 0]
    for c, e, dist in ((lo_end, lo_pole, at - lo_end), (hi_end, hi_pole, hi_end - at)):
        pole = e < 0.0
        if pole.any():
            g[pole] -= e[pole] * _log_distances(c[pole], at[pole], dist[pole])
    for p, t, width, value in zip(panels, top.tolist(), sigma.tolist(), g.tolist()):
        p.top, p.sigma, p.peak = t, width, value


def _peak_cuts(top: float, sigma: float, lo: float, hi: float, margin: float = 0.0,
               at_top: bool = False) -> list[float]:
    """The points top +- _PEAK_CORE sigma and top +- _PEAK_STEP sigma 2^j,
    j = 0, 1, ..., and the top itself if ``at_top``, of a peak in a panel
    over (lo, hi) that lie inside it, more than margin sigma from its ends,
    ascending."""
    offsets, step = [0.0] * at_top + [_PEAK_CORE * sigma], _PEAK_STEP * sigma
    while top - step > lo or top + step < hi:
        offsets.append(step)
        step *= 2.0
    lo, hi = lo + margin * sigma, hi - margin * sigma
    return sorted({x for d in offsets for x in (top - d, top + d) if lo < x < hi})


def _ungraded(grade: tuple, vs: list[float]) -> list[float]:
    """The points s in (0, 1) of a graded panel over (v0, v1) with power k,
    its ``grade``, whose images are vs, points inside it: the inverse of
    :func:`_graded`, s = r/(1 + r),
    r = (tau/(1 - tau))^(1/k) = ((v - v0)/(v1 - v))^(1/k)."""
    v0, v1, k = grade
    rs = (((v - v0) / (v1 - v)) ** (1.0 / k) for v in vs)
    return [s for s in (r / (1.0 + r) for r in rs) if 0.0 < s < 1.0]


def _node_rounding(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|u dg/du| at rows of Gauss-Kronrod nodes u, by differences along each row."""
    slope = (g[:, _NEXT] - g[:, _PREV]) / (u[:, _NEXT] - u[:, _PREV])
    return np.where(np.isfinite(slope), np.abs(u * slope), 0.0)


def _owners(owner: Optional[np.ndarray], flags: np.ndarray) -> set:
    """The specs that own a row with a flagged node."""
    if owner is None:
        return {0} if flags.any() else set()
    rows = flags.any(axis=1)
    return set(owner[rows].tolist()) if rows.any() else set()


def _gk_rows(specs: _Specs, panels: list[_Panel], a: list[float], b: list[float],
             sizes: bool = False) -> tuple[list[float], list[float], list[float], dict]:
    """10-21 Gauss-Kronrod rule over (a[i], b[i]) of panels[i], one batch for
    all rows, each spec's integrand shifted by its ``specs.shift``; returns
    the Kronrod estimates, their error estimates |K21 - G10| h and the
    Kronrod estimates of int |f|, and, if asked for, each spec's Kronrod
    estimate of int |f| size over its rows (see :func:`_logf_rows`; size
    here also holds each node's |u dg/du|).  The sums over the nodes are
    taken one spec at a time, so that each spec's sums are those of its
    rows alone; a spec whose integrand exceeds the clamp or is NaN fails."""
    a, b = np.array(a), np.array(b)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    us = c[:, None] + h[:, None] * _XK
    owner, blocks = layout = _blocks(specs, panels)
    g, xs, core, ends, size, graded = _logf_rows(specs, panels, us, sizes, layout)
    if sizes:  # the node's own rounding, |u dg/du|, by differences along each row
        size = size + _node_rounding(g, us)
        if graded is not None:  # and that of x formed from s, which moves g but the logs from s
            r, v, jac = graded
            size[r] += _node_rounding(g[r] - jac, v)
    g = g - (specs.shift[0] if owner is None else np.array(specs.shift)[owner, None])
    over = _owners(owner, g > _EXP_CLAMP)
    w = np.where(g > -math.inf, np.exp(g), 0.0)
    for k, r in blocks:
        phi = specs.specs[k].phi_many
        if phi is not None and specs.errors[k] is None and k not in over:
            live = w[r] != 0.0
            try:
                w[r][live] *= phi(xs[r][live], core[r][live], ends[r][live])
            except (DomainError, NumericalFailure) as exc:
                specs.errors[k] = exc
    nan = _owners(owner, np.isnan(w))
    fk, fg, fa = [], [], []  # per block
    size_sums = {}
    for k, r in blocks:
        wk = w[r]
        fk.append(wk @ _WK)
        fg.append(wk[:, 1::2] @ _WG)
        # without phi, f >= 0
        fa.append(fk[-1] if specs.specs[k].phi_many is None else np.abs(wk) @ _WK)
        if specs.errors[k] is not None:
            continue
        if k in over:
            specs.errors[k] = NumericalFailure(
                "integrand exceeds shifted clamp; the peak search missed the maximum")
        elif k in nan:
            specs.errors[k] = NumericalFailure(
                f"integrand evaluated to NaN at x={us[r][np.isnan(wk)][0]}")
        elif sizes:
            size_sums[k] = float(h[r] @ (np.where(wk != 0.0, np.abs(wk) * size[r], 0.0) @ _WK))
    fk, fg = (v[0] if len(v) == 1 else np.concatenate(v) for v in (fk, fg))
    i_k = (h * fk).tolist()
    a_k = i_k if fa[0] is fk else (h * (fa[0] if len(fa) == 1 else np.concatenate(fa))).tolist()
    return i_k, np.abs(h * (fk - fg)).tolist(), a_k, size_sums


class _Sum:
    """One spec's running Gauss-Kronrod sum: its error-ordered heap of
    intervals, the totals of I, E and int |f|, its tolerance and its count
    of integrand evaluations."""

    def __init__(self, shift: float, rel_tol: float):
        self.shift = shift
        self.rel_tol = rel_tol
        self.g_err = 0.0
        self.heap = []
        self.tick = 0
        self.total_i = self.total_err = self.total_abs = 0.0
        self.neval = 0
        self.stalled = False

    def first_pass(self, rows: list[tuple]) -> None:
        """Add the first-pass intervals, rows of (panel, a, b, I, err, A)."""
        heap, tick = self.heap, self.tick
        total_i, total_err, total_abs = self.total_i, self.total_err, self.total_abs
        for p, a, b, I, err, A in rows:
            heapq.heappush(heap, (-err, tick, p, a, b, I, err, A, 0))
            tick += 1
            total_i += I
            total_err += err
            total_abs += A
        self.tick, self.neval = tick, self.neval + _XK.size * len(rows)
        self.total_i, self.total_err, self.total_abs = total_i, total_err, total_abs

    def set_rounding(self, total_size: float) -> None:
        # each term of g, and each node, is rounded at its own scale, so every
        # node carries a relative error of a few eps times its size, which no
        # refinement removes: at least |shift|, more where terms cancel
        scale = max(abs(self.shift),
                    total_size / self.total_abs if self.total_abs > 0.0 else 0.0)
        self.g_err = _SHIFT_ROUNDING * scale if math.isfinite(scale) else 0.0
        self.rel_tol = max(self.rel_tol, self.g_err)

    def tolerance(self) -> float:
        """The error the sum may carry: max(rel_tol |I|, 50 eps int |f|)."""
        return max(self.rel_tol * abs(self.total_i), _ROUNDING_FLOOR * self.total_abs)

    def next_split(self) -> list[tuple]:
        """The heap entries of the next round to halve; none once the sum
        meets its tolerance or stalls.

        A round pops, largest error first, the shortest prefix whose
        removal would meet the tolerance; an interval too narrow to split
        keeps its estimate with its error counted final, and a round that
        takes only such intervals is followed by the next."""
        heap, tol = self.heap, self.tolerance()
        while not self.stalled and not self.total_err <= tol:
            split, narrow = [], []
            remaining = self.total_err
            while heap:
                entry = heapq.heappop(heap)
                _, _, p, a, b, I, err, A, depth = entry
                if depth >= _MAX_DEPTH or len(heap) + len(narrow) + 2 * len(split) > _MAX_INTERVALS:
                    heapq.heappush(heap, entry)
                    self.stalled = True
                    break
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    narrow.append(entry)
                    self.total_err -= err
                else:
                    split.append(entry)
                remaining -= err
                if remaining <= tol:
                    break
            for _, _, p, a, b, I, _, A, depth in narrow:
                heapq.heappush(heap, (0.0, self.tick, p, a, b, I, 0.0, A, depth))
                self.tick += 1
            if split:
                return split
        return []

    def absorb(self, split: list[tuple], i_rows, e_rows, a_rows, los) -> None:
        """Replace each split interval by its halves, whose rules are rows
        2k and 2k + 1."""
        heap, tick = self.heap, self.tick
        total_i, total_err, total_abs = self.total_i, self.total_err, self.total_abs
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
        self.tick, self.neval = tick, self.neval + _XK.size * 2 * len(split)
        self.total_i, self.total_err, self.total_abs = total_i, total_err, total_abs

    def result(self, positive: bool):
        """The LogQuadResult, or the QuadratureFailure that carries it."""
        total_i, total_err = self.total_i, self.total_err
        if total_i == 0.0:
            sign, log_abs = 0, -math.inf
            rel = math.inf if total_err > 0 else 0.0
        else:
            sign = 1 if total_i > 0 else -1
            log_abs = math.log(abs(total_i)) + self.shift
            rel = max(max(total_err, _ROUNDING_FLOOR * self.total_abs) / abs(total_i), self.g_err)
        result = LogQuadResult(sign, log_abs, rel, self.neval)
        if total_i == 0.0 and positive and self.shift > -math.inf:
            # exp(g) > 0 at the peak, so a zero sum means every node missed it
            return QuadratureFailure(
                "a positive integrand summed to zero: every Gauss-Kronrod node underflowed "
                "below the peak", best=result)
        if not total_err <= self.tolerance():
            return QuadratureFailure(
                f"quadrature stalled at relative error {rel:.3e} (target {self.rel_tol:.1e})",
                best=result)
        return result


def raise_first(results: list) -> list:
    """The results of :func:`log_integrals` (or of a batched caller), after
    raising the first that is an error."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def log_integral(spec: LogIntegrand, cfg: QuadratureConfig = DEFAULT_CONFIG) -> LogQuadResult:
    """int exp(g) phi over the spec's domain (see the module docstring);
    :func:`log_integrals` of the one spec."""
    return raise_first(log_integrals([spec], cfg))[0]


def log_integrals(specs: list[LogIntegrand], cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """int exp(g) phi over each spec's domain, all specs in lockstep (see
    the module docstring): each entry is the spec's LogQuadResult, or the
    DomainError or NumericalFailure (QuadratureFailure with ``.best``
    where refinement stalled) that ended it.

    Refines in rounds: each round halves, in one batch, the largest-error
    intervals whose errors together stand between the running total and
    the tolerance.  Refinement stops at the acceptance rule of the module
    docstring, or stalls at an interval of depth _MAX_DEPTH or at
    _MAX_INTERVALS intervals."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_integrals(_Specs(specs), cfg)


def _spec_panels(specs: _Specs, k: int, lo: float, hi: float, bps: list[float]
                 ) -> list[_Panel]:
    """Spec k's panels between its (cut) ends lo and hi, split at its
    breakpoints, each graded with the larger :func:`_grade` of its two
    ends' local exponents: at a zero of a basis's p_n, its a (0 at a raw
    spec's knot), with a log where phi is ``log_singular``; at a finite
    end, its exponent e, with a log where phi is ``log_singular_ends``; 0
    at a tail cut or where e = 0 (see the module docstring)."""
    spec = specs.specs[k]
    for e, name in ((spec.e_left, "left"), (spec.e_right, "right")):
        if e <= -1.0:
            raise DomainError(f"non-integrable {name} endpoint exponent {e}")
    edges = [lo] + [x for x in bps if lo < x < hi] + [hi]
    # the power at each edge: lo's, every knot's, hi's
    powers = [power if x == end else 1 for x, (end, power) in zip((lo, hi), _end_powers(spec))]
    knot = _grade(0.0 if spec.basis is None else spec.basis.a, spec.log_singular)
    powers[1:1] = [knot] * (len(edges) - 2)
    panels = []
    for i in range(len(edges) - 1):
        u, v = edges[i], edges[i + 1]
        if not v > u:
            continue
        power = max(powers[i], powers[i + 1])
        panels.append(_Panel(0.0, 1.0, k, (u, v, power)) if power > 1 else _Panel(u, v, k))
    if not panels:
        raise DomainError(f"empty domain ({lo}, {hi})")
    specs.graded[k] = any(p.grade for p in panels)
    return panels


def _log_integrals(specs: _Specs, cfg: QuadratureConfig) -> list:
    bps, walks = [], []
    for k, spec in enumerate(specs.specs):
        bps.append(sorted(x for x in spec.breakpoints if spec.a < x < spec.b))
        # direction: start of the tail walk, the outermost of 0 and the breakpoints
        for d, end, start in ((-1, spec.a, min([0.0] + bps[k])), (1, spec.b, max([0.0] + bps[k]))):
            if not math.isfinite(end):
                walks.append((k, start, d))
    cuts = _tail_cuts(specs, walks)
    ends = [[spec.a, spec.b] for spec in specs.specs]
    for (k, _, d), cut in zip(walks, cuts):
        if cut is not None:
            ends[k][d > 0] = cut

    panels, known = [], {}
    for k, spec in enumerate(specs.specs):
        if specs.errors[k] is None:
            try:  # the peaks first: they refuse a basis with a <= 0, which _grade cannot grade
                known[k] = _known_peaks(spec)
                panels += _spec_panels(specs, k, *ends[k], bps[k])
            except (DomainError, NumericalFailure) as exc:
                specs.errors[k] = exc
    # each panel's peak, known in closed form; the panels stay in spec order
    panels = [p for p in panels if specs.errors[p.owner] is None]
    if panels:
        _place_peaks(specs, panels, known)
    work = [p for p in panels if specs.errors[p.owner] is None]
    peaks = {}
    for p in work:
        peaks.setdefault(p.owner, []).append(p.peak)
    sums = {}
    for k, spec_peaks in peaks.items():
        specs.shift[k] = shift = max(spec_peaks)
        sums[k] = _Sum(shift, cfg.rel_tol)

    # the first pass cuts every graded panel about s = 1/2 (into quarters at
    # k = 2), and every panel whose peak is much narrower than itself
    # geometrically toward that peak: a graded panel's in x, at its top too,
    # and the cuts mapped into s
    panels, los, his = [], [], []
    for p in work:
        lo, hi = (p.grade or (p.lo, p.hi))[:2]
        cut = []
        if hi - lo > _PEAK_WIDTH * p.sigma and p.peak >= specs.shift[p.owner] - _PEAK_NATS:
            cut = _peak_cuts(p.top, p.sigma, lo, hi, _CUT_MARGIN if specs.specs[p.owner].peaks
                             is not None else 0.0, p.grade is not None)
        if p.grade is not None:
            near = 0.5 * math.tan(0.5 * math.pi / p.grade[2])  # the map's poles: 1/2 +- i near
            cut = sorted({*_peak_cuts(0.5, near / 3.0, 0.0, 1.0, at_top=True),
                          *_ungraded(p.grade, cut)})
        edges = [p.lo] + cut + [p.hi]
        panels += [p] * (len(edges) - 1)
        los += edges[:-1]
        his += edges[1:]
    if panels:
        i_rows, e_rows, a_rows, total_size = _gk_rows(specs, panels, los, his, sizes=True)
        rows = zip(panels, los, his, i_rows, e_rows, a_rows)
        for k, spec_rows in itertools.groupby(rows, key=lambda row: row[0].owner):
            sums[k].first_pass(list(spec_rows))
        for k, total in total_size.items():
            sums[k].set_rounding(total)

    going = [k for k in sums if specs.errors[k] is None]
    while going:
        splits = [(k, sums[k].next_split()) for k in going]
        splits = [(k, split) for k, split in splits if split]
        panels, los, his = [], [], []
        for _, split in splits:
            for _, _, p, a, b, _, _, _, _ in split:
                mid = 0.5 * (a + b)
                panels += (p, p)
                los += (a, mid)
                his += (mid, b)
        if not panels:
            break
        i_rows, e_rows, a_rows, _ = _gk_rows(specs, panels, los, his)
        start = 0
        for k, split in splits:
            stop = start + 2 * len(split)
            if specs.errors[k] is None:
                sums[k].absorb(split, i_rows[start:stop], e_rows[start:stop],
                               a_rows[start:stop], los[start:stop])
            start = stop
        going = [k for k, _ in splits if specs.errors[k] is None]

    return [specs.errors[k] or sums[k].result(spec.phi_many is None)
            for k, spec in enumerate(specs.specs)]
