"""Independent-sum applications: exact Poisson-binomial mass functions and
binomial / Poisson / geometric approximation bounds.

For Bernoulli summands with success probabilities ``p_i`` and failure
probabilities ``alpha_i = 1 - p_i > 0``, the reference binomial is chosen so
that the probability ratio at 0-1 matches the sum exactly:
``P[S=1]/P[S=0] = sum p_i/alpha_i = n (m_n - 1)`` where ``m_n`` is the
arithmetic mean of the ``1/alpha_i``.  The bound then depends only on the
arithmetic/geometric mean gap of the ``1/alpha_i``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

from .bounds import BoundReport, _safe_expm1, certify
from .distributions import (
    DEFAULT_TAIL_BUDGET,
    DiscreteDist,
    Scalar,
    _bernoulli_step,
    _geometric_law,
    _is_exact,
    convolve,
    family_binomial,
    family_poisson,
    is_log_concave,
)
from .errors import HypothesisError, InvalidDistributionError, NotApplicableError

_FLOOR = 2.0**-200  # the float pmf keeps its cells at or above this fraction of the largest


class BernoulliVector:
    """Success probabilities ``p_i`` in [0, 1); all failure masses positive."""

    def __init__(self, p: Sequence[Scalar]):
        self.p = p = tuple(p)
        if not p:
            raise InvalidDistributionError("empty probability vector")
        if any(not 0 <= v < 1 for v in p):
            raise InvalidDistributionError("each p_i must lie in [0, 1)")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def alphas(self) -> tuple:
        return tuple(1 - v for v in self.p)

    @cached_property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self.p)

    @cached_property
    def lambda_n(self) -> Scalar:
        """``sum p_i/alpha_i = n (m_n - 1)``, the ratio the references match,
        summed directly: ``n (m_n - 1)`` cancels for small ``p_i``.  Exact
        terms are ``a/(b-a)`` for ``p_i = a/b``, summed as one integer
        numerator over the least common ``b - a`` and reduced once."""
        if self.is_exact:
            ratios = [v.as_integer_ratio() for v in self.p]
            den = math.lcm(*(b - a for a, b in ratios))
            return Fraction(sum(a * (den // (b - a)) for a, b in ratios), den)
        return math.fsum(v / a for v, a in zip(self.p, self.alphas))


def poisson_binomial_pmf(bv: BernoulliVector) -> DiscreteDist:
    """Mass function of ``sum_i Bernoulli(p_i)``: on ``0..n`` when exact, its bulk on floats.

    Direct two-term recursion ``a'_k = a_{k-1} p_i + a_k q_i`` over the
    summands on one plain list, with no intermediate distributions; only the
    result is validated.  Rational summands run on integer numerators over
    one running denominator, the product of the summands' ``b_i`` for ``p_i =
    a_i/b_i``: the coefficients of ``prod_i ((b_i - a_i) + a_i z)``.  No
    prime divides that denominator and every coefficient, since it would
    divide one factor, so both ``a_i`` and ``b_i``: an all-rational law is
    built from them by ``DiscreteDist.from_numerators`` over their least
    common denominator as they stand, and no cell is a ``Fraction`` unless
    read.  A leading rational run in a mixed vector is rounded to floats
    once, at the first float summand, as the fold does.
    The float summands then run in increasing order of ``p * q``, ties by
    ``p``, then ``q``, a later rational one as ``float(p), float(1 - p)``:
    the band stays narrow for longer, and the result is invariant under any
    reordering after the first float summand.  Its bulk (below) is
    bit-identical to folding ``convolve`` over the Bernoulli laws in that
    order: the fold's compensated sum of two products returns exactly the
    rounded ``a_{k-1} p_i + a_k q_i``.

    On floats one pass applies sixteen summands.  Each of its sixteen stages
    reads cell ``k`` of the stage before and keeps it in a carry for cell
    ``k + 1``; the carry holds that stage's exact, already rounded cell, so
    every stage forms ``a_{k-1} p + a_k q`` with the same two products and one
    sum, in the same order, as a pass of its own.  The carries start at 0.0
    and the band is padded with sixteen 0.0 cells; each adds ``0.0 p`` or
    ``0.0 q``, exactly 0.0, where one summand per pass has no term at all.
    The float summands are padded in front to a multiple of sixteen with
    identity summands ``p, q = 0.0, 1.0``: on a finite non-negative cell ``y``
    with carry ``c``, ``c * 0.0 + y * 1.0`` is ``0.0 + y``, exactly ``y``, so
    they change no cell, and in front they run while the band is shortest.
    A leading rational run goes one summand per pass.

    After each pass the band's end cells below ``2^-200`` of its largest, the
    thin tails of a log-concave law (Liggett 1997), are dropped: O(n * band
    width) cells, not O(n^2).  Each summand's step is a positive, mass-preserving
    kernel, so in exact arithmetic the kept cells are a pointwise lower bound of
    the law, short by exactly the dropped mass, whose ``math.fsum`` rounded up is
    ``tail_deficit``.  At ``2^-200`` the bulk that certificates and anchor gaps
    read, every cell at or above ``2^-60`` of the largest, stays bit-identical to
    the untrimmed recursion, and no kept cell is subnormal (the largest is ~1/n).
    """
    ps = bv.p
    k = next((i for i, x in enumerate(ps) if not _is_exact(x)), len(ps))
    # integer numerators over ``den`` while every summand is rational
    band, den = [1], 1
    for x in ps[:k]:
        num, d = x.as_integer_ratio()
        band = _bernoulli_step(band, num, d - num)
        den *= d
    if k == len(ps):
        return DiscreteDist.from_numerators(0, band, den, Fraction(0))
    pairs = sorted((float(x), float(1 - x)) for x in ps[k:])
    pairs.sort(key=lambda pq: pq[0] * pq[1])  # stable: increasing p * q, ties by p, then q
    pairs = [(0.0, 1.0)] * (-len(pairs) % 16) + pairs  # identity summands: c * 0.0 + y * 1.0 == y
    # cells ``lo ..`` of the mass function
    band, lo, deficit = [x / den for x in band], 0, 0.0
    for ((p1, q1), (p2, q2), (p3, q3), (p4, q4), (p5, q5), (p6, q6), (p7, q7), (p8, q8), (p9, q9), (p10, q10),
         (p11, q11), (p12, q12), (p13, q13), (p14, q14), (p15, q15), (p16, q16)) in zip(*[iter(pairs)] * 16):
        c1 = c2 = c3 = c4 = c5 = c6 = c7 = c8 = c9 = c10 = c11 = c12 = c13 = c14 = c15 = c16 = 0.0
        band.extend((0.0,) * 16)
        band = [c16 * p16 + (c16 := c15 * p15 + (c15 := c14 * p14 + (c14 := c13 * p13 + (c13 := c12 * p12 + (c12 :=
                c11 * p11 + (c11 := c10 * p10 + (c10 := c9 * p9 + (c9 := c8 * p8 + (c8 := c7 * p7 + (c7 :=
                c6 * p6 + (c6 := c5 * p5 + (c5 := c4 * p4 + (c4 := c3 * p3 + (c3 := c2 * p2 + (c2 :=
                c1 * p1 + (c1 := y) * q1) * q2) * q3) * q4) * q5) * q6) * q7) * q8) * q9) * q10) * q11)
                * q12) * q13) * q14) * q15) * q16 for y in band]
        cut, i, j = max(band) * _FLOOR, 0, len(band)
        while band[i] < cut:
            i += 1
        while band[j - 1] < cut:
            j -= 1
        dropped = math.fsum((deficit, *band[:i], *band[j:]))  # one rounding, so one ulp up covers it
        band, lo, deficit = band[i:j], lo + i, math.nextafter(dropped, math.inf) if dropped else 0.0
    return DiscreteDist(lo, tuple(band), deficit)


def binomial_target(bv: BernoulliVector) -> DiscreteDist:
    """Binomial(n, lambda_n / (n + lambda_n)), the ratio-matched binomial reference."""
    return family_binomial(bv.n, bv.lambda_n / (bv.n + bv.lambda_n))


def binomial_bound_primary(bv: BernoulliVector) -> float:
    """``min(t - 1, 1 - 1/t)`` with ``t = (m_n/g_n)^n = (1 + lambda_n/n)^n
    prod alpha_i`` (``m_n = 1 + lambda_n/n`` and ``g_n`` the arithmetic and
    geometric means of the ``1/alpha_i``), as a ``float`` on every input.
    Since ``t >= 1`` (AM-GM), the smaller term is ``1 - 1/t``: on rational
    input, with ``lambda_n = L/D`` and ``p_i = a_i/b_i``, it is ``(top -
    bottom) / top`` for ``top = (nD + L)^n prod (b_i - a_i)`` and ``bottom =
    (nD)^n prod b_i``, one correctly rounded int division.  Otherwise in log
    space: ``log t = n log1p(lambda_n/n) + sum log1p(-p_i)``, which does not
    cancel for small ``p_i``, clamped at 0, with ``1 - 1/t`` taken once ``t -
    1`` leaves the float range."""
    if bv.is_exact:
        (lam, d), ratios = bv.lambda_n.as_integer_ratio(), [v.as_integer_ratio() for v in bv.p]
        top = (bv.n * d + lam) ** bv.n * math.prod(b - a for a, b in ratios)
        return (top - (bv.n * d) ** bv.n * math.prod(b for _, b in ratios)) / top
    log_t = max(bv.n * math.log1p(bv.lambda_n / bv.n) + math.fsum(math.log1p(-float(v)) for v in bv.p), 0.0)
    return min(_safe_expm1(log_t), -math.expm1(-log_t))


def binomial_bound_secondary(bv: BernoulliVector) -> float:
    """Deviation-form bound ``exp{sum (p_i/a_i - r_n)^2 + (1/3n^2) sum (p_i/a_i)^3} - 1``
    with ``r_n`` the mean of the ``p_i/a_i``."""
    x = [float(v) / float(a) for v, a in zip(bv.p, bv.alphas)]
    n = bv.n
    r = math.fsum(x) / n
    return _safe_expm1(math.fsum((xi - r) ** 2 for xi in x) + math.fsum(xi**3 for xi in x) / (3.0 * n * n))


def poisson_target(bv: BernoulliVector) -> DiscreteDist:
    """Poisson(lambda_n) with ``lambda_n = n (m_n - 1)``, covering the sum's window ``0..n``."""
    return family_poisson(float(bv.lambda_n), min_length=bv.n + 1)


def poisson_bound(bv: BernoulliVector) -> float:
    """``exp{sum (p_i/alpha_i)^2} - 1``, ``inf`` above the float range."""
    return _safe_expm1(math.fsum((float(v) / float(a)) ** 2 for v, a in zip(bv.p, bv.alphas)))


def binomial_report(bv: BernoulliVector) -> BoundReport:
    """The sum against its ratio-matched binomial: ``binomial_bound_primary``
    as ``stated_bound``, and the deviation form, the binomial's ``p`` and the
    summands' in ``details``."""
    s, target_p = poisson_binomial_pmf(bv), float(bv.lambda_n / (bv.n + bv.lambda_n))
    details = {"bound_secondary": binomial_bound_secondary(bv), "target_p": target_p, "p": [float(v) for v in bv.p]}
    return certify(binomial_target(bv), s, stated_bound=binomial_bound_primary(bv), details=details)


def poisson_report(bv: BernoulliVector) -> BoundReport:
    """The sum against its ratio-matched Poisson law: ``poisson_bound`` as
    ``stated_bound``, and the rate and the summands' ``p`` in ``details``."""
    s, details = poisson_binomial_pmf(bv), {"lambda": float(bv.lambda_n), "p": [float(v) for v in bv.p]}
    return certify(poisson_target(bv), s, stated_bound=poisson_bound(bv), details=details)


def geometric_sum_bound(xis: Sequence[DiscreteDist]) -> BoundReport:
    """Geometric approximation for a sum of independent log-concave variables.

    Each summand must be supported on the non-negative integers with positive
    mass at zero; with ``alpha_i`` that mass and ``m_n`` the arithmetic mean
    of the ``1/alpha_i``, the target is Geometric(1 - n(m_n - 1)) and the
    closed-form bound is ``n(m_n-1) / (1 - n(m_n-1))``, applicable only when
    ``n (m_n - 1) < 1``.
    """
    xis = list(xis)
    if not xis:
        raise InvalidDistributionError("no summands")
    ratios = []
    for i, xi in enumerate(xis):
        if xi.offset != 0:
            raise InvalidDistributionError(f"summand {i} must start at 0")
        a = xi.mass(0)
        if a <= 0:
            raise NotApplicableError(f"summand {i} has zero mass at 0")
        cert = is_log_concave(xi)
        if not cert.holds:
            raise HypothesisError(f"summand {i} is not log-concave", {"certificate": cert.to_json()})
        # (1 - alpha_i)/alpha_i, with 1 - alpha_i taken as the mass above 0
        # plus the tail deficit: 1.0 - alpha_i would cancel for small masses
        ratios.append(math.fsum(map(float, (*xi.masses[1:], xi.tail_deficit))) / float(a))
    t = math.fsum(ratios)
    if t >= 1:
        raise NotApplicableError(
            f"n (m_n - 1) = {t:.6g} >= 1, geometric parameter would leave (0, 1]",
            {"enforced_condition": "n*(m_n - 1) < 1"},
        )
    sum_dist = reduce(convolve, xis)
    theta = 1.0 - t
    # masses theta t^k from t itself: family_geometric(theta) would cancel again
    target = _geometric_law(theta, t, DEFAULT_TAIL_BUDGET, len(sum_dist.masses))
    details = {"theta": theta, "m_minus_one_times_n": t}
    return certify(target, sum_dist, 0, is_log_concave(sum_dist), stated_bound=t / theta, details=details)
