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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import Sequence

from .bounds import BoundReport, anchored_report
from .distributions import (
    DEFAULT_TAIL_BUDGET,
    DiscreteDist,
    Scalar,
    _is_exact,
    convolve,
    family_bernoulli,
    family_binomial,
    family_geometric,
    family_poisson,
    is_log_concave,
)
from .errors import HypothesisError, InvalidDistributionError, NotApplicableError


@dataclass(frozen=True)
class BernoulliVector:
    """Success probabilities ``p_i`` in [0, 1); all failure masses positive."""

    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        if not self.p:
            raise InvalidDistributionError("empty probability vector")
        if any(not 0 <= v < 1 for v in self.p):
            raise InvalidDistributionError("each p_i must lie in [0, 1)")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def alphas(self) -> tuple:
        if self.is_exact:
            return tuple(1 - Fraction(v) for v in self.p)
        return tuple(1.0 - float(v) for v in self.p)

    @cached_property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self.p)

    def summary(self) -> "MeanSummary":
        return self._summary

    @cached_property
    def _summary(self) -> "MeanSummary":
        alphas = self.alphas
        n = self.n
        if self.is_exact:
            m = sum(Fraction(1, 1) / a for a in alphas) / n
            r = sum(Fraction(v) / a for v, a in zip(self.p, alphas)) / n
            lam = n * (m - 1)
        else:
            m = math.fsum(1.0 / a for a in alphas) / n
            r = math.fsum(float(v) / a for v, a in zip(self.p, alphas)) / n
            lam = n * (m - 1.0)
        g = math.exp(-math.fsum(math.log(float(a)) for a in alphas) / n)
        return MeanSummary(m, g, r, lam)


@dataclass(frozen=True)
class MeanSummary:
    """Means of the ``1/alpha_i``: arithmetic ``m_n``, geometric ``g_n``
    (always float), plus ``r_n = mean(p_i/alpha_i) = m_n - 1`` and
    ``lambda_n = n (m_n - 1)``."""

    m_n: Scalar
    g_n: float
    r_n: Scalar
    lambda_n: Scalar


def poisson_binomial_pmf(bv: BernoulliVector) -> DiscreteDist:
    """Exact mass function of ``sum_i Bernoulli(p_i)`` on ``0..n``.

    Direct two-term recursion ``a'_k = a_{k-1} p_i + a_k q_i`` over the
    summands on one plain list: O(n^2) cells and no intermediate
    distributions; only the result is validated.  The output is bit-identical
    to folding ``convolve`` over the Bernoulli laws, because the fold's
    compensated sum of two products returns exactly the rounded
    ``a_{k-1} p_i + a_k q_i``.  Rational summands run on integer numerators
    over one running denominator; a leading rational run in a mixed vector is
    rounded to floats once, at the first float summand, as the fold does.
    """
    a, den = [1], 1  # integer numerators over ``den`` while every summand is rational
    for v in bv.p:
        q, p = family_bernoulli(v).masses
        if den is not None and isinstance(p, Fraction):
            num, d = p.numerator, p.denominator
            q_num = d - num
            a = [x * num + y * q_num for x, y in zip(chain((0,), a), chain(a, (0,)))]
            den *= d
            continue
        if den is not None:
            a, den = [x / den for x in a], None
        q, p = float(q), float(p)
        a = [x * p + y * q for x, y in zip(chain((0.0,), a), chain(a, (0.0,)))]
    if den is not None:
        return DiscreteDist(0, tuple(Fraction(x, den) for x in a), Fraction(0))
    return DiscreteDist(0, tuple(a), 0.0)


def binomial_target(bv: BernoulliVector) -> DiscreteDist:
    """Binomial(n, 1 - 1/m_n), the ratio-matched binomial reference."""
    s = bv.summary()
    n = bv.n
    if bv.is_exact:
        p = 1 - 1 / Fraction(s.m_n)
    else:
        p = 1.0 - 1.0 / float(s.m_n)
    target = family_binomial(n, p)
    # ratio identity: P[B=1]/P[B=0] = n p/(1-p) = n (m_n - 1) = sum p_i/alpha_i
    lhs = n * float(p) / (1.0 - float(p)) if float(p) < 1 else math.inf
    rhs = math.fsum(float(v) / float(a) for v, a in zip(bv.p, bv.alphas))
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
        raise AssertionError("ratio identity violated in binomial target construction")
    return target


def _mean_power_product(bv: BernoulliVector):
    """(m_n / g_n)^n as an exact rational when possible, else its log."""
    s = bv.summary()
    if bv.is_exact:
        prod = Fraction(1)
        for a in bv.alphas:
            prod *= Fraction(a)
        return Fraction(s.m_n) ** bv.n * prod, None
    log_t = bv.n * math.log(float(s.m_n)) + math.fsum(math.log(float(a)) for a in bv.alphas)
    return None, log_t


def binomial_bound_primary(bv: BernoulliVector):
    """``min((m_n/g_n)^n - 1, 1 - (g_n/m_n)^n)``, exact on rational input,
    log-space otherwise."""
    t, log_t = _mean_power_product(bv)
    if t is not None:
        return min(t - 1, 1 - 1 / t)
    return min(math.expm1(log_t), -math.expm1(-log_t))


def binomial_bound_secondary(bv: BernoulliVector, proof_tight: bool = False) -> float:
    """Deviation-form bound ``exp{sum (p_i/a_i - r_n)^2 + (1/3n^2) sum (p_i/a_i)^3} - 1``.

    ``proof_tight=True`` switches to the sharper exponent
    ``(1/2) sum (p_i/a_i - r_n)^2 + (1/3n^2) (sum p_i/a_i)^3``.
    """
    x = [float(v) / float(a) for v, a in zip(bv.p, bv.alphas)]
    n = bv.n
    r = math.fsum(x) / n
    dev = math.fsum((xi - r) ** 2 for xi in x)
    if proof_tight:
        expo = 0.5 * dev + math.fsum(x) ** 3 / (3.0 * n * n)
    else:
        expo = dev + math.fsum(xi**3 for xi in x) / (3.0 * n * n)
    return math.expm1(expo)


def poisson_target(bv: BernoulliVector, tail_budget: float = DEFAULT_TAIL_BUDGET) -> DiscreteDist:
    """Poisson(lambda_n) with ``lambda_n = n (m_n - 1)``, truncated."""
    return family_poisson(float(bv.summary().lambda_n), tail_budget)


def poisson_bound(bv: BernoulliVector) -> float:
    """``exp{sum (p_i/alpha_i)^2} - 1``."""
    return math.expm1(math.fsum((float(v) / float(a)) ** 2 for v, a in zip(bv.p, bv.alphas)))


def log1p_taylor_bounds(x: float) -> tuple[float, float]:
    """Second/third-order Taylor envelope around ``log(1+x)``.

    The upper bound ``x - x^2/2 + x^3/3`` holds for every ``x > -1``; the
    lower bound ``x - x^2/2`` holds for ``x >= 0`` (it fails on (-1, 0)).
    Both approximation arguments used by the secondary bounds apply it to
    non-negative ratios only.
    """
    return x - x * x / 2.0, x - x * x / 2.0 + x**3 / 3.0


def geometric_sum_bound(
    xis: Sequence[DiscreteDist], tail_budget: float = DEFAULT_TAIL_BUDGET
) -> BoundReport:
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
    alphas = []
    for i, xi in enumerate(xis):
        if xi.offset != 0:
            raise InvalidDistributionError(f"summand {i} must start at 0")
        a = xi.mass(0)
        if a <= 0:
            raise NotApplicableError(f"summand {i} has zero mass at 0")
        cert = is_log_concave(xi)
        if not cert.holds:
            raise HypothesisError(f"summand {i} is not log-concave", {"certificate": cert.to_json()})
        alphas.append(a)
    n = len(xis)
    exact = all(_is_exact(a) for a in alphas)
    if exact:
        t = n * (sum(Fraction(1, 1) / Fraction(a) for a in alphas) / n - 1)
    else:
        t = n * (math.fsum(1.0 / float(a) for a in alphas) / n - 1.0)
    if t >= 1:
        raise NotApplicableError(
            f"n (m_n - 1) = {float(t):.6g} >= 1, geometric parameter would leave (0, 1]",
            {"enforced_condition": "n*(m_n - 1) < 1"},
        )
    sum_dist = reduce(convolve, xis)
    theta = 1 - t
    target = family_geometric(
        float(theta), tail_budget, min_length=len(sum_dist.masses)
    )
    stated = float(t) / (1.0 - float(t))
    details = {"theta": float(theta), "m_minus_one_times_n": float(t)}
    return anchored_report(target, sum_dist, 0, is_log_concave(sum_dist), stated_bound=stated, details=details)
