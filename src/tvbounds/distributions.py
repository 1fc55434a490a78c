"""Discrete distributions on contiguous integer windows, exact total variation,
and log-concavity certificates.

A :class:`DiscreteDist` stores masses on the window ``offset .. offset+L-1``.
Infinite families (Poisson, geometric) are truncated at a tail budget, the
float Poisson-binomial pmf at a relative floor, and the mass left out is
recorded in ``tail_deficit``: every distance downstream is an honest interval,
and every envelope bound is raised by the target's.  The application modules
and the CLI truncate at ``DEFAULT_TAIL_BUDGET``; only ``family_geometric`` takes another budget.

The values' types decide the arithmetic: no constructor casts, so masses
built from ``int``/``Fraction`` inputs stay exact rational and a float among
them makes the result float, as ``Fraction * float`` is ``float(a) * b``
(``int / int`` is a float, so exact quotients are ``Fraction(a, b)``).  The
tests on exactness that remain choose algorithms: the integer kernels below,
``convolve``'s compensated float sum, ``family_binomial``'s walks (exact
integer numerators up from ``(b-a)^n`` over ``b^n`` for ``p = a/b``; floats
out from the mode, normalized once, since ``q^n`` can underflow),
``_geometric_law``'s log of an exact ratio, whose ``float`` can underflow,
``_pair_scan``'s ``0.0`` start, which rounds a mixed law's ``Fraction``
cells as it adds them, and, in ``sums`` and ``intrinsic_volumes``, the float
pmf kernel, the log-space bound and the cube's ``frexp`` powers.  Every
certificate is one kernel, ``_three_term``: interval support of ``a`` and
``a[i-1] a[i+1] L_i <= a[i]^2 R_i`` at each interior ``i``, cross-multiplied
so that no logarithm of zero misfires, exact when all its cells are and with
relative slack ``CERT_REL_TOL`` (read nowhere else) otherwise.  The weights
``(L_i, R_i)`` are ``(p_i^2, p_{i-1} p_{i+1})`` relative to a reference
``p``, ``(1, 1)`` for the counting measure, ``((k+1)(m-k+1), k(m-k))`` for
ultra log-concavity of order ``m`` and ``(k+1, k)`` for infinite order.

Every fact about a pair of laws, from absolute continuity to the anchor gap
rows, comes from one walk over their aligned cells, ``_pair_scan``, which
``tv_distance``, ``is_log_concave_relative`` and the reports all read.  The
scan decides no certificate: it hands its aligned cells to ``_three_term``
for the readers that need the relative one.  It does decide which anchors
are ratio matched, the one reader of ``ANCHOR_MATCH_TOL``.

The exact kernels (validation, ``_three_term``, ``_pair_scan`` and the
envelope sums of ``bounds``) never add or multiply ``Fraction`` cells: they
run on ``DiscreteDist.integer_masses``, the masses as integer numerators over
their least common denominator, and build one ``Fraction`` per result.  The
exact laws the applications build (``family_binomial``, ``make_dist``, the
exact Poisson-binomial pmf) are made from those integers by
``DiscreteDist.from_numerators``, with one gcd over all cells: no
``Fraction`` per cell, unless a reader asks for ``masses``.  A law built from
``Fraction`` masses forms its numerators once, cached per instance.  An exact
certificate multiplies even those integers only where it must: it first
compares each inequality on sums of ``math.log2`` of its factors (the
reference's cells, not their products), taken once per cell, and forms the
big-integer products only at the cells whose two sides lie within a proven
error margin of each other, in practice near ties.  Its verdicts are those of
the products; ``_three_term`` derives the margin.  The exact TV decides the
sign of each cell's term the same way, ``_pair_scan`` derives its margin.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, truediv
from typing import NamedTuple, Sequence, Union

from .errors import AbsoluteContinuityError, InvalidDistributionError

Scalar = Union[int, float, Fraction]

#: relative slack used by float-mode certificates; exact mode uses none
CERT_REL_TOL = 1e-12

#: a float anchor counts as ratio matched when the normalized cross-product
#: gap |p_{l+1} q_l - q_{l+1} p_l| / max(...) falls below this
ANCHOR_MATCH_TOL = 1e-12

#: truncation budget for infinite-support families; the one every application
#: reference is built at
DEFAULT_TAIL_BUDGET = 1e-12

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# construction-time guard; the 1e-12 normalization invariant is asserted by
# the test suite on every family, this is a looser safety net
_NORMALIZATION_GUARD = 1e-9


def _is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class Interval(NamedTuple):
    """A closed interval ``[lo, hi]`` bracketing a real quantity."""

    lo: Scalar
    hi: Scalar

    def to_json(self) -> list:
        return [float(self.lo), float(self.hi)]


class LogConcavityCertificate:
    """Outcome of a (relative) log-concavity check.

    ``holds`` implies the support is a contiguous interval and no violating
    index was found; otherwise ``first_violation`` names the first offending
    position (a support gap or a failed three-term inequality).  Certificates
    compare and hash by value.
    """

    __slots__ = ("holds", "first_violation", "support_is_interval")

    def __init__(self, holds: bool, first_violation: int | None, support_is_interval: bool):
        if holds and (first_violation is not None or not support_is_interval):
            raise ValueError("inconsistent certificate")
        self.holds, self.first_violation, self.support_is_interval = holds, first_violation, support_is_interval

    def _key(self) -> tuple:
        return self.holds, self.first_violation, self.support_is_interval

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "first_violation": self.first_violation,
            "support_is_interval": self.support_is_interval,
        }


class DiscreteDist:
    """Masses on the integer window ``offset .. offset+len(masses)-1``.

    ``tail_deficit`` is the (non-negative) mass left out of the window, a
    truncated or dropped tail; it is zero for a law stored whole.  ``is_exact``
    (every mass and the deficit are ``int``/``Fraction``) is set by
    ``__post_init__``, which validates the law.  An exact law is built from its
    masses or, by ``from_numerators``, from integer numerators over one
    denominator, kept as ``integer_masses``; its ``Fraction`` ``masses`` are
    then formed on first read, and the readers of signs, positions and floats
    (``end``, ``support_min``, ``support_max``, ``mass``, ``to_float``,
    ``to_json``) read the numerators of every exact law.
    """

    def __init__(self, offset: int, masses: Sequence[Scalar], tail_deficit: Scalar = 0):
        self.offset, self.masses, self.tail_deficit = offset, tuple(masses), tail_deficit
        self.__post_init__()

    @classmethod
    def from_numerators(cls, offset: int, numerators: Sequence[int], den: int,
                        tail_deficit: Scalar = 0) -> "DiscreteDist":
        """The law with masses ``numerators[i] / den`` (``den > 0``), held as
        integers: numerators and ``den`` are divided once by their gcd, so
        ``integer_masses`` is over the least common denominator, as for a law
        built from its ``Fraction`` masses."""
        g = math.gcd(den, *numerators)
        law = cls.__new__(cls)
        law.offset, law.tail_deficit = offset, tail_deficit
        law.integer_masses = tuple(x // g for x in numerators) if g > 1 else tuple(numerators), den // g
        law.__post_init__()
        return law

    def __post_init__(self):
        # a law built from numerators has them already, and no masses yet
        self.is_exact = _is_exact(self.tail_deficit) and ("integer_masses" in vars(self)
                                                          or all(map(_is_exact, self.masses)))
        cells, den = self.integer_masses if self.is_exact else (self.masses, 1)
        if not cells:
            raise InvalidDistributionError("empty mass sequence")
        if any(m < 0 for m in cells):
            raise InvalidDistributionError("negative mass")
        if all(m == 0 for m in cells):  # a NaN cell goes on to the sum check
            raise InvalidDistributionError("all masses zero")
        if self.tail_deficit < 0:
            raise InvalidDistributionError("negative tail deficit")
        mass = sum(cells)
        # compared before any float is formed: an exact part this large may leave the float range
        if mass > 2 * den or self.tail_deficit > 2:
            raise InvalidDistributionError("masses + tail_deficit sum to more than 2, not 1")
        total = mass / den + self.tail_deficit
        if not abs(total - 1) <= _NORMALIZATION_GUARD:  # NaN fails too
            raise InvalidDistributionError(f"masses + tail_deficit sum to {float(total)!r}, not 1")

    @cached_property
    def masses(self) -> tuple:
        """The cells; stored by ``__init__``, formed here on first read for a
        law built by ``from_numerators``."""
        nums, den = self.integer_masses
        return tuple(Fraction(x, den) for x in nums)

    @cached_property
    def integer_masses(self) -> tuple[tuple[int, ...], int]:
        """``(numerators, denominator)``: the exact masses as integers over
        their least common denominator.  Only meaningful when ``is_exact``."""
        return _common_denominator(self.masses)

    @property
    def _cells(self) -> Sequence[Scalar]:
        """The cells as the readers of signs and positions take them: the
        integer numerators of an exact law, else the masses."""
        return self.integer_masses[0] if self.is_exact else self.masses

    # -- window geometry ----------------------------------------------------

    @property
    def end(self) -> int:
        """One past the last window index."""
        return self.offset + len(self._cells)

    @property
    def support_min(self) -> int:
        return self.offset + next(i for i, m in enumerate(self._cells) if m > 0)

    @property
    def support_max(self) -> int:
        return self.offset + max(i for i, m in enumerate(self._cells) if m > 0)

    def mass(self, k: int) -> Scalar:
        """Mass at absolute index ``k`` (zero outside the window)."""
        i, cells = k - self.offset, self._cells
        if 0 <= i < len(cells):
            return Fraction(cells[i], self.integer_masses[1]) if self.is_exact else cells[i]
        return 0

    def shifted(self, d: int) -> "DiscreteDist":
        return DiscreteDist(self.offset + d, self.masses, self.tail_deficit)

    def _floats(self) -> tuple[float, ...]:
        """Each mass correctly rounded to a float: an exact law's numerator
        over its denominator, one int division, is ``float`` of its mass."""
        if not self.is_exact:
            return tuple(float(m) for m in self.masses)
        nums, den = self.integer_masses
        return tuple(x / den for x in nums)

    def to_float(self) -> "DiscreteDist":
        return DiscreteDist(self.offset, self._floats(), float(self.tail_deficit))

    # -- serialization (CLI wire format) ------------------------------------

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "masses": list(self._floats()),
            "tail_deficit": float(self.tail_deficit),
        }

    @classmethod
    def from_json(cls, d: dict) -> "DiscreteDist":
        if not (isinstance(d, dict) and type(d.get("offset")) is int and isinstance(d.get("masses"), list)
                and all(type(v) in (int, float) for v in (*d["masses"], d.get("tail_deficit", 0.0)))):
            raise InvalidDistributionError("a distribution is {offset: integer, masses: [numbers], tail_deficit}")
        return cls(d["offset"], tuple(float(m) for m in d["masses"]), float(d.get("tail_deficit", 0.0)))


def _common_denominator(values: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """``(numerators, denominator)`` of exact ``values`` over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def make_dist(offset: int, masses: Sequence[Scalar]) -> DiscreteDist:
    """Normalize a non-negative mass sequence into a distribution.

    Rational inputs are normalized exactly, as their numerators over a common
    denominator divided by their sum; float inputs in binary floating point.
    The result has ``tail_deficit = 0``.
    """
    masses = list(masses)
    if not masses:
        raise InvalidDistributionError("empty mass sequence")
    if any(m < 0 for m in masses):
        raise InvalidDistributionError("negative mass")
    exact = all(map(_is_exact, masses))
    cells = _common_denominator(masses)[0] if exact else masses
    total = sum(cells)
    if total <= 0:
        raise InvalidDistributionError("all masses zero")
    if exact:
        return DiscreteDist.from_numerators(offset, cells, total, Fraction(0))
    return DiscreteDist(offset, tuple(float(m) / total for m in masses), 0.0)


def point_mass(k: int) -> DiscreteDist:
    return DiscreteDist(k, (Fraction(1),), Fraction(0))


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def family_bernoulli(p: Scalar) -> DiscreteDist:
    if not 0 <= p <= 1:
        raise InvalidDistributionError("Bernoulli p must lie in [0, 1]")
    return DiscreteDist(0, (1 - p, p), 0)


def family_binomial(n: int, p: Scalar) -> DiscreteDist:
    """Binomial(``n``, ``p``) on ``0..n``, exact for an ``int``/``Fraction``
    ``p``, built in either arithmetic by the mass ratio ``m_{k+1}/m_k =
    (n-k)/(k+1) p/q``; ``p = 1`` is the point mass at ``n``.

    For ``p = a/b`` the exact cells are integer numerators over ``b^n``, run
    up from ``N_0 = (b-a)^n`` by ``N_{k+1} = N_k (n-k) a // ((k+1)(b-a))``,
    each division exact since ``N_k = C(n,k) a^k (b-a)^(n-k)``.  ``N_0`` is
    coprime to ``b``, so ``b^n`` is already their least common denominator:
    the law is built by ``DiscreteDist.from_numerators`` with no gcd beyond
    that one check, and its ``Fraction`` masses, formed only if read, are
    those of ``C(n,k) p^k q^(n-k)``."""
    if n < 0:
        raise InvalidDistributionError("binomial n must be >= 0")
    if not 0 <= p <= 1:
        raise InvalidDistributionError("binomial p must lie in [0, 1]")
    if p == 1:
        return DiscreteDist(0, (p - p,) * n + (p,), p - p)
    if _is_exact(p):
        a, b = p.as_integer_ratio()
        cells = accumulate(range(n), lambda m, k: m * ((n - k) * a) // ((k + 1) * (b - a)), initial=(b - a) ** n)
        return DiscreteDist.from_numerators(0, tuple(cells), b**n, 0)
    # each cell from its neighbour by the mass ratio m_{k+1}/m_k = (n-k)/(k+1)
    # p/q, outward from the mode (set to 1, so nothing overflows), then
    # normalized: neighbouring cells keep their ratio to a few ulps, which the
    # anchor gap compares, and no cell pays for a binomial coefficient
    r = p / (1.0 - p)
    ratios = [(n - k) / (k + 1) * r for k in range(n)]
    mode = min(int((n + 1) * p), n)
    up = list(accumulate(ratios[mode:], mul, initial=1.0))
    down = list(accumulate(reversed(ratios[:mode]), truediv, initial=1.0))
    cells = down[:0:-1] + up
    total = math.fsum(cells)
    return DiscreteDist(0, tuple(m / total for m in cells), 0.0)


def _log_gamma_prefactor(a: float, x: float) -> float:
    """``log(x^a e^{-x} / Gamma(a))`` for ``x > 0``, of Poisson masses and Gamma densities.

    From ``a = 20`` on, ``lgamma`` is replaced by Stirling's series, so the
    ``a log a`` terms cancel exactly instead of leaving ``a log(a) eps`` of
    rounding (3e-9 relative near ``a = 1e6``).
    """
    if a < 20.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    # log1p loses accuracy as t -> -1, where log(x/a) does not, unless x/a underflows
    lead = math.log1p(t) - t if t > -0.5 else (math.log(x / a) if x / a else math.log(x) - math.log(a)) - t
    r = 1.0 / (a * a)
    stirling = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a
    return a * lead + 0.5 * math.log(a) - _HALF_LOG_2PI - stirling


def family_poisson(lam: float, *, min_length: int = 1) -> DiscreteDist:
    """Poisson(``lam``) on the window ``0..K``, built as ``family_binomial``
    is: one cell in closed form, the others by the mass ratios ``lam/(k+1)``
    up and ``k/lam`` down (as ``c k / lam``: the rounded ``k/lam`` share a
    bias), so only far tails underflow, to 0.0.  The closed-form cell is the
    mode ``m = floor(lam)`` from a rate of 19 on, and ``P(0) = e^-lam``
    below, where ``lgamma`` would round the mode's by up to 1e-14.  ``K`` is
    the smallest index with ``K + 1 >= min_length`` and ``K + 1 > lam`` whose
    tail, at most ``P(K) lam / (K + 1 - lam)``, is within
    ``DEFAULT_TAIL_BUDGET``; that series, one ulp up, is the ``tail_deficit``.
    A rate past the window whose largest cell ``P(min_length - 1)``
    underflows is refused: no window cell would hold mass, and the cost
    would grow with the rate, not with the window."""
    if not 0 <= (lam := float(lam)) < math.inf:
        raise InvalidDistributionError("Poisson rate must be finite and >= 0")
    if lam >= min_length and math.exp(_log_gamma_prefactor(min_length, lam)) / lam == 0.0:
        raise InvalidDistributionError(f"Poisson rate {lam!r} leaves no float mass on 0..{min_length - 1}")
    m = int(lam) if lam >= 19 else 0
    top = math.exp(_log_gamma_prefactor(m + 1.0, lam)) / lam if m else math.exp(-lam)
    down = list(accumulate(range(m, 0, -1), lambda c, k: c * k / lam, initial=top))
    up = list(accumulate(range(m + 1, max(min_length, int(lam) + 1)), lambda c, k: c * lam / k, initial=top))
    cells = down[:0:-1] + up
    while (tail := cells[-1] * lam / (len(cells) - lam)) > DEFAULT_TAIL_BUDGET:
        cells.append(cells[-1] * lam / len(cells))
    return DiscreteDist(0, tuple(cells), math.nextafter(tail, math.inf) if tail else 0.0)


def family_geometric(
    theta: Scalar,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
    min_length: int = 1,
) -> DiscreteDist:
    """Geometric law ``g[k] = (1-theta)^k * theta`` on k >= 0, truncated.

    The window is extended to at least ``min_length`` cells so callers can line
    the reference up against a wider target before a certificate check.
    """
    if not 0 < theta <= 1:
        raise InvalidDistributionError("geometric theta must lie in (0, 1]")
    return _geometric_law(theta, 1 - theta, tail_budget, min_length)


#: longest geometric window: a compound Poisson report on 9.2e5 cells took 0.3 s
#: and 107 MB, on 9.2e6 cells 3 s and 860 MB (Python 3.11, 2-vCPU Xeon VM)
_MAX_GEOMETRIC_CELLS = 10**6


def _geometric_law(theta: Scalar, r: Scalar, tail_budget: float, min_length: int) -> DiscreteDist:
    """``family_geometric`` with its ratio ``r = 1 - theta`` given, for callers
    that know ``r`` more precisely than ``1 - theta`` would recompute it."""
    if not 0 < tail_budget < 1:
        raise InvalidDistributionError("tail budget must lie in (0, 1)")
    if r == 0:
        return DiscreteDist(0, (Fraction(1),) + (Fraction(0),) * (max(min_length, 1) - 1), Fraction(0))
    # float(r) of an exact r can underflow, so its log is taken as in _log2_cells
    log_r = math.log(r.numerator) - math.log(r.denominator) if _is_exact(r) else math.log(r)
    # residual after masses 0..K is r^(K+1)
    need = math.ceil(math.log(tail_budget) / log_r) if log_r else math.inf
    if need > _MAX_GEOMETRIC_CELLS:
        raise InvalidDistributionError(f"geometric ratio 1 - theta = {float(r)!r} is too close to 1 to truncate "
                                       f"within {_MAX_GEOMETRIC_CELLS} cells")
    length = max(need, min_length, 1)
    masses = []
    term = theta
    for _ in range(length):
        masses.append(term)
        term = term * r
    return DiscreteDist(0, tuple(masses), r**length)


# ---------------------------------------------------------------------------
# distances and convolution
# ---------------------------------------------------------------------------


def tv_distance(mu: DiscreteDist, nu: DiscreteDist) -> Interval:
    """Total variation as an interval absorbing both truncation deficits,
    read off ``_pair_scan`` at an anchor left of both windows, so that the
    scan builds no gap row.

    The point value is ``t = sum_k (nu_k - mu_k)_+`` over the union window.
    Stored cells are at most the true ones, so the true distance lies within
    ``[max(t - mu.tail_deficit, 0), min(t + nu.tail_deficit, 1)]``.  Exact laws sum
    ``(N_k d_mu - M_k d_nu)_+`` over their integer numerators ``N`` (of
    ``nu``) and ``M`` (of ``mu``), each sign decided as ``_pair_scan`` says,
    and divide once by ``d_mu d_nu``.
    """
    return _pair_scan(mu, nu, min(mu.offset, nu.offset) - 1)[3]


def _neumaier_sum(values) -> float:
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def _bernoulli_step(band: list, p, q) -> list:
    """One summand of the recursion ``a'_k = a_{k-1} p + a_k q`` on ``band``;
    the carry ``u`` holds the previous input cell, 0 before the first."""
    u = 0
    band = [u * p + (u := y) * q for y in band]
    band.append(u * p)
    return band


def convolve(x: DiscreteDist, y: DiscreteDist) -> DiscreteDist:
    """Exact discrete convolution; offsets sum, tail deficits add."""
    a, b = x.masses, y.masses
    add = sum if x.is_exact and y.is_exact else _neumaier_sum
    out = []
    for k in range(len(a) + len(b) - 1):
        lo = max(0, k - len(b) + 1)
        hi = min(k, len(a) - 1)
        out.append(add(a[i] * b[k - i] for i in range(lo, hi + 1)))
    return DiscreteDist(x.offset + y.offset, tuple(out), x.tail_deficit + y.tail_deficit)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _support_interval(masses: Sequence[Scalar], base: int) -> tuple[bool, int | None, int, int]:
    """Returns (is_interval, first_gap_index, lo, hi) for positive positions."""
    pos = [i for i, m in enumerate(masses) if m > 0]
    lo, hi = pos[0], pos[-1]
    for i in range(lo, hi + 1):
        if masses[i] == 0:
            return False, base + i, base + lo, base + hi
    return True, None, base + lo, base + hi


def _log2_cells(cells: Sequence[Scalar]) -> tuple[list[float], float]:
    """``log2`` of each positive ``int``/``Fraction`` cell, taken as
    ``math.log2`` of its numerator minus that of its denominator (``float``
    of a ``Fraction`` under- or overflows), and the largest ``log2 num +
    log2 den`` among the cells, which bounds the size of every log and of its
    error."""
    logs, mag = [], 0.0
    for v in cells:
        top, bottom = math.log2(v.numerator), math.log2(v.denominator)
        logs.append(top - bottom)
        mag = max(mag, top + bottom)
    return logs, mag


def _log2_undecided(a: Sequence[Scalar], lo: int, hi: int, ref=None, weights=None):
    """Yield, in increasing order, the interior indices ``i`` of the positive
    run ``a[lo..hi]`` of exact cells where the log2 magnitudes of the factors
    of ``a[i-1] a[i+1] L_i <= a[i]^2 R_i`` do not prove it: where ``c_i =
    l a[i-1] + l a[i+1] - 2 l a[i] - (l R_i - l L_i)``, ``l = log2``, is not
    below ``-margin`` (see ``_three_term``).  Each cell's log2 is taken once.
    """
    la, mag = _log2_cells(a[lo : hi + 1])
    interior = range(1, hi - lo)
    if ref is not None:
        lp, mag_ref = _log2_cells(ref[lo : hi + 1])
        slack = [lp[j - 1] + lp[j + 1] - 2 * lp[j] for j in interior]
        mag = max(mag, mag_ref)
    elif weights is not None:
        logs = [_log2_cells((weights[0][lo + j], weights[1][lo + j])) for j in interior]
        slack = [right - left for (left, right), _ in logs]
        mag = max([mag, *(m for _, m in logs)])
    else:
        slack = [0.0] * len(interior)
    margin = (mag + 1) * 2.0**-40
    for j, s in zip(interior, slack):
        if la[j - 1] + la[j + 1] - 2 * la[j] - s > -margin:
            yield lo + j


def _three_term(a: Sequence[Scalar], ref=None, weights=None, base: int = 0) -> LogConcavityCertificate:
    """The one log-concavity kernel: interval support of ``a``, then
    ``a[i-1] a[i+1] L_i <= a[i]^2 R_i`` at each interior ``i``, with ``(L_i,
    R_i) = (ref[i]^2, ref[i-1] ref[i+1])`` against the cells of a reference
    ``ref`` (positive wherever ``a`` is), ``(weights[0][i], weights[1][i])``
    (small positive integers) otherwise, or ``(1, 1)`` without either.
    Indices are reported as ``base + i``.

    It is exact when every cell of ``a`` and ``ref`` is ``int``/``Fraction``
    (the test stops at the first float).  Each side is formed weight first,
    ``a[i-1] (a[i+1] L_i)``, so none of its partial products is smaller.
    Float cells are compared with ``CERT_REL_TOL`` slack, on
    ``_scaled_products`` where a side leaves the normal range and none of the
    triple's cells (of ``a`` and ``ref``) is subnormal.  Exact cells first
    go through a log2 pre-check, ``_log2_undecided``, which accepts ``i``
    when the computed ``c_i = l a[i-1] + l a[i+1] - 2 l a[i] - (l R_i - l
    L_i)``, ``l = log2``, is below ``-margin``; only the other cells form the
    big-integer products, so every verdict and ``first_violation`` is that
    of the products.  The margin ``(mag + 1) 2^-40`` is proven, with ``mag``
    the largest ``log2 N + log2 D`` over the cells ``N/D`` of ``a``, ``ref``
    and the weights.  ``math.log2`` of an int ``x`` rounds it to a 53-bit
    mantissa (``1.45 * 2^-53`` in log2) and adds its exponent, through a
    libm ``log2`` good to one ulp, so it is off by at most ``(log2 x + 2)
    2^-52``.  A cell's log is ``log2 N - log2 D``: two such errors and one
    rounding, at most ``(1.5 mag + 4) 2^-52``.  ``c_i`` sums at most eight of
    them (``2 l a[i]`` counts twice; doubling is exact), ``(12 mag + 32)
    2^-52``, and rounds five times, each time by at most ``2^-53`` of a
    partial sum no larger than ``8 mag``, ``20 mag 2^-52``: under ``(mag +
    1) 2^-47`` in all.  The margin is 128 times that, so a cell it accepts
    holds.  ``a`` holds a law's cells, or ones ``_check_raw_cells`` passed."""
    ok, gap, lo, hi = _support_interval(a, 0)
    if not ok:
        return LogConcavityCertificate(False, base + gap, False)
    exact = all(map(_is_exact, a)) and (ref is None or all(map(_is_exact, ref)))
    for i in _log2_undecided(a, lo, hi, ref, weights) if exact else range(lo + 1, hi):
        if ref is not None:
            left, right = ref[i] * ref[i], ref[i - 1] * ref[i + 1]
        else:
            left, right = (1, 1) if weights is None else (weights[0][i], weights[1][i])
        lhs, rhs = a[i - 1] * (a[i + 1] * left), a[i] * (a[i] * right)
        if not exact and (rhs < _MIN_NORMAL or lhs == math.inf):  # a side left the normal range
            ls, rs = ((ref[i], ref[i]), (ref[i - 1], ref[i + 1])) if ref is not None else ((left,), (right,))
            if all(_MIN_NORMAL <= c < math.inf for c in (a[i - 1], a[i], a[i + 1], *ls, *rs)):
                lhs, rhs = _scaled_products((a[i - 1], a[i + 1], *ls), (a[i], a[i], *rs))
        # float cells: CERT_REL_TOL slack relative to the larger side
        if not (lhs <= rhs if exact else lhs <= rhs + CERT_REL_TOL * (rhs if rhs > lhs else lhs)):
            return LogConcavityCertificate(False, base + i, True)
    return LogConcavityCertificate(True, None, True)


_MIN_NORMAL = sys.float_info.min


def _scaled_products(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """The products of the factors ``xs`` and of ``ys``, both times ``2**-e``
    for the larger product's binary exponent ``e``: each is formed on
    ``math.frexp`` mantissas, so it is rounded as in the normal range however
    far outside that range it lies."""
    frexps = [[math.frexp(v) for v in vs] for vs in (xs, ys)]
    (x, ex), (y, ey) = ((math.prod(m for m, _ in f), sum(e for _, e in f)) for f in frexps)
    e = max(ex, ey) if x and y else ex if x else ey
    return math.ldexp(x, ex - e), math.ldexp(y, ey - e)


def _pair_scan(mu: DiscreteDist, nu: DiscreteDist, ell: int | None = None):
    """Everything a report reads off a pair, in one walk over the cells
    ``p`` of ``mu`` and ``q`` of ``nu`` zero-padded to their union window
    (integer numerators when both laws are exact, else the stored masses):
    ``(ac, relative, rows, tv)``.  ``ac`` is the first index where ``nu`` has
    mass and ``mu`` has none, or None; ``relative`` is a function of no
    arguments that runs ``_three_term`` on the aligned cells, so only a
    reader that needs the certificate of ``nu`` relative to ``mu`` pays for
    it, and only once ``ac`` is None; ``tv`` is ``tv_distance(mu, nu)``.
    ``rows`` holds, per valid anchor (both target cells positive), in
    increasing order, or only at ``ell`` when given, the gap row ``(ell,
    diff, gap, matched)`` of the cross products ``lhs = p_{l+1} q_l`` and
    ``rhs = q_{l+1} p_l``: ``diff`` is the sign of ``lhs - rhs``, the float
    ``gap`` is ``|lhs - rhs| / max(lhs, rhs)`` and ``matched`` is ``lhs ==
    rhs != 0`` for exact laws, ``gap <= ANCHOR_MATCH_TOL`` for floats; no
    other code reads that tolerance.  An exact gap is one correctly rounded
    int division; float products below the normal range come from
    ``_scaled_products``, so two of them do not round to one subnormal and
    fake a match.  An anchor with a subnormal float cell has no row: such
    cells have too few digits for a slope, and two of them can read a gap of 0.

    The exact TV numerator ``sum_k (q_k d_mu - p_k d_nu)_+`` (``d_mu`` and
    ``d_nu`` the denominators) is ``d_mu sum_S q - d_nu sum_S p`` over the
    cells ``S`` where the term is positive: two big products in all, not two
    per cell.  A cell with ``q_k = 0`` is not in ``S``, one with ``p_k = 0 <
    q_k`` is; where both are positive, ``c_k = l q_k - l p_k - (l d_nu - l
    d_mu)``, ``l = log2``, decides it when ``|c_k|`` exceeds the margin ``(mag
    + 1) 2^-40``, and the two products otherwise, so ``S`` is that of the
    products.  The margin is proven as ``_three_term``'s: a law's numerators
    are at most twice its denominator, so ``mag = log2 max(d_mu, d_nu) + 1``
    bounds the log2 of all four integers; each ``math.log2`` of an int ``x``
    is off by at most ``(log2 x + 2) 2^-52``, ``(4 mag + 8) 2^-52`` for the
    four, and the three subtractions each round by at most ``2^-53`` of a
    result no larger than ``2 mag``, ``3 mag 2^-52`` for the three: under
    ``(mag + 1) 2^-49`` in all, which the margin exceeds 512 times.  A law
    against itself ties at every cell, where the products decide: its TV is
    exactly 0.
    """
    exact = mu.is_exact and nu.is_exact
    start, stop = min(mu.offset, nu.offset), max(mu.end, nu.end)
    (p, d_mu), (q, d_nu) = (mu.integer_masses, nu.integer_masses) if exact else ((mu.masses, 1), (nu.masses, 1))
    pad = lambda d, cells: [0] * (d.offset - start) + list(cells) + [0] * (stop - d.end)
    p, q = pad(mu, p), pad(nu, q)
    at = None if ell is None else ell + 1
    if exact:
        shift = math.log2(d_nu) - math.log2(d_mu)
        margin = (max(math.log2(d_mu), math.log2(d_nu)) + 2) * 2.0**-40
    ac = None
    rows = []
    t, sp, sq, pb, qb = 0.0, 0, 0, 0, 0  # pb, qb: cells k - 1
    for k, (pc, qc) in enumerate(zip(p, q), start):
        if exact:
            if qc and (not pc or (dl := math.log2(qc) - math.log2(pc) - shift) > margin
                       or dl >= -margin and qc * d_mu > pc * d_nu):
                sp += pc
                sq += qc
        elif (d := qc - pc) > 0:
            t += d
        if qc > 0:
            if ac is None and pc == 0:
                ac = k
            if qb > 0 and (at is None or at == k):  # the gap row at k - 1
                fl, fr = lhs, rhs = pc * qb, qc * pb
                if not exact and (lhs < _MIN_NORMAL or rhs < _MIN_NORMAL):  # zero, subnormal or rounded to either
                    # every subnormal cell lands here, since no cell exceeds about 1
                    sub = any(0 < c < _MIN_NORMAL for c in (pc, qb, qc, pb))
                    fl, fr = (None, None) if sub else _scaled_products((pc, qb), (qc, pb))
                if fl is not None:
                    scale = fl if fl > fr else fr
                    gap = math.inf if scale == 0 else abs(fl - fr) / scale
                    matched = lhs == rhs != 0 if exact else gap <= ANCHOR_MATCH_TOL
                    rows.append((k - 1, (fl > fr) - (fl < fr), gap, matched))
        pb, qb = pc, qc
    t, zero = (Fraction(sq * d_mu - sp * d_nu, d_mu * d_nu), Fraction(0)) if exact else (float(t), 0.0)
    lo = max(t - mu.tail_deficit, zero) if mu.tail_deficit else t
    hi = min(t + nu.tail_deficit, zero + 1) if nu.tail_deficit else t
    return ac, lambda: _three_term(q, ref=p, base=start), rows, Interval(lo, hi)


def is_log_concave_relative(nu: DiscreteDist, mu: DiscreteDist) -> LogConcavityCertificate:
    """Certify that ``nu`` is log-concave relative to ``mu``: ``_three_term``
    on the cells ``_pair_scan`` aligns.

    Requires absolute continuity (``nu_k > 0`` implies ``mu_k > 0``); raises
    :class:`AbsoluteContinuityError` at the first index where it fails,
    which is distinct from a concavity failure.  The check is (a) the support
    of ``nu`` is a contiguous interval, (b) at every interior index of that
    interval ``q_{k-1} q_{k+1} p_k^2 <= q_k^2 p_{k-1} p_{k+1}`` in
    cross-multiplied form, exact for rational inputs (on their integer
    numerators: both sides carry the same positive factor ``d_nu^2 d_mu^2``)
    and with relative slack for floats.  Positions where ``nu`` vanishes
    constrain nothing (the log-ratio is minus infinity there, and the
    three-term inequality holds vacuously).
    """
    ac, relative, _, _ = _pair_scan(mu, nu)
    if ac is not None:
        raise AbsoluteContinuityError(f"target has mass at {ac} where the reference has none", {"index": ac})
    return relative()


def is_log_concave(nu: DiscreteDist) -> LogConcavityCertificate:
    """Log-concavity against the counting measure on the distribution's window."""
    return _three_term(nu._cells, base=nu.offset)


def _check_raw_cells(a: list) -> None:
    """Raise unless ``a`` could be a law's cells: not empty, none negative, not all zero."""
    if not a:
        raise InvalidDistributionError("empty sequence")
    if any(v < 0 for v in a):
        raise InvalidDistributionError("negative entries")
    if not any(v > 0 for v in a):
        raise InvalidDistributionError("all entries zero")


def is_ulc(a: Sequence[Scalar], m: int) -> LogConcavityCertificate:
    """Ultra log-concavity of order ``m``: ``a_k / C(m, k)`` is log-concave.

    Checked in ratio form, ``(k+1)(m-k+1) a_{k-1} a_{k+1} <= k(m-k) a_k^2``,
    with interval support inside ``0..m``; no binomial coefficient is formed,
    so the weights stay in float range at any order.
    """
    a = list(a)
    if len(a) > m + 1:
        raise InvalidDistributionError(f"sequence longer than m+1 = {m + 1}")
    _check_raw_cells(a)
    ks = range(len(a))
    return _three_term(a, weights=([(k + 1) * (m - k + 1) for k in ks], [k * (m - k) for k in ks]))


def is_ulc_infinity(a: Sequence[Scalar]) -> LogConcavityCertificate:
    """Ultra log-concavity of infinite order: ``k a_k^2 >= (k+1) a_{k-1} a_{k+1}``.

    Equivalent to log-concavity of ``a_k * k!``, i.e. log-concavity relative
    to any Poisson reference.
    """
    a = list(a)
    _check_raw_cells(a)
    return _three_term(a, weights=(range(1, len(a) + 1), range(len(a))))
