"""Discrete distributions on contiguous integer windows, exact total variation,
and log-concavity certificates.

A :class:`DiscreteDist` stores masses on the window ``offset .. offset+L-1``.
Families with infinite support (Poisson, geometric) are truncated at a caller
supplied tail budget and the mass left out is recorded in ``tail_deficit``, so
that every distance computed downstream can be reported as an honest interval
instead of a point estimate.

Arithmetic is dual-path.  Masses built from ``int``/``Fraction`` inputs stay
exact rational (used for oracles and certificates); anything constructed from
floats stays float.  Every certificate is one kernel, ``_three_term``:
interval support of ``a`` and ``a[i-1] a[i+1] L_i <= a[i]^2 R_i`` at each
interior ``i``, cross-multiplied so that no logarithm of zero misfires, exact
for rational cells and with relative slack ``CERT_REL_TOL`` for floats.  The
weights ``(L_i, R_i)`` are ``(p_i^2, p_{i-1} p_{i+1})`` relative to a
reference ``p``, ``(1, 1)`` for the counting measure, ``((k+1)(m-k+1),
k(m-k))`` for ultra log-concavity of order ``m`` and ``(k+1, k)`` for
infinite order.  The exact kernels (validation, certificates, TV, anchor gaps
and envelope sums) never add or multiply ``Fraction`` cells: they run on
``DiscreteDist.integer_masses``, the masses as integer numerators over their
least common denominator, cached per instance, and build one ``Fraction`` per
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence, Union

from .errors import AbsoluteContinuityError, InvalidDistributionError

Scalar = Union[int, float, Fraction]

#: relative slack used by float-mode certificates; exact mode uses none
CERT_REL_TOL = 1e-12

#: default truncation budget for infinite-support families
DEFAULT_TAIL_BUDGET = 1e-12

# construction-time guard; the 1e-12 normalization invariant is asserted by
# the test suite on every family, this is a looser safety net
_NORMALIZATION_GUARD = 1e-9


def _is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class Interval(NamedTuple):
    """A closed interval ``[lo, hi]`` bracketing a real quantity."""

    lo: Scalar
    hi: Scalar

    @property
    def width(self) -> Scalar:
        return self.hi - self.lo

    def to_json(self) -> list:
        return [float(self.lo), float(self.hi)]


@dataclass(frozen=True)
class LogConcavityCertificate:
    """Outcome of a (relative) log-concavity check.

    ``holds`` implies the support is a contiguous interval and no violating
    index was found; otherwise ``first_violation`` names the first offending
    position (a support gap or a failed three-term inequality).
    """

    holds: bool
    first_violation: int | None
    support_is_interval: bool

    def __post_init__(self):
        if self.holds and (self.first_violation is not None or not self.support_is_interval):
            raise ValueError("inconsistent certificate")

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "first_violation": self.first_violation,
            "support_is_interval": self.support_is_interval,
        }


@dataclass(frozen=True)
class DiscreteDist:
    """Masses on the integer window ``offset .. offset+len(masses)-1``.

    ``tail_deficit`` is the (non-negative) probability mass lost to truncating
    an infinite-support family; it is zero for finite families.
    """

    offset: int
    masses: tuple
    tail_deficit: Scalar = 0
    #: every mass and the deficit are ``int``/``Fraction``; set at construction
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(self.masses))
        if not self.masses:
            raise InvalidDistributionError("empty mass sequence")
        exact = _is_exact(self.tail_deficit) and all(map(_is_exact, self.masses))
        object.__setattr__(self, "is_exact", exact)
        cells, den = _kernel_cells(self, exact)
        if any(m < 0 for m in cells):
            raise InvalidDistributionError("negative mass")
        if not any(m > 0 for m in cells):
            raise InvalidDistributionError("all masses zero")
        if self.tail_deficit < 0:
            raise InvalidDistributionError("negative tail deficit")
        total = (Fraction(sum(cells), den) if exact else sum(cells)) + self.tail_deficit
        if abs(total - 1) > _NORMALIZATION_GUARD:
            raise InvalidDistributionError(f"masses + tail_deficit sum to {float(total)!r}, not 1")

    # -- window geometry ----------------------------------------------------

    @property
    def end(self) -> int:
        """One past the last window index."""
        return self.offset + len(self.masses)

    @property
    def support_min(self) -> int:
        return self.offset + next(i for i, m in enumerate(self.masses) if m > 0)

    @property
    def support_max(self) -> int:
        return self.offset + max(i for i, m in enumerate(self.masses) if m > 0)

    def mass(self, k: int) -> Scalar:
        """Mass at absolute index ``k`` (zero outside the window)."""
        i = k - self.offset
        if 0 <= i < len(self.masses):
            return self.masses[i]
        return 0

    @cached_property
    def integer_masses(self) -> tuple[tuple[int, ...], int]:
        """``(numerators, denominator)``: the exact masses as integers over
        their least common denominator.  Only meaningful when ``is_exact``."""
        den = math.lcm(*(m.denominator for m in self.masses))
        return tuple(m.numerator * (den // m.denominator) for m in self.masses), den

    def shifted(self, d: int) -> "DiscreteDist":
        return DiscreteDist(self.offset + d, self.masses, self.tail_deficit)

    def to_float(self) -> "DiscreteDist":
        return DiscreteDist(self.offset, tuple(float(m) for m in self.masses), float(self.tail_deficit))

    # -- serialization (CLI wire format) ------------------------------------

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "masses": [float(m) for m in self.masses],
            "tail_deficit": float(self.tail_deficit),
        }

    @classmethod
    def from_json(cls, d: dict) -> "DiscreteDist":
        return cls(int(d["offset"]), tuple(float(m) for m in d["masses"]), float(d.get("tail_deficit", 0.0)))


def make_dist(offset: int, masses: Sequence[Scalar]) -> DiscreteDist:
    """Normalize a non-negative mass sequence into a distribution.

    Rational inputs are normalized exactly; float inputs in binary floating
    point.  The result has ``tail_deficit = 0``.
    """
    masses = list(masses)
    if not masses:
        raise InvalidDistributionError("empty mass sequence")
    if any(m < 0 for m in masses):
        raise InvalidDistributionError("negative mass")
    total = sum(masses)
    if total <= 0:
        raise InvalidDistributionError("all masses zero")
    if all(_is_exact(m) for m in masses):
        total = Fraction(total)
        return DiscreteDist(offset, tuple(Fraction(m) / total for m in masses), Fraction(0))
    return DiscreteDist(offset, tuple(float(m) / total for m in masses), 0.0)


def point_mass(k: int) -> DiscreteDist:
    return DiscreteDist(k, (Fraction(1),), Fraction(0))


def uniform_reference(offset: int, length: int) -> DiscreteDist:
    """Uniform distribution on a window; stands in for the counting measure.

    Certificates are invariant under rescaling the reference, so relative
    log-concavity against this uniform window is plain log-concavity of the
    target sequence.
    """
    if length < 1:
        raise InvalidDistributionError("window length must be >= 1")
    return DiscreteDist(offset, (Fraction(1, length),) * length, Fraction(0))


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def family_bernoulli(p: Scalar) -> DiscreteDist:
    if not 0 <= p <= 1:
        raise InvalidDistributionError("Bernoulli p must lie in [0, 1]")
    if _is_exact(p):
        p = Fraction(p)
        return DiscreteDist(0, (1 - p, p), Fraction(0))
    return DiscreteDist(0, (1.0 - float(p), float(p)), 0.0)


def family_binomial(n: int, p: Scalar) -> DiscreteDist:
    if n < 0:
        raise InvalidDistributionError("binomial n must be >= 0")
    if not 0 <= p <= 1:
        raise InvalidDistributionError("binomial p must lie in [0, 1]")
    if _is_exact(p):
        p = Fraction(p)
        q = 1 - p
        masses = tuple(math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1))
        return DiscreteDist(0, masses, Fraction(0))
    p = float(p)
    if p in (0.0, 1.0):
        masses = [0.0] * (n + 1)
        masses[0 if p == 0.0 else n] = 1.0
        return DiscreteDist(0, tuple(masses), 0.0)
    if n <= 64:
        masses = tuple(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1))
    else:
        # log-space to avoid overflow of the binomial coefficients
        lp, lq = math.log(p), math.log1p(-p)
        lg = math.lgamma(n + 1)
        masses = tuple(
            math.exp(lg - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)
            for k in range(n + 1)
        )
    return DiscreteDist(0, masses, 0.0)


def family_poisson(lam: float, tail_budget: float = DEFAULT_TAIL_BUDGET) -> DiscreteDist:
    """Poisson(``lam``) truncated at the smallest window with tail <= budget."""
    if lam < 0:
        raise InvalidDistributionError("Poisson rate must be >= 0")
    if not 0 < tail_budget < 1:
        raise InvalidDistributionError("tail budget must lie in (0, 1)")
    if lam == 0:
        return point_mass(0)
    lam = float(lam)
    if lam > 700:
        raise InvalidDistributionError("Poisson rate too large for float truncation")
    term = math.exp(-lam)
    masses = [term]
    cum = term
    k = 0
    while (1.0 - cum > tail_budget or k < lam) and k < 100_000:
        k += 1
        term *= lam / k
        masses.append(term)
        cum += term
    return DiscreteDist(0, tuple(masses), max(1.0 - cum, 0.0))


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
    if not 0 < tail_budget < 1:
        raise InvalidDistributionError("tail budget must lie in (0, 1)")
    if theta == 1:
        if min_length > 1:
            masses = [Fraction(0)] * min_length
            masses[0] = Fraction(1)
            return DiscreteDist(0, tuple(masses), Fraction(0))
        return point_mass(0)
    exact = _is_exact(theta)
    theta = Fraction(theta) if exact else float(theta)
    r = 1 - theta
    # residual after masses 0..K is r^(K+1)
    need = math.ceil(math.log(tail_budget) / math.log(float(r)))
    length = max(need, min_length, 1)
    masses = []
    term = theta
    for _ in range(length):
        masses.append(term)
        term = term * r
    deficit = r ** length if exact else float(r) ** length
    return DiscreteDist(0, tuple(masses), deficit)


# ---------------------------------------------------------------------------
# distances and convolution
# ---------------------------------------------------------------------------


def _union_window(x: DiscreteDist, y: DiscreteDist) -> range:
    return range(min(x.offset, y.offset), max(x.end, y.end))


def _kernel_cells(d: DiscreteDist, exact: bool) -> tuple[Sequence[Scalar], int]:
    """The cells a kernel computes on and the denominator they share: the
    integer numerators when ``exact``, else the stored masses over 1."""
    return d.integer_masses if exact else (d.masses, 1)


def _aligned(d: DiscreteDist, window: range, exact: bool) -> list:
    """``_kernel_cells(d, exact)[0]`` zero-padded to ``window`` (a superset of
    ``d``'s own window)."""
    cells = _kernel_cells(d, exact)[0]
    return [0] * (d.offset - window.start) + list(cells) + [0] * (window.stop - d.end)


def tv_distance(mu: DiscreteDist, nu: DiscreteDist) -> Interval:
    """Total variation as an interval absorbing both truncation deficits.

    The point value is ``sum_k (nu_k - mu_k)_+`` over the union window; the
    true distance of the untruncated laws lies within
    ``[t, t + mu.tail_deficit + nu.tail_deficit]``.  Exact laws sum
    ``(N_k d_mu - M_k d_nu)_+`` over their integer numerators ``N`` (of
    ``nu``) and ``M`` (of ``mu``) and divide once by ``d_mu d_nu``.
    """
    exact = mu.is_exact and nu.is_exact
    window = _union_window(mu, nu)
    (_, d_mu), (_, d_nu) = _kernel_cells(mu, exact), _kernel_cells(nu, exact)
    t = 0 if exact else 0.0
    for m, n in zip(_aligned(mu, window, exact), _aligned(nu, window, exact)):
        d = n * d_mu - m * d_nu
        if d > 0:
            t += d
    slack = mu.tail_deficit + nu.tail_deficit
    if exact:
        t = Fraction(t, d_mu * d_nu)
    else:
        t, slack = float(t), float(slack)
    return Interval(t, t + slack if slack else t)


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


def convolve(x: DiscreteDist, y: DiscreteDist) -> DiscreteDist:
    """Exact discrete convolution; offsets sum, tail deficits add."""
    a, b = x.masses, y.masses
    exact = x.is_exact and y.is_exact
    if not exact:
        a = tuple(float(v) for v in a)
        b = tuple(float(v) for v in b)
    out = []
    for k in range(len(a) + len(b) - 1):
        lo = max(0, k - len(b) + 1)
        hi = min(k, len(a) - 1)
        cells = (a[i] * b[k - i] for i in range(lo, hi + 1))
        out.append(sum(cells) if exact else _neumaier_sum(cells))
    deficit = x.tail_deficit + y.tail_deficit
    if not exact:
        deficit = float(deficit)
    return DiscreteDist(x.offset + y.offset, tuple(out), deficit)


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


def _leq_with_slack(lhs, rhs, exact: bool) -> bool:
    """``lhs <= rhs``: exactly when ``exact``, else with ``CERT_REL_TOL``
    slack relative to the larger side."""
    if exact:
        return lhs <= rhs
    scale = max(abs(lhs), abs(rhs))
    return lhs <= rhs + CERT_REL_TOL * scale


def _three_term(a: Sequence[Scalar], exact: bool, weights=None, base: int = 0) -> LogConcavityCertificate:
    """The one log-concavity kernel: interval support of ``a``, then
    ``a[i-1] a[i+1] L <= a[i]^2 R`` at each interior ``i``, with ``(L, R) =
    weights(i)`` or ``(1, 1)`` without weights.  Indices are reported as
    ``base + i``."""
    if not a:
        raise InvalidDistributionError("empty sequence")
    if any(v < 0 for v in a):
        raise InvalidDistributionError("negative entries")
    if not any(v > 0 for v in a):
        raise InvalidDistributionError("all entries zero")
    ok, gap, lo, hi = _support_interval(a, 0)
    if not ok:
        return LogConcavityCertificate(False, base + gap, False)
    for i in range(lo + 1, hi):
        left, right = (1, 1) if weights is None else weights(i)
        if not _leq_with_slack(a[i - 1] * a[i + 1] * left, a[i] * a[i] * right, exact):
            return LogConcavityCertificate(False, base + i, True)
    return LogConcavityCertificate(True, None, True)


def is_log_concave_relative(nu: DiscreteDist, mu: DiscreteDist) -> LogConcavityCertificate:
    """Certify that ``nu`` is log-concave relative to ``mu``.

    Requires absolute continuity (``nu_k > 0`` implies ``mu_k > 0``); raises
    :class:`AbsoluteContinuityError` otherwise, which is distinct from a
    concavity failure.  The check is (a) the support of ``nu`` is a contiguous
    interval, (b) at every interior index of that interval
    ``q_{k-1} q_{k+1} p_k^2 <= q_k^2 p_{k-1} p_{k+1}`` in cross-multiplied
    form, exact for rational inputs (on their integer numerators: both sides
    carry the same positive factor ``d_nu^2 d_mu^2``) and with relative slack
    for floats.  Positions where ``nu`` vanishes constrain nothing (the
    log-ratio is minus infinity there, and the three-term inequality holds
    vacuously).
    """
    exact = mu.is_exact and nu.is_exact
    window = _union_window(mu, nu)
    p, q = _aligned(mu, window, exact), _aligned(nu, window, exact)
    for i, (pk, qk) in enumerate(zip(p, q)):
        if qk > 0 and pk == 0:
            k = window.start + i
            raise AbsoluteContinuityError(f"target has mass at {k} where the reference has none", {"index": k})
    return _three_term(q, exact, lambda i: (p[i] * p[i], p[i - 1] * p[i + 1]), window.start)


def is_log_concave(nu: DiscreteDist) -> LogConcavityCertificate:
    """Log-concavity against the counting measure on the distribution's window."""
    return _three_term(_kernel_cells(nu, nu.is_exact)[0], nu.is_exact, base=nu.offset)


def is_ulc(a: Sequence[Scalar], m: int) -> LogConcavityCertificate:
    """Ultra log-concavity of order ``m``: ``a_k / C(m, k)`` is log-concave.

    Checked in ratio form, ``(k+1)(m-k+1) a_{k-1} a_{k+1} <= k(m-k) a_k^2``,
    with interval support inside ``0..m``; no binomial coefficient is formed,
    so the weights stay in float range at any order.
    """
    a = list(a)
    if len(a) > m + 1:
        raise InvalidDistributionError(f"sequence longer than m+1 = {m + 1}")
    return _three_term(a, all(map(_is_exact, a)), lambda k: ((k + 1) * (m - k + 1), k * (m - k)))


def is_ulc_infinity(a: Sequence[Scalar]) -> LogConcavityCertificate:
    """Ultra log-concavity of infinite order: ``k a_k^2 >= (k+1) a_{k-1} a_{k+1}``.

    Equivalent to log-concavity of ``a_k * k!``, i.e. log-concavity relative
    to any Poisson reference.
    """
    a = list(a)
    return _three_term(a, all(map(_is_exact, a)), lambda k: (k + 1, k))
