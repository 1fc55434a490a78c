"""Independence profiles of matroids and their binomial/Poisson approximations.

The profile ``I(0..n)`` counts independent sets by cardinality.  Profiles of
genuine matroids satisfy the strong Mason inequality (ultra log-concavity of
order ``n``), which is exactly the hypothesis needed to compare the induced
distribution against a ratio-matched binomial or Poisson reference.

All profile and bound arithmetic stays in exact integers/rationals until the
final real-valued bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import BoundReport, anchored_report
from .distributions import (
    DEFAULT_TAIL_BUDGET,
    DiscreteDist,
    LogConcavityCertificate,
    family_binomial,
    family_poisson,
    is_ulc,
)
from .errors import InvalidDistributionError, MatroidAxiomError, NotApplicableError

_MAX_GROUND = 20


@dataclass(frozen=True)
class IndepProfile:
    """Counts ``I(k)`` of independent sets of size ``k`` in a matroid on
    ``n`` ground elements.  ``I(0) = 1`` and the positive entries form the
    prefix ``0..rank`` (hereditary property)."""

    n: int
    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) != self.n + 1:
            raise InvalidDistributionError("profile must have n+1 entries")
        if any(c < 0 for c in self.counts):
            raise InvalidDistributionError("negative count")
        if self.counts[0] != 1:
            raise InvalidDistributionError("I(0) must be 1 (the empty set)")
        seen_zero = False
        for c in self.counts:
            if c == 0:
                seen_zero = True
            elif seen_zero:
                raise InvalidDistributionError("profile support must be the prefix 0..rank")

    @property
    def rank(self) -> int:
        return max(k for k, c in enumerate(self.counts) if c > 0)

    @property
    def total(self) -> int:
        """Number of independent sets including the empty set."""
        return sum(self.counts)


@dataclass(frozen=True)
class PartitionMatroidSpec:
    """Categories with sizes ``c_i`` and capacities ``d_i <= c_i``; a set is
    independent when it meets every category in at most ``d_i`` elements."""

    categories: tuple  # ((c_1, d_1), ...)

    def __post_init__(self):
        cats = tuple((int(c), int(d)) for c, d in self.categories)
        object.__setattr__(self, "categories", cats)
        if not cats:
            raise InvalidDistributionError("at least one category required")
        for c, d in cats:
            if c < 1 or not 0 <= d <= c:
                raise InvalidDistributionError(f"invalid category ({c}, {d})")

    @property
    def n(self) -> int:
        return sum(c for c, _ in self.categories)


@dataclass(frozen=True)
class SetSystem:
    """An explicit family of independent sets over ground set ``0..n-1``,
    stored as bitmasks.  Downward closure is checked at construction."""

    n: int
    sets: frozenset

    def __post_init__(self):
        object.__setattr__(self, "sets", frozenset(int(s) for s in self.sets))
        if not 1 <= self.n <= _MAX_GROUND:
            raise InvalidDistributionError(f"ground-set size must be 1..{_MAX_GROUND}")
        if not self.sets:
            raise MatroidAxiomError("independent-set family is empty")
        full = (1 << self.n) - 1
        for s in self.sets:
            if s & ~full:
                raise InvalidDistributionError(f"set {_mask_to_tuple(s)} leaves the ground set")
        for s in self.sets:
            m = s
            while m:
                bit = m & -m
                if (s ^ bit) not in self.sets:
                    raise MatroidAxiomError(
                        "hereditary violation: "
                        f"{_mask_to_tuple(s)} is independent but {_mask_to_tuple(s ^ bit)} is not"
                    )
                m ^= bit


def _mask_to_tuple(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def profile_uniform(n: int, r: int) -> IndepProfile:
    """Uniform matroid: every set of size at most ``r`` is independent."""
    if not 0 <= r <= n:
        raise InvalidDistributionError("rank must lie in 0..n")
    return IndepProfile(n, tuple(math.comb(n, k) if k <= r else 0 for k in range(n + 1)))


def profile_partition(spec: PartitionMatroidSpec) -> IndepProfile:
    """Coefficients of ``prod_i sum_{j<=d_i} C(c_i, j) x^j`` (exact integers)."""
    poly = [1]
    for c, d in spec.categories:
        factor = [math.comb(c, j) for j in range(d + 1)]
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    counts = poly + [0] * (spec.n + 1 - len(poly))
    return IndepProfile(spec.n, tuple(counts))


def profile_from_set_system(sys: SetSystem) -> IndepProfile:
    """Count an explicit family by cardinality after verifying the exchange
    axiom exhaustively (hereditary closure is enforced by ``SetSystem``).

    O(|sets|^2 * n); intended for desk-scale ground sets.
    """
    by_size: dict[int, list[int]] = {}
    for s in sys.sets:
        by_size.setdefault(s.bit_count(), []).append(s)
    sizes = sorted(by_size)
    for small in sizes:
        for big in sizes:
            if big <= small:
                continue
            for s in by_size[small]:
                for t in by_size[big]:
                    m = t & ~s
                    ok = False
                    while m:
                        bit = m & -m
                        if (s | bit) in sys.sets:
                            ok = True
                            break
                        m ^= bit
                    if not ok:
                        raise MatroidAxiomError(
                            "exchange violation: no element of "
                            f"{_mask_to_tuple(t)} extends {_mask_to_tuple(s)}"
                        )
    counts = [0] * (sys.n + 1)
    for s in sys.sets:
        counts[s.bit_count()] += 1
    return IndepProfile(sys.n, tuple(counts))


def mason_check(prof: IndepProfile) -> LogConcavityCertificate:
    """Strong Mason inequality in exact integers:
    ``k (n-k) I(k)^2 >= (k+1)(n-k+1) I(k-1) I(k+1)`` for ``1 <= k <= n-1``.

    This is ultra log-concavity of order ``n`` of the profile, checked by
    ``is_ulc``; genuine matroid profiles always pass, so a violation
    identifies a non-matroid count vector.
    """
    return is_ulc(prof.counts, prof.n)


def nu_distribution(prof: IndepProfile, include_zero: bool = False) -> DiscreteDist:
    """The size distribution of a uniformly random independent set.

    ``include_zero=False`` normalizes over sizes ``1..n`` (the empty set is
    excluded, the default convention used by the approximation bounds);
    ``True`` normalizes over ``0..n``.  Either way the window is ``0..n``.
    """
    start = 0 if include_zero else 1
    total = sum(prof.counts[start:])
    if total == 0:
        raise InvalidDistributionError("profile has no sets of size >= 1")
    masses = [Fraction(0)] * (prof.n + 1)
    for k in range(start, prof.n + 1):
        masses[k] = Fraction(prof.counts[k], total)
    return DiscreteDist(0, tuple(masses), Fraction(0))


def _profile_bound_report(
    nu: DiscreteDist,
    target: DiscreteDist,
    m: int,
    bound_mu_side,
    bound_nu_side,
    cert: LogConcavityCertificate,
    details: dict,
) -> BoundReport:
    return anchored_report(target, nu, m, cert, closed_forms=(bound_nu_side, bound_mu_side), details=details)


def matroid_binomial_bound(prof: IndepProfile, m: int, include_zero: bool = False) -> BoundReport:
    """Binomial approximation with the ratio-matched success probability
    ``p = (1 + ((n-m)/(m+1)) I(m)/I(m+1))^{-1}``.

    Reports the pair ``nu_m / gamma_m - 1`` and ``1 - gamma_m / nu_m``
    (reference mass ``gamma_m`` at the anchor), the exact oracle TV, and the
    dominance verdict.
    """
    n, c = prof.n, prof.counts
    if not 0 <= m <= n - 1:
        raise InvalidDistributionError("m must lie in 0..n-1")
    if c[m + 1] == 0:
        raise NotApplicableError(f"I({m + 1}) = 0, no ratio to match")
    p = 1 / (1 + Fraction(n - m, m + 1) * Fraction(c[m], c[m + 1]))
    gamma = family_binomial(n, p)
    nu = nu_distribution(prof, include_zero)
    num = Fraction(nu.mass(m))
    den = Fraction(gamma.mass(m))
    if num > 0:
        bound_mu = num / den - 1
        bound_nu = 1 - den / num
    else:
        bound_mu = bound_nu = None
    cert = is_ulc(c, n)
    details = {"p": float(p), "m": m, "include_zero": include_zero, "profile": list(c)}
    return _profile_bound_report(nu, gamma, m, bound_mu, bound_nu, cert, details)


def matroid_poisson_bound(
    prof: IndepProfile,
    m: int,
    include_zero: bool = False,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> BoundReport:
    """Poisson approximation with the ratio-matched rate
    ``lambda = (m+1) I(m+1)/I(m)`` and bound
    ``m! e^lambda I(m) / (lambda^m sum_j I(j)) - 1``."""
    n, c = prof.n, prof.counts
    if not 0 <= m <= n - 1:
        raise InvalidDistributionError("m must lie in 0..n-1")
    if c[m] == 0 or c[m + 1] == 0:
        raise NotApplicableError(f"need I({m}) > 0 and I({m + 1}) > 0")
    lam = Fraction(m + 1) * Fraction(c[m + 1], c[m])
    gamma = family_poisson(float(lam), tail_budget)
    nu = nu_distribution(prof, include_zero)
    total = sum(c) if include_zero else sum(c[1:])
    bound_mu = math.factorial(m) * math.exp(float(lam)) * c[m] / (float(lam) ** m * total) - 1
    bound_nu = None
    if nu.mass(m) > 0:
        # reciprocal companion computed from the same exact atoms
        bound_nu = 1 - float(gamma.mass(m)) / float(nu.mass(m))
    cert = is_ulc(c, n)
    details = {"lambda": float(lam), "m": m, "include_zero": include_zero, "profile": list(c)}
    return _profile_bound_report(nu, gamma, m, bound_mu, bound_nu, cert, details)


def partition_half_bound(spec: PartitionMatroidSpec):
    """Bound against Binomial(n, 1/2) for partition matroids whose categories
    all have size and capacity at least two.

    With ``D`` the number of dependent subsets (the empty set counts as
    independent), the bound is ``(1 - D/2^n)^{-1} - 1``, exact rational.
    """
    if min(min(c, d) for c, d in spec.categories) < 2:
        raise NotApplicableError("every category needs size >= 2 and capacity >= 2")
    prof = profile_partition(spec)
    n = spec.n
    d_missing = (1 << n) - prof.total
    return Fraction(1 << n, (1 << n) - d_missing) - 1


def uniform_rare_bound(n: int, k: int, eps: float) -> float:
    """Closed-form tail bound ``2^{2-(1-eps) n}`` for nearly-free uniform
    matroids, valid when ``k >= n - eps*n/log2(n) + 1`` and ``(1-eps) n >= 1``."""
    if not 0 < eps < 1:
        raise InvalidDistributionError("eps must lie in (0, 1)")
    if n < 2 or not 0 <= k <= n:
        raise InvalidDistributionError("need n >= 2 and 0 <= k <= n")
    if k < n - eps * n / math.log2(n) + 1:
        raise NotApplicableError("rank threshold k >= n - eps*n/log2(n) + 1 not met")
    if (1 - eps) * n < 1:
        raise NotApplicableError("(1 - eps) n >= 1 required")
    return 2.0 ** (2.0 - (1.0 - eps) * n)


def enumerate_partition_profile(spec: PartitionMatroidSpec) -> IndepProfile:
    """Exhaustive subset enumeration (independent oracle for the generating
    polynomial); exponential in ``n``, desk scale only."""
    n = spec.n
    if n > _MAX_GROUND:
        raise InvalidDistributionError(f"enumeration capped at {_MAX_GROUND} ground elements")
    cat_masks = []
    base = 0
    for c, _ in spec.categories:
        cat_masks.append(((1 << c) - 1) << base)
        base += c
    caps = [d for _, d in spec.categories]
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        if all((mask & cm).bit_count() <= d for cm, d in zip(cat_masks, caps)):
            counts[mask.bit_count()] += 1
    return IndepProfile(n, tuple(counts))
