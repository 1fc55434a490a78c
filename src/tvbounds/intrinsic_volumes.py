"""Intrinsic-volume sequences of boxes, cubes, and balls, the induced size
distribution, and Poisson approximation bounds.

``V_j`` measures the j-dimensional content of a convex body; ``V_0 = 1`` for
non-empty bodies and ``W = sum_j V_j`` is the total intrinsic volume.  The
normalized sequence ``V_j / W`` is ultra log-concave (Alexandrov-Fenchel), so
the same ratio-matched Poisson comparison used for independence profiles
applies verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import BoundReport, anchored_report, dominance_verdict
from .distributions import (
    DEFAULT_TAIL_BUDGET,
    DiscreteDist,
    Scalar,
    _is_exact,
    family_poisson,
    is_ulc_infinity,
    make_dist,
    tv_distance,
)
from .errors import InvalidDistributionError, NotApplicableError


@dataclass(frozen=True)
class IVSequence:
    """Intrinsic volumes ``V_0..V_n`` of a convex body in ambient dimension
    ``n``, plus the total ``W``."""

    n: int
    V: tuple

    def __post_init__(self):
        object.__setattr__(self, "V", tuple(self.V))
        if len(self.V) != self.n + 1:
            raise InvalidDistributionError("need exactly n+1 intrinsic volumes")
        if any(v < 0 for v in self.V):
            raise InvalidDistributionError("negative intrinsic volume")
        if not (abs(float(self.V[0]) - 1.0) <= 1e-12):
            raise InvalidDistributionError("V_0 must be 1 for a non-empty body")

    @property
    def W(self) -> Scalar:
        return sum(self.V)

    def scaled(self, s: Scalar) -> "IVSequence":
        """Dilation: ``V_j(sK) = s^j V_j(K)``."""
        return IVSequence(self.n, tuple(v * s**j for j, v in enumerate(self.V)))


@dataclass(frozen=True)
class ProductFactor:
    """One factor ``K_i = scale * body`` of a product body."""

    body: IVSequence
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise InvalidDistributionError("scale must be positive")

    @property
    def v1(self) -> float:
        return float(self.scale) * float(self.body.V[1]) if self.body.n >= 1 else 0.0


def _assert_ulc(iv: IVSequence) -> IVSequence:
    # balls satisfy only the infinite-order form (the disk has pi^2 < 4 pi),
    # which is the hypothesis the Poisson comparison needs; boxes and cubes
    # additionally satisfy the order-n form
    cert = is_ulc_infinity(iv.V)
    if not cert.holds:
        raise InvalidDistributionError(
            f"intrinsic volumes fail infinite-order ULC at {cert.first_violation}"
        )
    return iv


def iv_box(s: Sequence[Scalar]) -> IVSequence:
    """Axis-aligned box with side lengths ``s_i``: ``V_j`` is the j-th
    elementary symmetric function of the sides and ``W = prod (1 + s_i)``."""
    s = list(s)
    if not s:
        raise InvalidDistributionError("at least one side required")
    if any(v <= 0 for v in s):
        raise InvalidDistributionError("sides must be positive")
    exact = all(_is_exact(v) for v in s)
    zero = Fraction(0) if exact else 0.0
    coeff = [Fraction(1) if exact else 1.0]
    for side in s:
        side = Fraction(side) if exact else float(side)
        nxt = [zero] * (len(coeff) + 1)
        for j, c in enumerate(coeff):
            nxt[j] += c
            nxt[j + 1] += c * side
        coeff = nxt
    iv = IVSequence(len(s), tuple(coeff))
    total = math.prod((1 + Fraction(v)) if exact else (1.0 + float(v)) for v in s)
    if exact:
        assert iv.W == total
    elif abs(float(iv.W) - float(total)) > 1e-12 * float(total):
        raise AssertionError("symmetric-function total disagrees with product form")
    return _assert_ulc(iv)


def iv_cube(n: int, s: Scalar) -> IVSequence:
    """Cube of side ``s``: ``V_j = s^j C(n, j)``; the size distribution is
    Binomial(n, s/(1+s))."""
    if n < 0:
        raise InvalidDistributionError("dimension must be >= 0")
    if not s > 0:
        raise InvalidDistributionError("side must be positive")
    if _is_exact(s):
        s = Fraction(s)
    return _assert_ulc(IVSequence(n, tuple(s**j * math.comb(n, j) for j in range(n + 1))))


def ball_volume(m: int) -> float:
    """Volume of the unit ball in dimension ``m``: pi^{m/2} / Gamma(1 + m/2)."""
    return math.pi ** (m / 2.0) / math.gamma(1.0 + m / 2.0)


def iv_ball(n: int) -> IVSequence:
    """Unit Euclidean ball: ``V_j = C(n, j) kappa_n / kappa_{n-j}`` with
    ``kappa_m`` the m-dimensional unit-ball volume."""
    if n < 1:
        raise InvalidDistributionError("dimension must be >= 1")
    kn = ball_volume(n)
    V = tuple(math.comb(n, j) * kn / ball_volume(n - j) for j in range(n + 1))
    return _assert_ulc(IVSequence(n, V))


def z_dist(iv: IVSequence) -> DiscreteDist:
    """Size distribution ``P[Z = j] = V_j / W``."""
    return make_dist(0, iv.V)


def poisson_iv_bound(iv: IVSequence, m: int, tail_budget: float = DEFAULT_TAIL_BUDGET) -> BoundReport:
    """Poisson comparison at the ratio-matched rate
    ``lambda = (m+1) V_{m+1} / V_m``; bound
    ``m! e^lambda V_m / (lambda^m W) - 1`` with the exact oracle TV."""
    if not 0 <= m <= iv.n - 1:
        raise InvalidDistributionError("m must lie in 0..n-1")
    vm, vm1 = float(iv.V[m]), float(iv.V[m + 1])
    if vm <= 0 or vm1 <= 0:
        raise NotApplicableError(f"need V_{m} > 0 and V_{m + 1} > 0")
    lam = (m + 1) * vm1 / vm
    w = float(iv.W)
    bound_mu = math.factorial(m) * math.exp(lam) * vm / (lam**m * w) - 1.0
    gamma = family_poisson(lam, tail_budget)
    nu = z_dist(iv)
    bound_nu = 1.0 - float(gamma.mass(m)) / float(nu.mass(m))
    details = {"lambda": lam, "m": m, "W": w}
    return anchored_report(gamma, nu, m, is_ulc_infinity(iv.V), closed_forms=(bound_nu, bound_mu), details=details)


def product_bounds(factors: Sequence[ProductFactor], mode: str) -> float:
    """Rare-events bounds for the size distribution of a product body
    ``K_1 x ... x K_n`` against Poisson(V_1(K)).

    mode ``rare``:   ``exp{sum V_1(K_i)^2} - 1`` for arbitrary convex factors.
    mode ``scaled``: ``exp{d * theta * sum s_i^2} - 1`` for ``K_i = s_i k_i``
                     with common ambient dimension ``d``, scales in (0, 1] and
                     ``theta = sup_i W(k_i)``.
    mode ``box``:    ``exp{sum s_i^2} - 1`` for segments ``[0, s_i]``; the
                     product body is itself a box, so the exact size
                     distribution is assembled and dominance re-verified.
    """
    factors = list(factors)
    if not factors:
        raise InvalidDistributionError("no factors")
    if mode == "rare":
        return math.expm1(math.fsum(f.v1 ** 2 for f in factors))
    if mode == "scaled":
        dims = {f.body.n for f in factors}
        if len(dims) != 1:
            raise NotApplicableError("scaled mode requires a common ambient dimension")
        if any(f.scale > 1 for f in factors):
            raise NotApplicableError("scaled mode requires scales in (0, 1]")
        d = dims.pop()
        theta = max(float(f.body.W) for f in factors)
        return math.expm1(d * theta * math.fsum(f.scale**2 for f in factors))
    if mode == "box":
        segment = (1, 1)
        for f in factors:
            if f.body.n != 1 or tuple(float(v) for v in f.body.V) != segment:
                raise NotApplicableError("box mode expects unit-segment factors scaled by s_i")
        scales = [float(f.scale) for f in factors]
        bound = math.expm1(math.fsum(s * s for s in scales))
        box = iv_box(scales)
        lam = math.fsum(scales)
        tv = tv_distance(family_poisson(lam), z_dist(box))
        if not dominance_verdict(tv, bound):
            raise AssertionError("box product bound failed its internal dominance check")
        return bound
    raise InvalidDistributionError(f"unknown mode {mode!r}")


def segment_factor(s: Scalar) -> ProductFactor:
    """The segment ``[0, s]`` as a scaled unit segment."""
    return ProductFactor(iv_box((1,)), float(s))
