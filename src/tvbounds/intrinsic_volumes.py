"""Intrinsic-volume sequences of boxes, cubes, and balls, the induced size
distribution, and Poisson approximation bounds.

``V_j`` measures the j-dimensional content of a convex body; ``V_0 = 1`` for
non-empty bodies and ``W = sum_j V_j`` is the total intrinsic volume.  The
normalized sequence ``V_j / W`` is ultra log-concave of infinite order for
every convex body (McMullen 1991), so the same ratio-matched Poisson
comparison used for independence profiles applies verbatim.  The report
certifies it, not the constructors: a float sequence that fails it, a
numerical defect, gives a failed ``hypothesis``, not an input error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bounds import BoundReport, _safe_exp, _safe_expm1, certify, clamp01
from .distributions import (
    DiscreteDist,
    LogConcavityCertificate,
    Scalar,
    _bernoulli_step,
    _is_exact,
    family_poisson,
    is_ulc_infinity,
    make_dist,
)
from .errors import InvalidDistributionError, NotApplicableError


class IVSequence:
    """Intrinsic volumes ``V_0..V_n`` of a convex body in ambient dimension
    ``n``, plus the total ``W``."""

    __slots__ = ("n", "V")

    def __init__(self, n: int, V: Sequence[Scalar]):
        self.n, self.V = n, tuple(V)
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


class ProductFactor:
    """One factor ``K_i = scale * body`` of a product body."""

    __slots__ = ("body", "scale")

    def __init__(self, body: IVSequence, scale: float = 1.0):
        if not scale > 0:
            raise InvalidDistributionError("scale must be positive")
        self.body, self.scale = body, scale

    @property
    def v1(self) -> float:
        return float(self.scale) * float(self.body.V[1]) if self.body.n >= 1 else 0.0


def iv_box(s: Sequence[Scalar]) -> IVSequence:
    """Axis-aligned box with side lengths ``s_i``: ``V_j`` is the j-th
    elementary symmetric function of the sides, built by the Poisson-binomial
    step ``c'_j = c_{j-1} s_i + c_j``, and ``W = prod (1 + s_i)``."""
    s = list(s)
    if not s:
        raise InvalidDistributionError("at least one side required")
    if any(v <= 0 for v in s):
        raise InvalidDistributionError("sides must be positive")
    if not all(_is_exact(v) or v < math.inf for v in s):
        raise InvalidDistributionError("sides must be finite")
    exact = all(_is_exact(v) for v in s)
    coeff = [Fraction(1) if exact else 1.0]
    for side in s:
        coeff = _bernoulli_step(coeff, Fraction(side) if exact else float(side), 1)
    return IVSequence(len(s), tuple(coeff))


def iv_cube(n: int, s: Scalar) -> IVSequence:
    """Cube of side ``s``: ``V_j = s^j C(n, j)``; the size distribution is
    Binomial(n, s/(1+s))."""
    if n < 0:
        raise InvalidDistributionError("dimension must be >= 0")
    if not s > 0:
        raise InvalidDistributionError("side must be positive")
    exact = _is_exact(s)
    if exact:
        s = Fraction(s)
    try:
        V = tuple(s**j * math.comb(n, j) for j in range(n + 1))
        finite = exact or all(map(math.isfinite, V))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidDistributionError(f"intrinsic volumes of the cube in dimension {n} leave the float range")
    return IVSequence(n, V)


def ball_volume(m: int) -> float:
    """Volume of the unit ball in dimension ``m``: pi^{m/2} / Gamma(1 + m/2)."""
    try:
        return math.pi ** (m / 2.0) / math.gamma(1.0 + m / 2.0)
    except OverflowError:
        raise InvalidDistributionError(f"unit-ball volume in dimension {m} leaves the float range") from None


def iv_ball(n: int) -> IVSequence:
    """Unit Euclidean ball: ``V_j = C(n, j) kappa_n / kappa_{n-j}`` with
    ``kappa_m`` the m-dimensional unit-ball volume."""
    if n < 1:
        raise InvalidDistributionError("dimension must be >= 1")
    kn = ball_volume(n)
    V = tuple(math.comb(n, j) * kn / ball_volume(n - j) for j in range(n + 1))
    return IVSequence(n, V)


def z_dist(iv: IVSequence) -> DiscreteDist:
    """Size distribution ``P[Z = j] = V_j / W``."""
    return make_dist(0, iv.V)


def poisson_iv_bound(iv: IVSequence, m: int) -> BoundReport:
    """Poisson comparison at the ratio-matched rate
    ``lambda = (m+1) V_{m+1} / V_m``: the envelope sums at ``m``, the exact
    oracle TV and, as ``stated_bound``, ``m! e^lambda V_m / (lambda^m W) - 1``;
    ``details`` holds the volumes ``V``."""
    if not 0 <= m <= iv.n - 1:
        raise InvalidDistributionError("m must lie in 0..n-1")
    vm, vm1 = float(iv.V[m]), float(iv.V[m + 1])
    if vm <= 0 or vm1 <= 0:
        raise NotApplicableError(f"need V_{m} > 0 and V_{m + 1} > 0")
    lam = (m + 1) * vm1 / vm
    w = float(iv.W)
    stated = _safe_exp(math.lgamma(m + 1) + lam + math.log(vm) - m * math.log(lam) - math.log(w)) - 1.0
    gamma = family_poisson(lam, min_length=iv.n + 1)
    nu = z_dist(iv)
    details = {"lambda": lam, "m": m, "W": w, "V": tuple(map(float, iv.V))}  # a tuple: no spare slots
    # balls satisfy only the infinite-order form (the disk has pi^2 < 4 pi),
    # which is the hypothesis the Poisson comparison needs; boxes and cubes
    # additionally satisfy the order-n form
    return certify(gamma, nu, m, is_ulc_infinity(iv.V), stated_bound=stated, details=details)


def product_bounds(factors: Sequence[ProductFactor], mode: str) -> BoundReport:
    """Rare-events bound for the size distribution of a product body
    ``K_1 x ... x K_n`` against Poisson(V_1(K)): a report with no oracle, the
    closed form as ``stated_bound`` (``inf`` where it leaves the float range),
    its clamp to [0, 1] as ``simplified`` and ``mode`` in ``details``.

    mode ``rare``:   ``exp{sum V_1(K_i)^2} - 1`` for arbitrary convex factors.
    mode ``scaled``: ``exp{d * theta * sum s_i^2} - 1`` for ``K_i = s_i k_i``
                     with common ambient dimension ``d``, scales in (0, 1] and
                     ``theta = sup_i W(k_i)``.
    mode ``box``:    ``exp{sum s_i^2} - 1`` for segments ``[0, s_i]``: mode
                     ``rare``, since a segment's ``V_1`` is ``s_i``.
    """
    factors = list(factors)
    if not factors:
        raise InvalidDistributionError("no factors")
    if mode == "box" and any(f.body.n != 1 or tuple(float(v) for v in f.body.V) != (1, 1) for f in factors):
        raise NotApplicableError("box mode expects unit-segment factors scaled by s_i")
    if mode in ("rare", "box"):  # a segment [0, s] has V_1 = s
        # a V_1 past 1e3 makes the bound inf; capped there, no square and no sum of them overflows
        bound = _safe_expm1(math.fsum(min(f.v1, 1e3) ** 2 for f in factors))
    elif mode == "scaled":
        dims = {f.body.n for f in factors}
        if len(dims) != 1:
            raise NotApplicableError("scaled mode requires a common ambient dimension")
        if any(f.scale > 1 for f in factors):
            raise NotApplicableError("scaled mode requires scales in (0, 1]")
        d = dims.pop()
        theta = max(float(f.body.W) for f in factors)
        bound = _safe_expm1(d * theta * math.fsum(f.scale**2 for f in factors))
    else:
        raise InvalidDistributionError(f"unknown mode {mode!r}")
    cert = LogConcavityCertificate(True, None, True)
    return BoundReport(None, None, float(clamp01(bound)), None, cert, None, bound, {"mode": mode})


def segment_factor(s: Scalar) -> ProductFactor:
    """The segment ``[0, s]`` as a scaled unit segment."""
    return ProductFactor(iv_box((1,)), float(s))
