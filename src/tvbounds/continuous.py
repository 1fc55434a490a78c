"""Continuous regime: exponential approximation in Kolmogorov distance, the
score-anchored total-variation bound, and Gamma-vs-Gamma comparisons with
exact CDF oracles.

Gamma laws are rate-parameterized throughout: ``f(x) = lam^kap x^{kap-1}
e^{-lam x} / Gamma(kap)``, so the score (log-density derivative) at ``z`` is
``(kap - 1)/z - lam``.  Matching scores at a point plays the role the matched
mass ratio plays on the integers.

The numerics are pure Python and import nothing outside the standard
library: a series or continued fraction for the Gamma CDF, bisection
(``_bisect``) down to adjacent floats on a sign-changing bracket for every
density crossing (the Kolmogorov oracle reads ``|F - F_exp|`` at its one
crossing, no grid), and closed forms for the ``expquad`` normalizer and
CDF and for the envelope integrals of ``tv_bound_continuous``, each a Gamma
mass of an exponentially tilted law.  No quadrature runs anywhere.
"""

from __future__ import annotations

import math
from typing import Callable

from .bounds import BoundReport, _safe_exp, _safe_expm1, clamp01
from .distributions import Interval, LogConcavityCertificate, _MIN_NORMAL, _log_gamma_prefactor
from .errors import InvalidDistributionError, NotApplicableError

_PROBE_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
_TINY = 1e-280  # below it a density crossing is solved, and CDFs taken, in log x
_LOG_TINY = math.log(_TINY)
_EPS = math.ulp(1.0)
_LENTZ_TINY = 1e-300  # keeps the continued fraction's denominators off zero
# near x = a the series and the continued fraction take about 10 sqrt(a) terms: this many
# reach a = 1e10, where one rounding of x moves the CDF by 4e-12, inside the oracle's 1e-10 pad
_MAX_TERMS = 2**20


class GammaParams:
    """Shape ``kappa`` and rate ``lam`` of a Gamma law; compares and hashes
    by value."""

    __slots__ = ("kappa", "lam")

    def __init__(self, kappa: float, lam: float):
        if not (0 < kappa < math.inf and 0 < lam < math.inf):
            raise InvalidDistributionError("shape and rate must be positive and finite")
        self.kappa, self.lam = kappa, lam

    def _key(self) -> tuple:
        return self.kappa, self.lam

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class DensityModel:
    """A density on ``[0, inf)`` with its derivative, its CDF and a
    log-concavity attestation.

    Evaluators must be pure.  Light grid checks run at construction
    (non-negativity; CDF monotone with limits approaching 0 and 1); they are a
    spot check, not a proof.
    """

    __slots__ = ("f", "fprime", "cdf", "log_concave", "name")

    def __init__(self, f: Callable[[float], float], fprime: Callable[[float], float],
                 cdf: Callable[[float], float], log_concave: bool, name: str):
        for x in _PROBE_GRID:
            if f(x) < -1e-12:
                raise InvalidDistributionError(f"density negative at {x}")
        vals = [cdf(x) for x in _PROBE_GRID]
        if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
            raise InvalidDistributionError("cdf is not nondecreasing")
        if vals[0] < -1e-9 or vals[-1] > 1 + 1e-9:
            raise InvalidDistributionError("cdf leaves [0, 1]")
        self.f, self.fprime, self.cdf, self.log_concave, self.name = f, fprime, cdf, log_concave, name


# ---------------------------------------------------------------------------
# Gamma law
# ---------------------------------------------------------------------------


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)``.

    For ``x - a < 1`` the power series ``sum_n x^n / (a (a+1) ... (a+n))``;
    otherwise ``1 - Q`` with ``Q`` from Legendre's continued fraction, run by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.2).  Both
    are scaled by ``x^a e^{-x} / Gamma(a)``, taken in log space.  Exactly 0 at
    ``x = 0`` and 1 at ``x = inf``.  Against 40-digit mpmath, relative error
    stayed below 2.4e-13 on 2,000 random points with ``a`` in [0.01, 1000]
    and ``x/a`` in [0.01, 10] (values below the float range come back as 0),
    1e-14 on 2,000 with ``x/a`` in [0.9, 1.1], and 1.6e-13 on 300 with ``a``
    in [1e3, 1e6] and ``x`` within three standard deviations of ``a``; at
    ``a = 1`` it stays within 3.4e-15 of ``-expm1(-x)`` on [1e-8, 300].
    Both loops take ``O(sqrt(a))`` terms near ``x = a``; past ``_MAX_TERMS``
    the value is not applicable (``NotApplicableError``).
    """
    if not a > 0:
        raise InvalidDistributionError("shape must be positive")
    if not x >= 0:
        raise InvalidDistributionError("argument must be >= 0")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    log_prefactor, s, upper = _incomplete_gamma(a, x)
    value = math.exp(log_prefactor) * s
    return 1.0 - value if upper else value


def _incomplete_gamma(a: float, x: float) -> tuple[float, float, bool]:
    """``(log g, s, upper)`` of ``regularized_gamma_p``: ``g s`` is ``Q(a, x)``
    from the continued fraction if ``upper``, else ``P(a, x)`` from the series."""
    log_prefactor = _log_gamma_prefactor(a, x)
    if x - a < 1.0:
        # with M = _MAX_TERMS: as x/(a + j) < 1, after m <= M terms the total is at most (m + 1)/a and
        # the last term at least (x/(a + M))^M / a, so unless this holds the stop fails at every m
        # (the 2 covers the rounding) and the loop is not run
        if _MAX_TERMS * (math.log(x) - math.log(a + _MAX_TERMS)) <= math.log(2.0 * _EPS * (_MAX_TERMS + 1)):
            term = total = 1.0 / a
            n = a
            for _ in range(_MAX_TERMS):
                n += 1.0
                term *= x / n
                total += term
                if term <= _EPS * total:
                    return log_prefactor, total, False
        raise NotApplicableError(f"P({a:.6g}, {x:.6g}) needs more than {_MAX_TERMS} series terms")
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    q = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        q *= step
        if abs(step - 1.0) <= _EPS:
            return log_prefactor, q, True
    raise NotApplicableError(f"Q({a:.6g}, {x:.6g}) needs more than {_MAX_TERMS} continued-fraction terms")


def _log_gamma_mass(a: float, x: float, upper: bool) -> float:
    """``log Q(a, x)`` if ``upper``, else ``log P(a, x)``; the one that
    ``_incomplete_gamma`` gives directly keeps its relative accuracy."""
    if x == 0.0 or x == math.inf:
        return 0.0 if upper == (x == 0.0) else -math.inf
    log_prefactor, s, direct = _incomplete_gamma(a, x)
    if direct == upper:
        return log_prefactor + math.log(s)
    complement = math.exp(log_prefactor) * s
    return math.log1p(-complement) if complement < 1.0 else -math.inf


def gamma_cdf(g: GammaParams, x: float) -> float:
    """Gamma CDF at ``x >= 0`` (regularized ``P(kappa, lam x)``)."""
    if x < 0:
        raise InvalidDistributionError("x must be >= 0")
    return regularized_gamma_p(g.kappa, g.lam * x)


def _log_scaled_density(g: GammaParams, x: float) -> float:
    """``log(x f_g(x))`` at ``x > 0``, ``_log_gamma_prefactor(kappa, lam x)``;
    below ``_TINY``, where ``e^{-lam x}`` is 1 and ``lam x`` may underflow,
    ``log(lam x)`` is taken as ``log lam + log x``."""
    y = g.lam * x
    if y < _TINY:
        return g.kappa * (math.log(g.lam) + math.log(x)) - math.lgamma(g.kappa)
    return _log_gamma_prefactor(g.kappa, y)


def _log_density_gap(a: GammaParams, b: GammaParams, x: float) -> float:
    """``log f_a(x) - log f_b(x)``, the difference of the two prefactors (the
    ``log x`` cancels), which keeps its digits at large shapes."""
    return _log_scaled_density(a, x) - _log_scaled_density(b, x)


def gamma_density_model(g: GammaParams) -> DensityModel:
    """Density model for a Gamma law (score ``(kappa-1)/x - lam``)."""
    kap, lam = g.kappa, g.lam

    def f(x: float) -> float:
        if x == 0:
            return lam if kap == 1 else 0.0 if kap > 1 else math.inf
        return math.exp(_log_scaled_density(g, x) - math.log(x))

    def fprime(x: float) -> float:
        if x == 0:
            return -lam * lam if kap == 1 else lam * lam if kap == 2 else math.nan
        return f(x) * ((kap - 1.0) / x - lam)

    return DensityModel(
        f, fprime, cdf=lambda x: gamma_cdf(g, x),
        log_concave=kap >= 1, name=f"gamma({kap},{lam})",
    )


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def _bisect(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of ``f`` in the sign-changing bracket ``a < b``: the bracket is
    halved until its ends are adjacent floats, and the end where ``|f|`` is
    smaller is returned, or an end where ``f`` is 0 as soon as one is met."""
    fa, fb = f(a), f(b)
    while fa and fb:
        m = a + (b - a) / 2
        if m == a or m == b:
            return a if abs(fa) <= abs(fb) else b
        fm = f(m)
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if fa == 0 else b


# ---------------------------------------------------------------------------
# exponential approximation (Kolmogorov distance)
# ---------------------------------------------------------------------------


def exp_kolmogorov_bound(model: DensityModel) -> BoundReport:
    """Kolmogorov-distance bound against the exponential law whose rate is the
    density's score at zero.

    Requires ``f(0) > 0`` finite, ``f'(0) < 0`` normal and a log-concavity
    attestation; the rate is ``r = -f'(0)/f(0)`` and the bound ``f(0)/r - 1``.
    ``log f(x) + r x`` is concave with zero slope at 0, so ``f(x) / (r e^{-r
    x})`` falls from ``f(0)/r``: at most 1, the laws are one and the distance
    0; above 1, the densities cross once, where ``|F - F_exp|`` peaks.  The
    oracle is ``|F - F_exp|`` there, at the root ``_bisect`` finds on a
    bracket doubled from ``1/r``.
    """
    if not model.log_concave:
        raise NotApplicableError("density is not attested log-concave")
    f0 = model.f(0.0)
    fp0 = model.fprime(0.0)
    if not (math.isfinite(f0) and f0 > 0):
        raise NotApplicableError("need finite positive density at 0")
    if not (math.isfinite(fp0) and fp0 <= -_MIN_NORMAL):
        # a subnormal derivative carries too few digits for the rate
        raise NotApplicableError("need finite negative density derivative at 0, below -2.2e-308")
    rate = -fp0 / f0
    raw = f0 / rate - 1.0
    best = 0.0
    if f0 > rate:
        dens_gap = lambda x: model.f(x) - rate * math.exp(-rate * x)
        a, b = 0.0, 1.0 / rate
        while dens_gap(b) > 0:
            a, b = b, 2.0 * b
        x = _bisect(dens_gap, a, b)
        best = abs(model.cdf(x) + math.expm1(-rate * x))
    # the pad covers the rounding of the two CDFs at the crossing
    return BoundReport(None, None, float(clamp01(raw)), None, LogConcavityCertificate(True, None, True),
                       Interval(best, best + 1e-11), raw,
                       {"rate": rate, "f0": f0, "metric": "kolmogorov", "density": model.name})


# ---------------------------------------------------------------------------
# score-anchored TV bounds
# ---------------------------------------------------------------------------


def _score(g: GammaParams, z: float) -> float:
    """The log-density derivative ``(kappa - 1)/z - lam`` at ``z > 0``."""
    if not z > 0:
        raise InvalidDistributionError(f"z must be positive, got {z}")
    return (g.kappa - 1.0) / z - g.lam


def _quad(g: GammaParams, t: float, x0: float, upper: bool) -> float:
    """``log int e^{t x} f_g(x) dx`` over ``(x0, inf)`` if ``upper``, else over
    ``(0, x0)``, in closed form (named after the quadrature it replaced).

    With ``r = lam - t > 0``, ``e^{t x} f_g(x)`` is ``(lam/r)^kappa`` times the
    Gamma(kappa, r) density.  With ``r <= 0`` the integral diverges over
    ``(x0, inf)``, and over ``(0, x0)`` it is ``(lam x0)^kappa / Gamma(kappa)``
    times ``sum_n y^n / (n! (n + kappa))``, ``y = -r x0``, rescaled as it grows.
    """
    k, r = g.kappa, g.lam - t
    if r > 0:
        return -k * math.log1p(-t / g.lam) + _log_gamma_mass(k, r * x0, upper)
    if upper:
        return math.inf
    y = -r * x0
    lead, total, log_scale, n = 1.0, 1.0 / k, 0.0, 0
    while True:
        n += 1
        lead *= y / n
        term = lead / (n + k)
        total += term
        if term <= _EPS * total:
            break
        if total > 1e250:
            log_scale += math.log(total)
            lead, total = lead / total, 1.0
    return k * (math.log(g.lam) + math.log(x0)) - math.lgamma(k) + log_scale + math.log(total)


def tv_bound_continuous(mu: GammaParams, nu: GammaParams, z: float) -> tuple[float, float]:
    """The two envelope integrals anchored at ``z``:

    ``int ((f_nu(z)/f_mu(z)) e^{(x-z) D} - 1)_+ dmu`` and
    ``int (1 - (f_mu(z)/f_nu(z)) e^{-(x-z) D})_+ dnu``

    with ``D`` the score gap at ``z``.  Both integrands are positive only on
    the side of ``x0 = z - log(c)/D``, ``c = f_nu(z)/f_mu(z)``, that ``D``
    points to, where each is a Gamma mass and a tilted one (``_quad``) with
    their prefactors added in log space, so large shapes neither overflow nor
    give ``inf * 0``.  Returned in that order (reference-side, target-side),
    clamped to [0, 1].
    """
    delta = _score(nu, z) - _score(mu, z)
    log_c = _log_density_gap(nu, mu, z)
    upper = delta > 0 or (delta == 0 and log_c > 0)
    x0 = max(z - log_c / delta, 0.0) if delta else 0.0
    if not upper and x0 == 0.0:
        return 0.0, 0.0
    mu_int = _safe_exp(log_c - z * delta + _quad(mu, delta, x0, upper)) - math.exp(_quad(mu, 0.0, x0, upper))
    nu_int = math.exp(_quad(nu, 0.0, x0, upper)) - _safe_exp(z * delta - log_c + _quad(nu, -delta, x0, upper))
    return float(clamp01(mu_int)), float(clamp01(nu_int))


# ---------------------------------------------------------------------------
# Gamma vs Gamma
# ---------------------------------------------------------------------------


def gamma_density_crossings(a: GammaParams, b: GammaParams) -> list[float]:
    """The (at most two) crossing points of the two densities, ascending.

    The log-density gap ``h``, the prefactor difference ``_log_density_gap``,
    is ``dk log x - dl x + C``: monotone on each side of ``x* = dk/dl``
    (everywhere when ``x* <= 0``, then split at 1), so a side holds a root
    iff ``h`` at its start and at its far end differ in sign; doubling away
    from the start brackets it for ``_bisect``.  Below ``_TINY``, left of an
    ``x*`` above it, ``dl x`` is under the rounding of ``dk log x + C``, so a
    root there is ``e^u``, ``u = log _TINY - h(_TINY)/dk``; an ``x*`` below
    ``_TINY`` is not applicable.  A root above the float range is not
    reported.
    """
    if a == b:
        return []
    dk, dl = a.kappa - b.kappa, a.lam - b.lam
    h = lambda x: _log_density_gap(a, b, x)
    start = dk / dl if dk * dl > 0 else 1.0
    if start < _TINY:
        raise NotApplicableError(f"the densities' extremum dk/dl = {start!r} lies below {_TINY}")
    h0 = h(start)
    # a zero at the extremum x* is a touch, not a crossing
    roots = [start] if h0 == 0.0 and dk * dl <= 0 else []
    # the sign of h as x -> 0 and as x -> inf; with dk = 0, C = kappa log(lam_a/lam_b) has the sign of dl
    for step, limit in ((0.5, -dk if dk else dl), (2.0, -dl if dl else dk)):
        if h0 * limit >= 0:
            continue
        x = start * step
        while h(x) * h0 > 0 and _TINY < x * step < math.inf:
            x *= step
        if h(x) * h0 <= 0:
            roots.append(_bisect(h, *sorted((x / step, x))))
        elif x * step <= _TINY:
            # with dk = 0, h is linear
            roots.append(math.exp(_LOG_TINY - h(_TINY) / dk) if dk else _TINY + h(_TINY) / dl)
    return sorted(roots)


def tv_gamma_quadrature(a: GammaParams, b: GammaParams) -> Interval:
    """Exact-oracle TV between two Gamma laws, error below 1e-10, across their
    density crossings.  No quadrature runs; the name is kept because
    ``bench/tracing.py`` traces this entry point under it."""
    return Interval(0.0, 0.0) if a == b else _tv_across(a, b, gamma_density_crossings(a, b))


def _tv_across(a: GammaParams, b: GammaParams, crossings: list[float]) -> Interval:
    """The TV of two distinct Gamma laws from their density ``crossings``: the
    CDFs differenced across them, kept where positive (where ``f_a > f_b``),
    the upper end capped at 1.  Where ``lam x`` is below ``_TINY``, ``P(kappa,
    lam x)`` is ``e^{kappa (log lam + log x)} / Gamma(kappa + 1)`` to relative
    ``O(lam x)``; at a crossing ``x = e^u`` that underflowed to 0, ``u`` comes
    from the prefactor difference ``h`` (see ``gamma_density_crossings``)."""
    dk = a.kappa - b.kappa

    def cdf(g: GammaParams, x: float) -> float:
        # log(lam x) from log x, or from h for a crossing that underflowed to 0
        log_y = math.log(g.lam) + (math.log(x) if x else _LOG_TINY - _log_density_gap(a, b, _TINY) / dk)
        if log_y < _LOG_TINY:
            return math.exp(g.kappa * log_y - math.lgamma(g.kappa + 1.0))
        return gamma_cdf(g, x) if x else regularized_gamma_p(g.kappa, math.exp(log_y))

    pts = [(0.0, 0.0)] + [(cdf(a, x), cdf(b, x)) for x in crossings] + [(1.0, 1.0)]
    tv = 0.0
    for (left_a, left_b), (right_a, right_b) in zip(pts, pts[1:]):
        tv += max((right_a - left_a) - (right_b - left_b), 0.0)
    # no TV exceeds 1, which a sum near 1 may round above
    return Interval(max(tv - 1e-10, 0.0), min(tv + 1e-10, 1.0))


def gamma_tv_bound_anchored(a: GammaParams, b: GammaParams) -> BoundReport:
    """Score-matched Gamma comparison: valid when the shape and rate
    differences share a sign, anchored at ``z = (kap_1 - kap_2)/(lam_1 - lam_2)``
    where the two scores coincide.

    The density ratio at the anchor is
    ``R = (lam_1^kap_1 Gamma(kap_2) / (lam_2^kap_2 Gamma(kap_1))) z^{kap_1-kap_2}
    e^{-(kap_1-kap_2)}`` and the bound ``min(R - 1, 1 - 1/R)``.  ``log R`` is
    the difference of the two densities' ``_log_gamma_prefactor`` at ``z``,
    whose Stirling form cancels the ``kap log kap`` terms exactly, so ``R``
    near 1 keeps its digits at large shapes; the two sides are
    ``expm1(log R)`` and ``-expm1(-log R)``, which do not cancel there.
    Orientation is chosen internally so the larger shape plays the target.
    A ``z`` that overflows or underflows is not applicable.  ``details`` holds
    the density crossings, which the oracle reads.
    """
    dk = a.kappa - b.kappa
    dl = a.lam - b.lam
    if dk == 0.0 or dl == 0.0 or (dk > 0) != (dl > 0):
        raise NotApplicableError("need nonzero same-sign shape and rate differences")
    swapped = dk < 0
    hiP, loP = (b, a) if swapped else (a, b)
    z = dk / dl
    if not 0 < z < math.inf:
        raise NotApplicableError(f"the anchor z = dk/dl = {z!r} leaves the positive float range")
    log_r = _log_density_gap(hiP, loP, z)
    mu_side, nu_side = _safe_expm1(log_r), -_safe_expm1(-log_r)
    crossings = gamma_density_crossings(a, b)
    details = {"z": z, "density_ratio": _safe_exp(log_r), "swapped": swapped, "crossings": crossings}
    return BoundReport(float(clamp01(nu_side)), float(clamp01(mu_side)), float(clamp01(min(mu_side, nu_side))), None,
                       LogConcavityCertificate(True, None, True), _tv_across(a, b, crossings), None, details)


def gamma_tv_bound_perturbative(a: GammaParams, b: GammaParams, z: float) -> BoundReport:
    """Square-root deviation bound, valid when
    ``(kap_1 - kap_2)/z + lam_2 - lam_1 <= lam_2 / 4``:

    ``|(z/e)^{dk} - 1| + (z/e)^{dk} (1 + kap_1 + kap_2) 2^{kap_1 + 1}
    |dk/(lam_2 z) + (lam_2 - lam_1)/lam_2|^{1/2}``, the last factor being
    ``|drift| / lam_2`` for the condition's left side ``drift``, evaluated in
    log space and saturated to ``inf``.  The report carries it raw as
    ``stated_bound``, clamped as ``simplified``, ``z`` in ``details`` and the
    oracle ``tv_gamma_quadrature``.  Its hypothesis is that both laws are
    log-concave, shapes at least 1: below, it fell under the oracle TV (shapes
    0.1 and 0.001 at rate 1, ``z = 1``: 0.767 against 0.945), and a failed
    hypothesis reports no ``simplified``.
    """
    if not 0 < z < math.inf:
        raise InvalidDistributionError("z must be positive and finite")
    dk = a.kappa - b.kappa
    drift = dk / z + b.lam - a.lam
    if drift > b.lam / 4.0 + 1e-15:
        raise NotApplicableError("condition dk/z + lam_2 - lam_1 <= lam_2/4 not met")
    # every log is finite but log_lead and log |drift|, which is finite wherever log_lead is -inf
    log_lead = dk * (math.log(z) - 1.0)
    log_tail = -math.inf if not drift else (log_lead + math.log1p(a.kappa) + math.log1p(b.kappa / (1.0 + a.kappa))
                                            + (a.kappa + 1.0) * math.log(2.0)
                                            + 0.5 * (math.log(abs(drift)) - math.log(b.lam)))
    bound = abs(_safe_expm1(log_lead)) + _safe_exp(log_tail)
    cert = LogConcavityCertificate(a.kappa >= 1 and b.kappa >= 1, None, True)
    return BoundReport(None, None, float(clamp01(bound)) if cert.holds else None, None, cert,
                       tv_gamma_quadrature(a, b), bound, {"z": z})


# ---------------------------------------------------------------------------
# builtin density registry (CLI)
# ---------------------------------------------------------------------------


def builtin_density(name: str) -> DensityModel:
    """Named density models: ``expquad``, ``exp:<rate>``, ``gamma:<shape>,<rate>``."""
    if name == "expquad":
        # c * exp(-x - x^2/2) on [0, inf), whose integral is
        # e^{1/2} int_1^inf e^{-u^2/2} du = sqrt(pi/2) e^{1/2} erfc(1/sqrt 2)
        root_half = math.sqrt(0.5)
        c = 1.0 / (math.sqrt(math.pi / 2.0) * math.exp(0.5) * math.erfc(root_half))
        f = lambda x: c * math.exp(-x - x * x / 2.0)
        fprime = lambda x: -(1.0 + x) * f(x)
        base = math.erf(root_half)
        limit = 1.0 - base  # erf((x+1)/sqrt 2) - erf(1/sqrt 2) saturates here

        def cdf(x: float) -> float:
            if x <= 0:
                return 0.0
            # closed form via the error function, normalized by its own limit
            return (math.erf((x + 1.0) * root_half) - base) / limit

        return DensityModel(f, fprime, cdf=cdf, log_concave=True, name="expquad")
    if name.startswith("exp:"):
        rate = float(name.split(":", 1)[1])
        if rate <= 0:
            raise InvalidDistributionError("rate must be positive")
        return gamma_density_model(GammaParams(1.0, rate))
    if name.startswith("gamma:"):
        k, l = (float(v) for v in name.split(":", 1)[1].split(","))
        return gamma_density_model(GammaParams(k, l))
    raise InvalidDistributionError(f"unknown builtin density {name!r}")
