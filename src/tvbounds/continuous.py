"""Continuous regime: exponential approximation in Kolmogorov distance, the
score-anchored total-variation bound, and Gamma-vs-Gamma comparisons with
exact CDF oracles.

Gamma laws are rate-parameterized throughout: ``f(x) = lam^kap x^{kap-1}
e^{-lam x} / Gamma(kap)``, so the score (log-density derivative) at ``z`` is
``(kap - 1)/z - lam``.  Matching scores at a point plays the role the matched
mass ratio plays on the integers.

The numerics are pure Python, so the CLI paths import no numpy or scipy: a
series or continued fraction for the Gamma CDF, Brent's method (``_brentq``,
step for step scipy's ``brentq``) on a sign-changing bracket for every density
crossing, and closed forms for the ``expquad`` normalizer and CDF.  Only the
envelope integrals of ``tv_bound_continuous`` need adaptive quadrature, and
``_quad`` imports ``scipy.integrate`` when it first runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .bounds import BoundReport, _safe_exp, clamp01
from .distributions import Interval, LogConcavityCertificate
from .errors import InvalidDistributionError, NotApplicableError

_QUAD_ABS_TOL = 1e-11
_KS_GRID_POINTS = 2001
_TAIL_EPS = 1e-14
_EPS = math.ulp(1.0)
_LENTZ_TINY = 1e-300  # keeps the continued fraction's denominators off zero
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GammaParams:
    """Shape ``kappa`` and rate ``lam`` of a Gamma law."""

    kappa: float
    lam: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.lam > 0):
            raise InvalidDistributionError("shape and rate must be positive")


@dataclass(frozen=True)
class DensityModel:
    """A one-dimensional density with derivative, optional CDF, and a
    log-concavity attestation.

    ``domain`` is ``(0.0, inf)`` or ``(-inf, inf)``.  Evaluators must be pure.
    Light grid checks run at construction (non-negativity; CDF monotone with
    limits approaching 0 and 1); they are a spot check, not a proof.
    """

    f: Callable[[float], float]
    fprime: Callable[[float], float]
    domain: tuple
    cdf: Callable[[float], float] | None = None
    log_concave: bool = False
    name: str = ""

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo in (0.0, -math.inf) and hi == math.inf):
            raise InvalidDistributionError("domain must be (0, inf) or (-inf, inf)")
        grid = _probe_grid(lo)
        for x in grid:
            if self.f(x) < -1e-12:
                raise InvalidDistributionError(f"density negative at {x}")
        if self.cdf is not None:
            vals = [self.cdf(x) for x in grid]
            if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
                raise InvalidDistributionError("cdf is not nondecreasing")
            if vals[0] < -1e-9 or vals[-1] > 1 + 1e-9:
                raise InvalidDistributionError("cdf leaves [0, 1]")


def _probe_grid(lo: float) -> list[float]:
    pts = [10.0**e for e in range(-3, 4)]
    if lo == -math.inf:
        return [-p for p in reversed(pts)] + [0.0] + pts
    return [0.0] + pts


# ---------------------------------------------------------------------------
# Gamma law
# ---------------------------------------------------------------------------


def _log_gamma_prefactor(a: float, x: float) -> float:
    """``log(x^a e^{-x} / Gamma(a))`` for ``x > 0``.

    From ``a = 20`` on, ``lgamma`` is replaced by Stirling's series, so the
    ``a log a`` terms cancel exactly instead of leaving ``a log(a) eps`` of
    rounding (3e-9 relative near ``a = 1e6``).
    """
    if a < 20.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    # log1p loses accuracy as t -> -1, where log(x/a) does not
    lead = math.log1p(t) - t if t > -0.5 else math.log(x / a) - t
    r = 1.0 / (a * a)
    stirling = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a
    return a * lead + 0.5 * math.log(a) - _HALF_LOG_2PI - stirling


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)``.

    For ``x < a + 1`` the power series ``sum_n x^n / (a (a+1) ... (a+n))``;
    otherwise ``1 - Q`` with ``Q`` from Legendre's continued fraction, run by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.2).  Both
    are scaled by ``x^a e^{-x} / Gamma(a)``, taken in log space.  Exactly 0 at
    ``x = 0`` and 1 at ``x = inf``.  Against 40-digit mpmath, relative error
    stayed below 2.4e-13 on 2,000 random points with ``a`` in [0.01, 1000]
    and ``x/a`` in [0.01, 10] (values below the float range come back as 0),
    1e-14 on 2,000 with ``x/a`` in [0.9, 1.1], and 1.6e-13 on 300 with ``a``
    in [1e3, 1e6] and ``x`` within three standard deviations of ``a``; at
    ``a = 1`` it stays within 3.4e-15 of ``-expm1(-x)`` on [1e-8, 300].
    Both loops take ``O(sqrt(a))`` terms near ``x = a``.
    """
    if not a > 0:
        raise InvalidDistributionError("shape must be positive")
    if not x >= 0:
        raise InvalidDistributionError("argument must be >= 0")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    prefactor = math.exp(_log_gamma_prefactor(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        return prefactor * total
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    q = d
    i = 0
    while True:
        i += 1
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
            return 1.0 - prefactor * q


def gamma_cdf(g: GammaParams, x: float) -> float:
    """Gamma CDF at ``x >= 0`` (regularized ``P(kappa, lam x)``)."""
    if x < 0:
        raise InvalidDistributionError("x must be >= 0")
    return regularized_gamma_p(g.kappa, g.lam * x)


def gamma_log_density(g: GammaParams, x: float) -> float:
    return g.kappa * math.log(g.lam) + (g.kappa - 1.0) * math.log(x) - g.lam * x - math.lgamma(g.kappa)


def gamma_density_model(g: GammaParams) -> DensityModel:
    """Density model for a Gamma law (score ``(kappa-1)/x - lam``)."""
    kap, lam = g.kappa, g.lam

    def f(x: float) -> float:
        if x < 0:
            return 0.0
        if x == 0:
            if kap == 1:
                return lam
            return 0.0 if kap > 1 else math.inf
        return math.exp(gamma_log_density(g, x))

    def fprime(x: float) -> float:
        if x <= 0:
            if kap == 1:
                return -lam * lam if x == 0 else 0.0
            if kap == 2:
                return lam * lam if x == 0 else 0.0
            return math.nan if x == 0 else 0.0
        return f(x) * ((kap - 1.0) / x - lam)

    return DensityModel(
        f, fprime, (0.0, math.inf), cdf=lambda x: gamma_cdf(g, x),
        log_concave=kap >= 1, name=f"gamma({kap},{lam})",
    )


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _upper_cutoff(models: Sequence[DensityModel], start: float = 1.0) -> float:
    """A finite right endpoint past which every model's tail is below 1e-14."""
    hi = start
    for _ in range(80):
        ok = True
        for m in models:
            if m.cdf is not None:
                if 1.0 - m.cdf(hi) > _TAIL_EPS:
                    ok = False
            elif m.f(hi) * hi > 1e-16:
                ok = False
        if ok:
            return hi
        hi *= 2.0
    return hi


def _lower_cutoff(models: Sequence[DensityModel]) -> float:
    lo = min(m.domain[0] for m in models)
    if lo == -math.inf:
        low = -1.0
        for _ in range(80):
            if all(m.f(low) * abs(low) <= 1e-16 for m in models):
                return low
            low *= 2.0
        return low
    return 0.0


def _quad(f: Callable[[float], float], a: float, b: float, pts: Sequence[float] = ()) -> float:
    if b <= a:
        return 0.0
    from scipy import integrate  # 0.9 s to import, and no CLI path integrates

    inner = sorted(p for p in pts if a < p < b)
    val, _ = integrate.quad(f, a, b, points=inner or None, limit=300,
                            epsabs=_QUAD_ABS_TOL, epsrel=1e-12)
    return val


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float = 2e-12) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method (*Algorithms for
    Minimization without Derivatives*, 1973), transcribed step for step from
    scipy's ``brentq.c`` with its default ``rtol = 4 eps`` and 100 iterations,
    so its iterates and roots are bit-identical to ``scipy.optimize.brentq``
    with the same ``xtol``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + 4 * _EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# exponential approximation (Kolmogorov distance)
# ---------------------------------------------------------------------------


def exp_kolmogorov_bound(model: DensityModel) -> BoundReport:
    """Kolmogorov-distance bound against the exponential law whose rate is the
    density's score at zero.

    Requires support ``[0, inf)``, ``f(0) > 0`` finite, ``f'(0) < 0`` and a
    log-concavity attestation; the rate is ``r = -f'(0)/f(0)`` and the bound
    ``f(0)/r - 1``.  When a CDF is available the oracle distance is the grid
    supremum of ``|F - F_exp|``, raised to its value at each density crossing
    that the grid brackets.
    """
    if model.domain[0] != 0.0:
        raise NotApplicableError("exponential comparison needs support [0, inf)")
    if not model.log_concave:
        raise NotApplicableError("density is not attested log-concave")
    f0 = model.f(0.0)
    fp0 = model.fprime(0.0)
    if not (math.isfinite(f0) and f0 > 0):
        raise NotApplicableError("need finite positive density at 0")
    if not (math.isfinite(fp0) and fp0 < 0):
        raise NotApplicableError("need finite negative density derivative at 0")
    rate = -fp0 / f0
    raw = f0 / rate - 1.0
    bound = float(clamp01(raw))
    details = {"rate": rate, "f0": f0, "metric": "kolmogorov"}
    cert = LogConcavityCertificate(True, None, True)

    oracle = None
    if model.cdf is not None:
        exp_cdf = lambda x: -math.expm1(-rate * x)
        hi = 1.0 / rate
        for _ in range(60):
            if exp_cdf(hi) >= 1.0 - 1e-12 and model.cdf(hi) >= 1.0 - 1e-10:
                break
            hi *= 2.0
        grid = [hi * i / (_KS_GRID_POINTS - 1) for i in range(_KS_GRID_POINTS)]
        diff = lambda x: model.cdf(x) - exp_cdf(x)
        best = max(abs(diff(x)) for x in grid)
        dens_gap = lambda x: model.f(x) - rate * math.exp(-rate * x)
        gaps = [dens_gap(x) for x in grid]
        for a, b, ga, gb in zip(grid, grid[1:], gaps, gaps[1:]):
            if ga * gb < 0:
                best = max(best, abs(diff(_brentq(dens_gap, a, b))))
        # |F - F_exp| peaks where the densities cross; only crossings hidden
        # inside a single grid cell are missed, so a small pad suffices
        oracle = Interval(best, best + 1e-11)
    return BoundReport(None, None, bound, None, cert, oracle, raw, details)


# ---------------------------------------------------------------------------
# score-anchored TV bounds
# ---------------------------------------------------------------------------


def _score(model: DensityModel, z: float) -> float:
    fz = model.f(z)
    if fz <= 0 or not math.isfinite(fz):
        raise InvalidDistributionError(f"density must be positive and finite at z = {z}")
    return model.fprime(z) / fz


def tv_bound_continuous(fmu: DensityModel, fnu: DensityModel, z: float) -> tuple[float, float]:
    """The two envelope integrals anchored at ``z``:

    ``int ((f_nu(z)/f_mu(z)) e^{(x-z) D} - 1)_+ dmu`` and
    ``int (1 - (f_mu(z)/f_nu(z)) e^{-(x-z) D})_+ dnu``

    with ``D`` the score gap at ``z``.  The integrand's single sign change is
    located in closed form and the pieces integrated adaptively.  Returned in
    that order (reference-side, target-side), clamped to [0, 1].
    """
    delta = _score(fnu, z) - _score(fmu, z)
    c = fnu.f(z) / fmu.f(z)
    a = _lower_cutoff([fmu, fnu])
    b = _upper_cutoff([fmu, fnu], start=max(2.0 * abs(z), 1.0))
    pts = [z]
    if delta != 0.0:
        # both integrands are positive only on the side of x0 that delta points to
        x0 = z - math.log(c) / delta
        a, b = (max(x0, a), b) if delta > 0 else (a, min(x0, b))
        pts.append(x0)

    mu_integrand = lambda x: max(c * _safe_exp((x - z) * delta) - 1.0, 0.0) * fmu.f(x)
    nu_integrand = lambda x: max(1.0 - (1.0 / c) * _safe_exp(-(x - z) * delta), 0.0) * fnu.f(x)
    mu_int = _quad(mu_integrand, a, b, pts)
    nu_int = _quad(nu_integrand, a, b, pts)
    return float(clamp01(mu_int)), float(clamp01(nu_int))


def tv_bound_matched(fmu: DensityModel, fnu: DensityModel, z: float) -> float:
    """Closed-form TV bound at a score-matched point:
    ``min(f_nu(z)/f_mu(z) - 1, 1 - f_mu(z)/f_nu(z))``.

    Requires the scores to agree at ``z`` (relative tolerance) and asserts
    ``f_nu(z) >= f_mu(z)``.
    """
    return _matched_bound(z, _score(fnu, z), _score(fmu, z), fnu.f(z) / fmu.f(z))


def _matched_bound(z: float, s_nu: float, s_mu: float, ratio: float) -> float:
    """``tv_bound_matched`` from the two scores and the density ratio at ``z``."""
    scale = max(1.0, abs(s_nu), abs(s_mu))
    if abs(s_nu - s_mu) > 1e-10 * scale:
        raise NotApplicableError(
            f"scores differ at z = {z}: {s_nu:.12g} vs {s_mu:.12g}"
        )
    if ratio < 1.0 - 1e-9:
        raise NotApplicableError("score-matched point with target density below reference")
    return float(clamp01(min(ratio - 1.0, 1.0 - 1.0 / ratio)))


# ---------------------------------------------------------------------------
# Gamma vs Gamma
# ---------------------------------------------------------------------------


def gamma_density_crossings(a: GammaParams, b: GammaParams) -> list[float]:
    """The (at most two) crossing points of the two densities, ascending.

    The log-density gap ``h(x) = dk log x - dl x + C`` is monotone on each
    side of ``x* = dk/dl`` (everywhere when ``x* <= 0``, then split at 1), so
    a side holds a root iff ``h`` at its start and at its far end differ in
    sign; doubling away from the start brackets it for ``brentq``.  A root
    outside the float range is not reported.
    """
    if a == b:
        return []
    dk = a.kappa - b.kappa
    dl = a.lam - b.lam
    const = (
        a.kappa * math.log(a.lam)
        - b.kappa * math.log(b.lam)
        - math.lgamma(a.kappa)
        + math.lgamma(b.kappa)
    )

    def h(x: float) -> float:
        return dk * math.log(x) - dl * x + const

    start = dk / dl if dk * dl > 0 else 1.0
    h0 = h(start)
    # a zero at the extremum x* is a touch, not a crossing
    roots = [start] if h0 == 0.0 and dk * dl <= 0 else []
    # the sign of h as x -> 0 and as x -> inf
    for step, limit in ((0.5, -dk if dk else const), (2.0, -dl if dl else dk)):
        if h0 * limit >= 0:
            continue
        x = start * step
        while h(x) * h0 > 0 and 0.0 < x * step < math.inf:
            x *= step
        if h(x) * h0 <= 0:
            roots.append(_brentq(h, *sorted((x / step, x)), xtol=1e-300))
    return sorted(roots)


def tv_gamma_quadrature(a: GammaParams, b: GammaParams) -> Interval:
    """Exact-oracle TV between two Gamma laws, error below 1e-10: the CDFs
    differenced across the density crossings, summed where ``f_a > f_b``.

    No quadrature runs; the name is kept because ``bench/tracing.py`` traces
    this entry point under it.
    """
    if a == b:
        return Interval(0.0, 0.0)
    pts = [0.0] + gamma_density_crossings(a, b) + [math.inf]
    tv = 0.0
    for left, right in zip(pts, pts[1:]):
        mid = 0.5 * (left + right) if right < math.inf else (left + 1.0) * 2.0
        if gamma_log_density(a, mid) > gamma_log_density(b, mid):
            tv += (gamma_cdf(a, right) - gamma_cdf(a, left)) - (gamma_cdf(b, right) - gamma_cdf(b, left))
    return Interval(max(tv - 1e-10, 0.0), tv + 1e-10)


def gamma_tv_bound_anchored(a: GammaParams, b: GammaParams) -> BoundReport:
    """Score-matched Gamma comparison: valid when the shape and rate
    differences share a sign, anchored at ``z = (kap_1 - kap_2)/(lam_1 - lam_2)``
    where the two scores coincide.

    The closed-form density ratio at the anchor is
    ``(lam_1^kap_1 Gamma(kap_2) / (lam_2^kap_2 Gamma(kap_1))) z^{kap_1-kap_2}
    e^{-(kap_1-kap_2)}`` and the bound ``min(R - 1, 1 - 1/R)``.  Orientation
    is chosen internally so the larger shape plays the target.
    """
    dk = a.kappa - b.kappa
    dl = a.lam - b.lam
    if dk == 0.0 or dl == 0.0 or (dk > 0) != (dl > 0):
        raise NotApplicableError("need nonzero same-sign shape and rate differences")
    swapped = dk < 0
    hiP, loP = (b, a) if swapped else (a, b)
    dk, dl = hiP.kappa - loP.kappa, hiP.lam - loP.lam
    z = dk / dl
    log_r = (
        hiP.kappa * math.log(hiP.lam)
        - loP.kappa * math.log(loP.lam)
        + math.lgamma(loP.kappa)
        - math.lgamma(hiP.kappa)
        + dk * math.log(z)
        - dk
    )
    ratio = _safe_exp(log_r)
    mu_side = ratio - 1.0
    nu_side = 1.0 - 1.0 / ratio
    # cross-check in log space, where densities that underflow at z still compare
    matched = _matched_bound(
        z, (hiP.kappa - 1.0) / z - hiP.lam, (loP.kappa - 1.0) / z - loP.lam,
        _safe_exp(gamma_log_density(hiP, z) - gamma_log_density(loP, z)),
    )
    # Both log-ratios sum a few rounded terms as large as kappa log kappa (about
    # 3e8 at shape 1e7), and the log-densities' absolute terms bound those of
    # both, so rounding alone may part them by a few ulps of that sum.  The
    # clamped bound moves by no more, since its slope in log R is at most 1.
    rounding = 4.0 * _EPS * sum(
        abs(g.kappa * math.log(g.lam)) + abs((g.kappa - 1.0) * math.log(z)) + g.lam * z + abs(math.lgamma(g.kappa))
        for g in (hiP, loP)
    )
    if abs(matched - min(clamp01(mu_side), clamp01(nu_side))) > 1e-9 + rounding:
        raise AssertionError("closed form and density-evaluated bound disagree")
    cert = LogConcavityCertificate(True, None, True)
    tv = tv_gamma_quadrature(a, b)
    bound = float(clamp01(min(mu_side, nu_side)))
    details = {"z": z, "density_ratio": ratio, "swapped": swapped}
    return BoundReport(float(clamp01(nu_side)), float(clamp01(mu_side)), bound, None, cert, tv, None, details)


def gamma_tv_bound_perturbative(a: GammaParams, b: GammaParams, z: float) -> float:
    """Square-root deviation bound, valid when
    ``(kap_1 - kap_2)/z + lam_2 - lam_1 <= lam_2 / 4``:

    ``|(z/e)^{dk} - 1| + (z/e)^{dk} (1 + kap_1 + kap_2) 2^{kap_1 + 1}
    |dk/(lam_2 z) + (lam_2 - lam_1)/lam_2|^{1/2}``  (reported raw).
    """
    if z <= 0:
        raise InvalidDistributionError("z must be positive")
    dk = a.kappa - b.kappa
    drift = dk / z + b.lam - a.lam
    if drift > b.lam / 4.0 + 1e-15:
        raise NotApplicableError("condition dk/z + lam_2 - lam_1 <= lam_2/4 not met")
    lead = (z / math.e) ** dk
    dev = abs(dk / (b.lam * z) + (b.lam - a.lam) / b.lam)
    return abs(lead - 1.0) + lead * (1.0 + a.kappa + b.kappa) * 2.0 ** (a.kappa + 1.0) * math.sqrt(dev)


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
        f = lambda x: c * math.exp(-x - x * x / 2.0) if x >= 0 else 0.0
        fprime = lambda x: -(1.0 + x) * f(x)
        base = math.erf(root_half)
        limit = 1.0 - base  # erf((x+1)/sqrt 2) - erf(1/sqrt 2) saturates here

        def cdf(x: float) -> float:
            if x <= 0:
                return 0.0
            # closed form via the error function, normalized by its own limit
            return (math.erf((x + 1.0) * root_half) - base) / limit

        return DensityModel(f, fprime, (0.0, math.inf), cdf=cdf, log_concave=True, name="expquad")
    if name.startswith("exp:"):
        rate = float(name.split(":", 1)[1])
        if rate <= 0:
            raise InvalidDistributionError("rate must be positive")
        return gamma_density_model(GammaParams(1.0, rate))
    if name.startswith("gamma:"):
        k, l = (float(v) for v in name.split(":", 1)[1].split(","))
        return gamma_density_model(GammaParams(k, l))
    raise InvalidDistributionError(f"unknown builtin density {name!r}")
