"""Continuous regime: exponential approximation in Kolmogorov distance, the
score-anchored total-variation bound, and Gamma-vs-Gamma comparisons with
quadrature oracles.

Gamma laws are rate-parameterized throughout: ``f(x) = lam^kap x^{kap-1}
e^{-lam x} / Gamma(kap)``, so the score (log-density derivative) at ``z`` is
``(kap - 1)/z - lam``.  Matching scores at a point plays the role the matched
mass ratio plays on the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate

from .bounds import BoundReport, _safe_exp, clamp01, dominance_verdict
from .distributions import Interval, LogConcavityCertificate
from .errors import InvalidDistributionError, NotApplicableError

_QUAD_ABS_TOL = 1e-11
_TAIL_EPS = 1e-14


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
# regularized incomplete gamma (series / continued fraction)
# ---------------------------------------------------------------------------


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)``, relative error ~1e-14.

    Power series for ``x < a + 1``, modified Lentz continued fraction for the
    complement otherwise.
    """
    if a <= 0:
        raise InvalidDistributionError("shape must be positive")
    if x < 0:
        raise InvalidDistributionError("argument must be >= 0")
    if x == 0:
        return 0.0
    log_pre = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(2000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return min(total * math.exp(log_pre), 1.0)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 2000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(1.0 - math.exp(log_pre) * h, 0.0)


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
    inner = sorted(p for p in pts if a < p < b)
    val, _ = integrate.quad(f, a, b, points=inner or None, limit=300,
                            epsabs=_QUAD_ABS_TOL, epsrel=1e-12)
    return val


# ---------------------------------------------------------------------------
# exponential approximation (Kolmogorov distance)
# ---------------------------------------------------------------------------


def exp_kolmogorov_bound(model: DensityModel, grid_points: int = 2001) -> BoundReport:
    """Kolmogorov-distance bound against the exponential law whose rate is the
    density's score at zero.

    Requires support ``[0, inf)``, ``f(0) > 0`` finite, ``f'(0) < 0`` and a
    log-concavity attestation; the rate is ``r = -f'(0)/f(0)`` and the bound
    ``f(0)/r - 1``.  When a CDF is available the oracle distance is the grid
    supremum of ``|F - F_exp|`` refined by bisection at density crossings.
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
    dominated = None
    if model.cdf is not None:
        exp_cdf = lambda x: -math.expm1(-rate * x)
        hi = 1.0 / rate
        for _ in range(60):
            if exp_cdf(hi) >= 1.0 - 1e-12 and model.cdf(hi) >= 1.0 - 1e-10:
                break
            hi *= 2.0
        grid = [hi * i / (grid_points - 1) for i in range(grid_points)]
        diff = lambda x: model.cdf(x) - exp_cdf(x)
        best = max(abs(diff(x)) for x in grid)
        dens_gap = lambda x: model.f(x) - rate * math.exp(-rate * x)
        for a, b in zip(grid, grid[1:]):
            ga, gb = dens_gap(a), dens_gap(b)
            if ga == 0.0 or ga * gb < 0:
                lo_x, hi_x = a, b
                for _ in range(200):
                    mid = 0.5 * (lo_x + hi_x)
                    gm = dens_gap(mid)
                    if gm == 0.0:
                        lo_x = hi_x = mid
                        break
                    if ga * gm < 0:
                        hi_x = mid
                    else:
                        lo_x, ga = mid, gm
                best = max(best, abs(diff(0.5 * (lo_x + hi_x))))
        # grid max plus bisected extrema; only crossings hidden inside a
        # single grid cell are missed, so a small pad suffices
        oracle = Interval(best, best + 1e-11)
        dominated = dominance_verdict(oracle, bound)
    return BoundReport(None, None, bound, None, cert, oracle, dominated, raw, details)


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
    lo = _lower_cutoff([fmu, fnu])
    hi = _upper_cutoff([fmu, fnu], start=max(2.0 * abs(z), 1.0))

    if delta == 0.0:
        if c <= 1.0:
            mu_int = 0.0
        else:
            mu_int = (c - 1.0) * _quad(fmu.f, lo, hi)
        if c >= 1.0:
            nu_int = (1.0 - 1.0 / c) * _quad(fnu.f, lo, hi)
        else:
            nu_int = 0.0
        return float(clamp01(mu_int)), float(clamp01(nu_int))

    x0 = z - math.log(c) / delta
    if delta > 0:
        a, b = max(x0, lo), hi
    else:
        a, b = lo, min(x0, hi)

    mu_integrand = lambda x: max(c * _safe_exp((x - z) * delta) - 1.0, 0.0) * fmu.f(x)
    nu_integrand = lambda x: max(1.0 - (1.0 / c) * _safe_exp(-(x - z) * delta), 0.0) * fnu.f(x)
    pts = [z, x0]
    mu_int = _quad(mu_integrand, a, b, pts)
    nu_int = _quad(nu_integrand, a, b, pts)
    return float(clamp01(mu_int)), float(clamp01(nu_int))


def tv_bound_matched(fmu: DensityModel, fnu: DensityModel, z: float) -> float:
    """Closed-form TV bound at a score-matched point:
    ``min(f_nu(z)/f_mu(z) - 1, 1 - f_mu(z)/f_nu(z))``.

    Requires the scores to agree at ``z`` (relative tolerance) and asserts
    ``f_nu(z) >= f_mu(z)``.
    """
    s_nu, s_mu = _score(fnu, z), _score(fmu, z)
    scale = max(1.0, abs(s_nu), abs(s_mu))
    if abs(s_nu - s_mu) > 1e-10 * scale:
        raise NotApplicableError(
            f"scores differ at z = {z}: {s_nu:.12g} vs {s_mu:.12g}"
        )
    ratio = fnu.f(z) / fmu.f(z)
    if ratio < 1.0 - 1e-9:
        raise NotApplicableError("score-matched point with target density below reference")
    return float(clamp01(min(ratio - 1.0, 1.0 - 1.0 / ratio)))


# ---------------------------------------------------------------------------
# Gamma vs Gamma
# ---------------------------------------------------------------------------


def gamma_density_crossings(a: GammaParams, b: GammaParams) -> list[float]:
    """The (at most two) crossing points of the two densities.

    The log-density gap is ``dk log x - dl x + C``, monotone on each side of
    its single critical point, so crossings are bracketed on a log grid and
    bisected to high precision.
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
    if dk == 0.0 and dl == 0.0:
        return []

    def h(x: float) -> float:
        return dk * math.log(x) - dl * x + const

    hi = _upper_cutoff([gamma_density_model(a), gamma_density_model(b)], start=1.0)
    xs = [10.0 ** (-12 + 24 * i / 4000) for i in range(4001)]
    xs = [x for x in xs if x <= hi] + [hi]
    roots = []
    for x1, x2 in zip(xs, xs[1:]):
        h1, h2 = h(x1), h(x2)
        if h1 == 0.0:
            roots.append(x1)
            continue
        if h1 * h2 < 0:
            lo_x, hi_x = x1, x2
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                hm = h(mid)
                if hm == 0.0:
                    lo_x = hi_x = mid
                    break
                if h1 * hm < 0:
                    hi_x = mid
                else:
                    lo_x, h1 = mid, hm
            roots.append(0.5 * (lo_x + hi_x))
    return sorted(set(roots))


def tv_gamma_quadrature(a: GammaParams, b: GammaParams) -> Interval:
    """Exact-oracle TV between two Gamma laws by CDF differencing across the
    density crossings; error below 1e-10."""
    if a == b:
        return Interval(0.0, 0.0)
    cross = gamma_density_crossings(a, b)
    pts = [0.0] + cross + [math.inf]
    tv = 0.0
    for left, right in zip(pts, pts[1:]):
        mid = 0.5 * (left + right) if right < math.inf else (left + 1.0) * 2.0
        fa = gamma_log_density(a, mid) if mid > 0 else -math.inf
        fb = gamma_log_density(b, mid) if mid > 0 else -math.inf
        if fa <= fb:
            continue
        ca_r = gamma_cdf(a, right) if right < math.inf else 1.0
        cb_r = gamma_cdf(b, right) if right < math.inf else 1.0
        tv += (ca_r - gamma_cdf(a, left)) - (cb_r - gamma_cdf(b, left))
    err = 1e-10
    return Interval(max(tv - err, 0.0), tv + err)


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
    ratio = math.exp(log_r)
    mu_side = ratio - 1.0
    nu_side = 1.0 - 1.0 / ratio
    matched = tv_bound_matched(gamma_density_model(loP), gamma_density_model(hiP), z)
    if abs(matched - min(clamp01(mu_side), clamp01(nu_side))) > 1e-9:
        raise AssertionError("closed form and density-evaluated bound disagree")
    cert = LogConcavityCertificate(True, None, True)
    tv = tv_gamma_quadrature(a, b)
    bound = float(clamp01(min(mu_side, nu_side)))
    dominated = dominance_verdict(tv, bound)
    details = {"z": z, "density_ratio": ratio, "swapped": swapped}
    return BoundReport(
        float(clamp01(nu_side)), float(clamp01(mu_side)), bound, None, cert, tv, dominated, None, details
    )


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
        # c * exp(-x - x^2/2) on [0, inf); normalizer via adaptive quadrature
        raw = lambda x: math.exp(-x - x * x / 2.0)
        z_int = _quad(raw, 0.0, 50.0)
        c = 1.0 / z_int
        f = lambda x: c * raw(x) if x >= 0 else 0.0
        fprime = lambda x: -(1.0 + x) * f(x)
        root_half = math.sqrt(0.5)
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
