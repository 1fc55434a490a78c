"""Independent correctness checks, run after the timed phase.

The references here share no code with ``tvbounds``: float laws come from
numpy recursions and ``scipy.stats``, exact ones from integer polynomial
products. Each claim an op made is checked twice:

* oracle agreement: the reference TV lies in the package's oracle interval,
  widened by its own width (a truncated law may sit on either side of the
  distance) and by ``TV_TOL``; exact inputs must agree exactly;
* dominance, re-derived from the numbers rather than read from
  ``report.dominated``: ``oracle.hi <= min(bounds) + DOMINANCE_SLACK``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import optimize, stats

# fixed before any run: float references agree with the package to ~1e-13
# at n = 3000, so 1e-9 flags real disagreement and never rounding
TV_TOL = 1e-9
DOMINANCE_SLACK = 1e-10


def pb_pmf(p) -> np.ndarray:
    """Poisson-binomial pmf by the direct recursion, vectorized per term."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p, start=1):
        pmf[1 : i + 1] = pmf[1 : i + 1] * (1.0 - pi) + pmf[0:i] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    size = max(len(a), len(b))
    a = np.pad(a, (0, size - len(a)))
    b = np.pad(b, (0, size - len(b)))
    return float(np.sum(np.clip(a - b, 0.0, None)))


def _poisson_tv(nu: np.ndarray, lam: float) -> float:
    # sum (nu - pois)_+ only runs over nu's support, so the Poisson law needs
    # no truncation here
    return _tv(nu, stats.poisson.pmf(np.arange(len(nu)), lam))


def _geometric_tv(agg: np.ndarray, rho: float) -> float:
    return _tv(agg, (1.0 - rho) * rho ** np.arange(len(agg)))


def ref_pb_binomial(p) -> float:
    p = np.asarray(p, dtype=float)
    m = np.mean(1.0 / (1.0 - p))
    n = len(p)
    return _tv(pb_pmf(p), stats.binom.pmf(np.arange(n + 1), n, 1.0 - 1.0 / m))


def ref_pb_poisson(p) -> float:
    p = np.asarray(p, dtype=float)
    return _poisson_tv(pb_pmf(p), float(np.sum(p / (1.0 - p))))


def ref_pb_exact(p) -> Fraction:
    """Exact TV between the Poisson-binomial law of ``p_i = k_i/100`` and its
    ratio-matched binomial, in integer arithmetic over one denominator."""
    ks = [int(v * 100) for v in p]
    n = len(ks)
    coeffs = [1]
    for k in ks:
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * (100 - k)
            nxt[j + 1] += c * k
        coeffs = nxt
    m = sum(Fraction(100, 100 - k) for k in ks) / n
    q = 1 - 1 / m
    a, b = q.numerator, q.denominator
    scale_pb, scale_bin = b**n, 100**n
    total = 0
    for j, c in enumerate(coeffs):
        d = c * scale_pb - math.comb(n, j) * a**j * (b - a) ** (n - j) * scale_bin
        if d > 0:
            total += d
    return Fraction(total, scale_pb * scale_bin)


def ref_tilt(inp) -> float:
    _, mu, nu = inp
    return _tv(np.asarray(nu), np.asarray(mu))


def ref_compound_poisson(inp) -> float:
    """Mixture of severity convolution powers, independent of the recursion."""
    lam, sev = inp
    sev = np.asarray(sev)
    weights = [stats.poisson.pmf(0, lam)]
    while stats.poisson.sf(len(weights) - 1, lam) > 1e-18:
        weights.append(stats.poisson.pmf(len(weights), lam))
    size = (len(sev) - 1) * len(weights) + 1
    agg, power = np.zeros(size), np.zeros(size)
    power[0] = 1.0
    for w in weights:
        agg += w * power
        power = np.convolve(power, sev)[:size]
    return _geometric_tv(agg, lam * sev[1])


def ref_compound_geometric(inp) -> float:
    """Negative-binomial mixture: ``k`` geometric summands of success mass
    ``1-p`` sum to NB(k, 1-p); the window reaches past a 1e-26 tail."""
    count, p = inp
    size = int(60.0 / -math.log(p)) + 20 * len(count) + 64
    js = np.arange(size)
    agg = np.zeros(size)
    agg[0] += count[0]
    for k in range(1, len(count)):
        agg += count[k] * stats.nbinom.pmf(js, k, 1.0 - p)
    return _geometric_tv(agg, agg[1] / agg[0])


def _partition_counts(cats) -> list:
    n = sum(c for c, _ in cats)
    counts = [0] * (n + 1)
    masks, base = [], 0
    for c, d in cats:
        masks.append((((1 << c) - 1) << base, d))
        base += c
    for s in range(1 << n):
        if all(bin(s & mk).count("1") <= d for mk, d in masks):
            counts[bin(s).count("1")] += 1
    return counts


def _matroid_nu(counts) -> np.ndarray:
    nu = np.asarray(counts, dtype=float)
    nu[0] = 0.0
    return nu / nu.sum()


def ref_matroid_binomial(inp) -> float:
    cats, m = inp
    counts = _partition_counts(cats)
    n = len(counts) - 1
    p = 1.0 / (1.0 + (n - m) / (m + 1) * counts[m] / counts[m + 1])
    return _tv(_matroid_nu(counts), stats.binom.pmf(np.arange(n + 1), n, p))


def ref_matroid_poisson(inp) -> float:
    cats, m = inp
    counts = _partition_counts(cats)
    return _poisson_tv(_matroid_nu(counts), (m + 1) * counts[m + 1] / counts[m])


def ref_iv(inp) -> float:
    shape, data, m = inp
    if shape == "box":
        v = np.array([1.0])
        for s in data:
            v = np.convolve(v, [1.0, s])
    else:
        dim, s = data
        v = np.array([math.comb(dim, j) * s**j for j in range(dim + 1)])
    return _poisson_tv(v / v.sum(), (m + 1) * v[m + 1] / v[m])


def ref_gamma(inp) -> float:
    """TV of two Gamma laws from CDF differences between density crossings.

    The log-density gap is ``dk log x - dl x + C`` with one critical point
    ``dk / dl > 0``, so there is at most one crossing on each side of it.
    """
    (ka, la), (kb, lb) = inp
    fa, fb = stats.gamma(ka, scale=1.0 / la), stats.gamma(kb, scale=1.0 / lb)

    def h(x):
        return fa.logpdf(x) - fb.logpdf(x)

    crit = (ka - kb) / (la - lb)
    sign = math.copysign(1.0, h(crit))
    roots = []
    for step in (0.5, 2.0):
        x = crit
        while h(x) * sign > 0 and 1e-300 < x < 1e300:
            x *= step
        if h(x) * sign < 0:
            roots.append(optimize.brentq(h, min(x, crit), max(x, crit), xtol=1e-300, rtol=1e-15))
    edges = [0.0] + sorted(roots) + [math.inf]
    tv = 0.0
    for left, right in zip(edges, edges[1:]):
        mid = 0.5 * (left + right) if math.isfinite(right) else left + 1.0
        if h(mid) > 0:
            tv += (fa.cdf(right) - fa.cdf(left)) - (fb.cdf(right) - fb.cdf(left))
    return tv


REFERENCES = {
    "pb-binomial": ref_pb_binomial,
    "pb-poisson": ref_pb_poisson,
    "pb-exact": ref_pb_exact,
    "tilt": ref_tilt,
    "compound-poisson": ref_compound_poisson,
    "compound-geometric": ref_compound_geometric,
    "matroid-binomial": ref_matroid_binomial,
    "matroid-poisson": ref_matroid_poisson,
    "iv": ref_iv,
    "gamma": ref_gamma,
}


def oracle_agrees(claim) -> bool:
    """The benchmark's own TV against the package's oracle interval."""
    kind, data = claim.ref
    ref = REFERENCES[kind](data)
    lo, hi = claim.oracle
    if isinstance(ref, Fraction):
        return ref == lo == hi
    width = float(hi) - float(lo)
    return float(lo) - width - TV_TOL <= ref <= float(hi) + TV_TOL


def dominated(claim) -> bool:
    return float(claim.oracle[1]) <= min(float(b) for b in claim.bounds) + DOMINANCE_SLACK


def check(outcome) -> list:
    """Failure reasons the checks add to an op's outcome (empty when clean)."""
    reasons = []
    for claim in outcome.claims:
        if claim.ref is not None and not oracle_agrees(claim):
            reasons.append(f"oracle mismatch ({claim.ref[0]})")
        if outcome.status == "ok" and claim.bounds and not dominated(claim):
            reasons.append("dominance")
    return reasons


def bound_excess(outcome) -> float | None:
    """Smallest reported bound minus the oracle's upper end, for a certified op."""
    gaps = [min(float(b) for b in c.bounds) - float(c.oracle[1]) for c in outcome.claims if c.bounds]
    if outcome.status != "ok" or not gaps:
        return None
    return min(gaps)
