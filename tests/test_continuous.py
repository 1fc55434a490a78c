"""Continuous regime against mpmath: density crossings, the incomplete gamma,
the Gamma TV oracle, the Gamma and score-anchored bounds, and the Kolmogorov
oracle; bisection against scipy's ``brentq``; plus a guard that the benchmark
tracer's entry points still exist and that the tracer installs over them.
"""

import importlib
import importlib.util
import math
import pathlib
import pkgutil
import random
import sys

import mpmath
import pytest
from scipy import optimize

import tvbounds
from tvbounds import continuous as cont
from tvbounds.continuous import GammaParams
from tvbounds.errors import InvalidDistributionError, NotApplicableError

mp = mpmath.mp.clone()
mp.dps = 50
mpq = mpmath.mp.clone()  # quadrature needs far fewer digits than the roots
mpq.dps = 20
mpe = mpmath.mp.clone()
mpe.dps = 30


def _gap(a, b):
    """The log-density gap ``log f_a - log f_b`` in 50-digit arithmetic."""
    ka, la, kb, lb = (mp.mpf(v) for v in (a.kappa, a.lam, b.kappa, b.lam))
    const = ka * mp.log(la) - kb * mp.log(lb) - mp.loggamma(ka) + mp.loggamma(kb)
    return lambda x: (ka - kb) * mp.log(x) - (la - lb) * x + const


def _bisect(h, lo, hi):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    s = mp.sign(h(lo))
    assert s * mp.sign(h(hi)) < 0
    for _ in range(120):
        mid = (lo + hi) / 2
        if mp.sign(h(mid)) == s:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _mp_crossings(a, b):
    """Every sign change of the gap on a log grid over [1e-30, 1e30], bisected.

    The gap's one extremum ``x*`` joins the grid, so each cell lies on one
    monotone side and holds at most one root.
    """
    h = _gap(a, b)
    xs = [mp.mpf(10) ** (e / 2) for e in range(-60, 61)]
    if a.kappa != b.kappa and (a.kappa - b.kappa) * (a.lam - b.lam) > 0:
        xs = sorted(xs + [(mp.mpf(a.kappa) - b.kappa) / (mp.mpf(a.lam) - b.lam)])
    signs = [mp.sign(h(x)) for x in xs]
    roots = [x for x, s in zip(xs, signs) if s == 0]
    roots += [_bisect(h, x1, x2) for x1, x2, s1, s2 in zip(xs, xs[1:], signs, signs[1:]) if s1 * s2 < 0]
    return sorted(roots)


def _mp_density(g, ctx):
    k, lam = ctx.mpf(g.kappa), ctx.mpf(g.lam)
    log_norm = k * ctx.log(lam) - ctx.loggamma(k)
    return lambda x: ctx.exp(log_norm + (k - 1) * ctx.log(x) - lam * x)


def _mp_tv(a, b):
    """``int |f_a - f_b| / 2``, split at the 50-digit crossings."""
    fa, fb = _mp_density(a, mpq), _mp_density(b, mpq)
    pts = [0] + [mpq.mpf(x) for x in _mp_crossings(a, b)] + [mpq.inf]
    return float(mpq.quad(lambda x: abs(fa(x) - fb(x)), pts) / 2)


def _same_sign_pairs(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a = GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0))
        b = GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0))
        if (a.kappa - b.kappa) * (a.lam - b.lam) > 0:
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# density crossings
# ---------------------------------------------------------------------------

FAR_TAIL = (GammaParams(6.424131702068949, 4.246014550046871), GammaParams(1.1142635098945761, 4.1295074699248575))


def _assert_roots(got, want, rel=1e-11):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * abs(w), (g, w)


class TestCrossings:
    def test_far_tail_crossing_is_found(self):
        # the second crossing lies where both tails are below 1e-100
        h = _gap(*FAR_TAIL)
        want = [_bisect(h, 0.5, 1.0), _bisect(h, 200.0, 400.0)]
        got = cont.gamma_density_crossings(*FAR_TAIL)
        _assert_roots(got, want)
        assert got[0] == pytest.approx(0.68011205553, rel=1e-11)
        assert got[1] == pytest.approx(274.08452832, rel=1e-10)

    def test_equal_shapes_cross_once_in_closed_form(self):
        # h(x) = 2x - 2 log 3
        got = cont.gamma_density_crossings(GammaParams(2.0, 1.0), GammaParams(2.0, 3.0))
        _assert_roots(got, [mp.log(3)], rel=1e-14)

    @pytest.mark.parametrize("a, b", [((1.0, 1.0), (2.0, 1.0)), ((3.0, 2.0), (1.5, 2.0))])
    def test_equal_rates_cross_once_in_closed_form(self, a, b):
        # h(x) = dk log x + C, so the crossing is exp(-C/dk); exactly 1 for the first pair
        a, b = GammaParams(*a), GammaParams(*b)
        want = mp.exp(-_gap(a, b)(1) / (mp.mpf(a.kappa) - b.kappa))
        _assert_roots(cont.gamma_density_crossings(a, b), [want], rel=1e-14)

    def test_opposite_sign_differences_cross_once(self):
        a, b = GammaParams(3.0, 1.0), GammaParams(2.0, 2.0)
        _assert_roots(cont.gamma_density_crossings(a, b), [_bisect(_gap(a, b), 1e-3, 1e3)])

    def test_identical_laws_do_not_cross(self):
        assert cont.gamma_density_crossings(GammaParams(2.5, 1.5), GammaParams(2.5, 1.5)) == []

    def test_random_pairs_against_mpmath(self):
        rng = random.Random(11)
        for _ in range(40):
            a = GammaParams(rng.uniform(0.2, 10.0), rng.uniform(0.1, 6.0))
            b = GammaParams(rng.uniform(0.2, 10.0), rng.uniform(0.1, 6.0))
            _assert_roots(cont.gamma_density_crossings(a, b), _mp_crossings(a, b))


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def _assert_gamma_p_against_mpmath(points):
    for a, x in points:
        want = mp.gammainc(a, 0, x, regularized=True)
        # values below the float range come back as 0.0
        assert abs(cont.regularized_gamma_p(a, x) - want) <= 1e-11 * want + 1e-300, (a, x)


def test_regularized_gamma_p_against_mpmath():
    rng = random.Random(5)
    points = []
    for _ in range(300):
        a = 10.0 ** rng.uniform(-2.0, 3.0)
        points.append((a, a * 10.0 ** rng.uniform(-2.0, 1.0)))
    _assert_gamma_p_against_mpmath(points)


def test_regularized_gamma_p_around_the_series_switch():
    # the series runs below x = a + 1 and the continued fraction above it
    rng = random.Random(6)
    points = []
    for _ in range(500):
        a = 10.0 ** rng.uniform(-1.0, 3.0)
        points.append((a, a * rng.uniform(0.9, 1.1)))
    _assert_gamma_p_against_mpmath(points)


def test_regularized_gamma_p_at_large_shapes():
    # within three standard deviations of the mean, where lgamma(a) and a log x
    # would cancel to about a log(a) eps
    rng = random.Random(8)
    points = []
    for _ in range(60):
        a = 10.0 ** rng.uniform(3.0, 6.0)
        points.append((a, a + rng.uniform(-3.0, 3.0) * math.sqrt(a)))
    _assert_gamma_p_against_mpmath(points)


def test_regularized_gamma_p_is_exact_at_the_ends():
    for a in (0.01, 1.0, 7.5, 1000.0):
        assert cont.regularized_gamma_p(a, 0.0) == 0.0
        assert cont.regularized_gamma_p(a, math.inf) == 1.0


def test_regularized_gamma_p_of_shape_one_is_the_exponential_cdf():
    for i in range(2001):
        x = 1e-8 * (3e10) ** (i / 2000)
        want = -math.expm1(-x)
        assert abs(cont.regularized_gamma_p(1.0, x) - want) <= 1e-14 * want, x


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0), (1.0, math.nan)])
def test_regularized_gamma_p_rejects_bad_arguments(a, x):
    with pytest.raises(InvalidDistributionError):
        cont.regularized_gamma_p(a, x)


@pytest.mark.parametrize("x", [2.0**60, 2.0**60 + 2**10], ids=["series", "continued-fraction"])
def test_regularized_gamma_p_beyond_its_terms_is_not_applicable(x):
    # near x = a = 2^60 each loop needs about 10 sqrt(a) = 1e10 terms.  The
    # series used to run on, and x = a, where a + 1 rounds to a, went to the
    # continued fraction, which divided by x + 1 - a = 0
    with pytest.raises(NotApplicableError, match="needs more than"):
        cont.regularized_gamma_p(2.0**60, x)


def _series_total(a, x, terms):
    """Test-side copy of the incomplete gamma's series loop: its total, or
    None if it has not stopped within ``terms`` terms."""
    term = total = 1.0 / a
    n = a
    for _ in range(terms):
        n += 1.0
        term *= x / n
        total += term
        if term <= math.ulp(1.0) * total:
            return total
    return None


def _lines_run(f, *args):
    """The lines ``f`` runs in its own frame on ``args``, and its result or the error it raised."""
    lines, old = [], sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is f.__code__:
            return lambda frame, event, arg: lines.append(frame.f_lineno) if event == "line" else None
        return None

    sys.settrace(trace)
    try:
        out = f(*args)
    except NotApplicableError as exc:
        out = exc
    finally:
        sys.settrace(old)
    return len(lines), out


def test_series_is_refused_before_its_loop_only_when_it_cannot_stop(monkeypatch):
    # with M terms, x/(a + j) < 1 bounds the total after m <= M terms by
    # (m + 1)/a and the last term from below by (x/(a + M))^M / a: where
    # M log(x/(a + M)) > log(2 eps (M + 1)) the stop fails at every m
    terms = 2**10
    monkeypatch.setattr(cont, "_MAX_TERMS", terms)
    seen = {"refused before the loop": 0, "refused after the loop": 0, "converged": 0}
    for a in (10.0 ** (e / 8) for e in range(24, 105)):  # 1e3 .. 1e13
        for x in (a + 0.5, a, a - 1.0, a - math.sqrt(a), a - 3 * math.sqrt(a), a - 30 * math.sqrt(a), 0.9 * a):
            hopeless = terms * math.log(x / (a + terms)) > math.log(2 * math.ulp(1.0) * (terms + 1))
            total = _series_total(a, x, terms)
            assert not (hopeless and total is not None), (a, x)
            lines, out = _lines_run(cont._incomplete_gamma, a, x)
            if total is not None:
                assert out[1:] == (total, False), (a, x)
                seen["converged"] += 1
            else:
                assert isinstance(out, NotApplicableError), (a, x)
                assert str(out) == f"P({a:.6g}, {x:.6g}) needs more than {terms} series terms"
                assert (lines < 10) == hopeless, (a, x, lines)
                seen["refused before the loop" if hopeless else "refused after the loop"] += 1
    assert min(seen.values()) > 10, seen


def test_hopeless_series_is_refused_at_once():
    # near x = a = 1e12 the series needs about 10 sqrt(a) = 1e7 terms; it ran
    # all 2^20 before it refused, 0.09 s per call
    lines, out = _lines_run(cont._incomplete_gamma, 1e12, 999983000000.0)
    assert isinstance(out, NotApplicableError) and "needs more than 1048576 series terms" in str(out)
    assert lines < 10


# ---------------------------------------------------------------------------
# Gamma TV oracle and bounds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def same_sign():
    """Same-sign pairs (the far-tail pair first) with their mpmath TV."""
    pairs = [FAR_TAIL] + _same_sign_pairs(5, 3)
    return [(a, b, _mp_tv(a, b)) for a, b in pairs]


def test_tv_oracle_brackets_mpmath(same_sign):
    pairs = same_sign + [(a, b, _mp_tv(a, b)) for a, b in [
        (GammaParams(3.0, 1.0), GammaParams(2.0, 2.0)),  # opposite signs: one crossing
        (GammaParams(0.5, 1.0), GammaParams(0.5, 2.5)),  # equal shapes, density unbounded at 0
        (GammaParams(1.0, 1.0), GammaParams(2.0, 1.0)),  # equal rates, crossing at exactly 1
    ]]
    for a, b, tv in pairs:
        oracle = cont.tv_gamma_quadrature(a, b)
        assert oracle.lo <= tv <= oracle.hi, (a, b, tv, oracle)
    assert cont.tv_gamma_quadrature(GammaParams(2.0, 1.0), GammaParams(2.0, 1.0)).hi == 0.0


@pytest.mark.parametrize("a, b", [((1e-4, 1.0), (2e-4, 1.0)), ((1e-3, 1.0), (2e-3, 1.0))])
def test_tv_oracle_brackets_mpmath_when_the_crossing_underflows(a, b):
    # equal rates: the densities cross once, at x = (Gamma(a)/Gamma(b))^(1/(a-b)),
    # e^-6932.05 for the first pair (below the float range) and 5.25e-302 for
    # the second, and the TV is P(a, x) - P(b, x), 0.2500000041 and 0.2500004106
    a, b = GammaParams(*a), GammaParams(*b)
    ka, kb = mp.mpf(a.kappa), mp.mpf(b.kappa)
    x = mp.exp((mp.loggamma(ka) - mp.loggamma(kb)) / (ka - kb))
    tv = float(mp.gammainc(ka, 0, x, regularized=True) - mp.gammainc(kb, 0, x, regularized=True))
    oracle = cont.tv_gamma_quadrature(a, b)
    assert oracle.lo - 1e-9 <= tv <= oracle.hi + 1e-9, (tv, oracle)


def test_anchored_bound_dominates_mpmath_tv(same_sign):
    for a, b, tv in same_sign:
        report = cont.gamma_tv_bound_anchored(a, b)
        assert all(bound >= tv for bound in report.core_bounds()) and report.dominated
        assert report.oracle_tv.lo <= tv <= report.oracle_tv.hi


def test_anchored_bound_at_shape_1e7_dominates_mpmath_tv():
    # the log-densities sum terms near 3e8.  The densities are too peaked for
    # the quadrature over the half-line: the TV is |int (f_a - f_b)| between
    # the two crossings, at 50 digits.
    a, b = GammaParams(1e7, 1e7), GammaParams(2e7, 2.00001e7)
    report = cont.gamma_tv_bound_anchored(a, b)
    x1, x2 = _mp_crossings(a, b)
    fa, fb = _mp_density(a, mp), _mp_density(b, mp)
    tv = float(abs(mp.quad(lambda x: fa(x) - fb(x), [x1, x2])))
    assert all(bound >= tv for bound in report.core_bounds()) and report.dominated
    assert report.oracle_tv.lo <= tv <= report.oracle_tv.hi


def tv_bound_matched(mu, nu, z):
    """Closed-form TV bound at a score-matched point from the two
    log-densities: ``min(f_nu(z)/f_mu(z) - 1, 1 - f_mu(z)/f_nu(z))``, clamped
    to [0, 1].  Each log-density sums ``kap log lam``, ``(kap - 1) log z``,
    ``lam z`` and ``lgamma(kap)``, another route to the density ratio than
    ``gamma_tv_bound_anchored``'s prefactor difference, so it serves as its
    oracle."""
    s_nu, s_mu = cont._score(nu, z), cont._score(mu, z)
    # each score is the difference of (kap - 1)/z and lam: it is good to a few ulps of those
    assert abs(s_nu - s_mu) <= 1e-10 * max(1.0, *(abs(g.kappa - 1.0) / z + g.lam for g in (mu, nu)))
    log_density = lambda g: g.kappa * math.log(g.lam) + (g.kappa - 1.0) * math.log(z) - g.lam * z - math.lgamma(g.kappa)
    ratio = cont._safe_exp(log_density(nu) - log_density(mu))
    return min(max(min(ratio - 1.0, 1.0 - 1.0 / ratio), 0.0), 1.0)


def _mp_matched_bound(lo, hi):
    """``min(R - 1, 1 - 1/R)`` clamped to [0, 1] at 50 digits, for the density
    ratio ``R = f_hi(z)/f_lo(z)`` at the score-matched point of the float
    inputs."""
    kl, ll, kh, lh = (mp.mpf(v) for v in (lo.kappa, lo.lam, hi.kappa, hi.lam))
    dk = kh - kl
    z = dk / (lh - ll)
    log_r = kh * mp.log(lh) - kl * mp.log(ll) + mp.loggamma(kl) - mp.loggamma(kh) + dk * mp.log(z) - dk
    return float(min(max(min(mp.expm1(log_r), -mp.expm1(-log_r)), 0), 1))


def test_anchored_bound_against_the_density_oracle_at_shapes_to_1e9():
    # random same-sign pairs, each difference a relative 1e-9 to 1 of its
    # parameter, so that many bounds lie inside (0, 1); the last pair's log R
    # is 1.5e-9, summed from terms near 2e10
    rng = random.Random(2024)
    pairs = []
    for _ in range(300):
        kappa, lam = 10 ** rng.uniform(-1, 9), 10 ** rng.uniform(-3, 3)
        lo = GammaParams(kappa, lam)
        hi = GammaParams(kappa * (1 + 10 ** rng.uniform(-9, 0)), lam * (1 + 10 ** rng.uniform(-9, 0)))
        pairs.append((hi, lo) if rng.random() < 0.5 else (lo, hi))
    pairs.append((GammaParams(1000000003.0, 1000000001.0), GammaParams(1000000000.0, 999999998.0)))
    for a, b in pairs:
        report = cont.gamma_tv_bound_anchored(a, b)
        lo, hi = sorted((a, b), key=lambda g: g.kappa)
        z = report.details["z"]
        # the oracle sums terms as large as kap log kap: allow a few ulps of them
        rounding = 4.0 * cont._EPS * sum(
            abs(g.kappa * math.log(g.lam)) + abs((g.kappa - 1.0) * math.log(z)) + g.lam * z
            + abs(math.lgamma(g.kappa)) for g in (lo, hi))
        assert abs(report.simplified - tv_bound_matched(lo, hi, z)) <= 1e-9 + rounding, (a, b)
        want = _mp_matched_bound(lo, hi)
        assert abs(report.simplified - want) <= 2e-5 * want + 1e-15, (a, b, report.simplified, want)
        assert report.simplified == min(report.bound_nu_side, report.bound_mu_side)


def test_anchored_sides_keep_their_digits_at_shape_1e9():
    # at log R = 1.5e-9, R - 1 and 1 - 1/R differ by (R - 1)^2 / R = 2.25e-18,
    # but formed from the rounded R both read 1.500000124111e-09.  As
    # expm1(log R) and -expm1(-log R) each side is, to an ulp, the 50-digit
    # value at the report's own log R, which the prefactor difference gives
    # to 1e-7 relative of the 50-digit one
    a, b = GammaParams(1000000003.0, 1000000001.0), GammaParams(1000000000.0, 999999998.0)
    report = cont.gamma_tv_bound_anchored(a, b)
    mu_side, nu_side = report.bound_mu_side, report.bound_nu_side
    log_r = mp.log1p(mp.mpf(mu_side))
    assert nu_side == pytest.approx(float(-mp.expm1(-log_r)), rel=1e-15)
    assert mu_side - nu_side == pytest.approx(mu_side**2 / (1.0 + mu_side), rel=1e-6)
    kl, ll, kh, lh = (mp.mpf(v) for v in (b.kappa, b.lam, a.kappa, a.lam))
    dk = kh - kl
    want = kh * mp.log(lh) - kl * mp.log(ll) + mp.loggamma(kl) - mp.loggamma(kh) + dk * mp.log(dk / (lh - ll)) - dk
    assert float(log_r) == pytest.approx(float(want), rel=1e-7)


def test_perturbative_report_needs_log_concave_laws():
    # at shapes 0.1 and 0.001 the bound, 0.767, is below the TV, 0.945: a
    # shape below 1 fails the report's hypothesis, which reports no simplified
    rep = cont.gamma_tv_bound_perturbative(GammaParams(0.1, 1.0), GammaParams(0.001, 1.0), 1.0)
    assert rep.stated_bound == pytest.approx(0.7668354473652, rel=1e-12)
    assert rep.oracle_tv.lo > rep.stated_bound
    assert not rep.hypothesis.holds and rep.simplified is None
    assert rep.status == "hypothesis_failed" and rep.dominated is None
    rep = cont.gamma_tv_bound_perturbative(GammaParams(3.0, 2.0), GammaParams(2.0, 1.0), 1.0)
    assert rep.status == "certified" and rep.simplified == min(rep.stated_bound, 1.0)
    assert rep.details == {"z": 1.0} and rep.dominated is True


def _mp_perturbative(a, b, z):
    """Case ii's formula at 50 digits."""
    ka, la, kb, lb, z = (mp.mpf(v) for v in (a.kappa, a.lam, b.kappa, b.lam, z))
    lead = (z / mp.e) ** (ka - kb)
    return abs(lead - 1) + lead * (1 + ka + kb) * mp.mpf(2) ** (ka + 1) * mp.sqrt(abs((ka - kb) / z + lb - la) / lb)


def _perturbative_draw(rng, far):
    """Valid case-ii inputs: shapes 1-6, rates 0.2-3 and ``z`` 0.1-10, where
    the direct form stays in the float range, or (``far``) shapes past 1023,
    where ``2^(kap_1 + 1)`` alone overflows, with the lead term sized so that
    the bound spans e^-720 .. e^720 around 1."""
    while True:
        z, lb = rng.uniform(0.1, 10), rng.uniform(0.2, 3)
        if far:
            ka, z = rng.uniform(1024, 3000), rng.uniform(0.1, 2.5)
            kb = ka - ((ka + 1) * math.log(2.0) + rng.uniform(-720, 700)) / (1 - math.log(z))
            la = (ka - kb) / z + lb - rng.uniform(-3, 0.24) * lb
        else:
            ka, kb, la = rng.uniform(1, 6), rng.uniform(1, 6), rng.uniform(0.2, 3)
        if kb > 0 and la > 0 and (ka - kb) / z + lb - la <= lb / 4:
            return GammaParams(ka, la), GammaParams(kb, lb), z


def test_perturbative_bound_against_mpmath():
    # the log-space form on both sides of where the direct form overflowed,
    # within 1e-13 plus the rounding of its inputs: dk = kap_1 - kap_2, log z
    # and the logs of size kap_1 are off by eps of their size, and the drift
    # by eps of its terms, which cancel; a bound past e^709 saturates to inf
    rng = random.Random(35)
    for i in range(500):
        a, b, z = _perturbative_draw(rng, far=i % 2 == 1)
        got, want = cont.gamma_tv_bound_perturbative(a, b, z).stated_bound, _mp_perturbative(a, b, z)
        if got == math.inf:
            assert want > mp.exp(709), (a.kappa, b.kappa, z)
            continue
        dk = a.kappa - b.kappa
        drift = dk / z + b.lam - a.lam
        sizes = abs(dk) * (abs(math.log(z)) + 1.0) + (a.kappa + 1.0) * math.log(2.0) + (
            abs(dk / z) + a.lam + b.lam) / abs(drift)
        assert abs(got - want) <= (1e-13 + 8 * cont._EPS * sizes) * want, (a.kappa, a.lam, b.kappa, b.lam, z)


def test_anchored_report_reads_the_crossings_it_carries():
    a, b = GammaParams(3.0, 2.0), GammaParams(2.0, 1.0)
    rep = cont.gamma_tv_bound_anchored(a, b)
    assert rep.details["crossings"] == cont.gamma_density_crossings(a, b)
    assert rep.oracle_tv == cont.tv_gamma_quadrature(a, b)


def test_perturbative_bound_dominates_mpmath_tv():
    # near-identical pairs, where the bound is below 1, and the golden CLI case
    cases = [((2.0, 1.0), (2.0, 1.00001), 1.0), ((2.001, 1.0), (2.0, 1.0), 2.0), ((1.0, 2.0), (1.0, 2.0005), 0.5),
             ((3.0, 1.5), (3.0002, 1.5), 2.0), ((0.5, 1.0), (0.5001, 1.0), 0.5), ((2.0, 1.0), (2.0, 1.1), 1.0)]
    for (ka, la), (kb, lb), z in cases:
        a, b = GammaParams(ka, la), GammaParams(kb, lb)
        assert cont.gamma_tv_bound_perturbative(a, b, z).stated_bound >= _mp_tv(a, b), (a, b, z)


def test_score_anchored_envelopes_dominate_mpmath_tv(same_sign):
    # the larger shape is the target: log(f_hi / f_lo) = dk log x - dl x + C is concave
    for a, b, tv in same_sign[:4]:
        lo, hi = (b, a) if a.kappa > b.kappa else (a, b)
        x_star = (hi.kappa - lo.kappa) / (hi.lam - lo.lam)
        for z in (x_star / 3.0, x_star * 0.9, x_star * 2.5):
            assert min(cont.tv_bound_continuous(lo, hi, z)) >= tv - 1e-12, (lo, hi, z)


def test_score_matched_envelopes_reduce_to_closed_form():
    # scores (kap - 1)/z - lam agree exactly at z = 2: 1/2 - 1/2 = 2/2 - 1 = 0
    mu, nu = GammaParams(2.0, 0.5), GammaParams(3.0, 1.0)
    c = cont.gamma_density_model(nu).f(2.0) / cont.gamma_density_model(mu).f(2.0)
    mu_side, nu_side = cont.tv_bound_continuous(mu, nu, 2.0)
    assert mu_side == pytest.approx(c - 1.0, abs=1e-9)
    assert nu_side == pytest.approx(1.0 - 1.0 / c, abs=1e-9)
    assert min(mu_side, nu_side) == pytest.approx(tv_bound_matched(mu, nu, 2.0), abs=1e-9)


def _mp_envelopes(mu, nu, z):
    """Both envelope integrals at 30 digits, clamped to [0, 1], and the set of
    branches taken: on the region where the integrands are positive, each is
    a Gamma mass and a tilted one, from mpmath's incomplete gamma, or from its
    1F1 where the tilted rate is not positive."""
    ctx = mpe
    z = ctx.mpf(z)
    (km, lm), (kn, ln) = laws = [(ctx.mpf(g.kappa), ctx.mpf(g.lam)) for g in (mu, nu)]
    d = ((kn - 1) / z - ln) - ((km - 1) / z - lm)
    log_c = sum(s * (k * ctx.log(lam) + (k - 1) * ctx.log(z) - lam * z - ctx.loggamma(k))
                for s, (k, lam) in zip((-1, 1), laws))
    x0 = max(z - log_c / d, 0) if d else (0 if log_c > 0 else ctx.inf)
    lo, hi = (x0, ctx.inf) if d > 0 or (d == 0 and log_c > 0) else (0, x0)
    branches = set()

    def tilted(k, lam, t):
        # int_lo^hi e^{tx} f(x) dx for the Gamma(k, lam) density f
        r = lam - t
        if r > 0:
            return (lam / r) ** k * ctx.gammainc(k, r * lo, r * hi, regularized=True)
        branches.add("divergent" if hi == ctx.inf else "series")
        if hi == ctx.inf:
            return ctx.inf
        return (lam * hi) ** k / ctx.gamma(k + 1) * ctx.hyp1f1(k, k + 1, -r * hi)

    if lo == hi:
        return (0.0, 0.0), {"empty"}
    mu_side = ctx.exp(log_c - z * d) * tilted(km, lm, d) - tilted(km, lm, 0)
    nu_side = tilted(kn, ln, 0) - ctx.exp(z * d - log_c) * tilted(kn, ln, -d)
    return tuple(float(min(max(v, 0), 1)) for v in (mu_side, nu_side)), branches


def test_envelopes_against_mpmath():
    # both orientations of random pairs, and shapes near 1e4 and 1e6, where
    # lam^kappa and Gamma(kappa) are far outside the float range
    rng = random.Random(17)
    cases = [(GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.1, 4.0)),
              GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.1, 4.0)), rng.uniform(0.05, 8.0)) for _ in range(200)]
    cases += [(GammaParams(1e4, 1e4), GammaParams(1.0001e4, 1.00005e4), 0.99),
              (GammaParams(1e6, 1e6), GammaParams(1.000001e6, 1.0000005e6), 0.9995)]
    seen = set()
    for mu, nu, z in cases:
        got = cont.tv_bound_continuous(mu, nu, z)
        want, branches = _mp_envelopes(mu, nu, z)
        seen |= branches
        assert all(abs(g - w) <= 1e-13 for g, w in zip(got, want)), (mu, nu, z, got, want)
    assert seen == {"divergent", "series", "empty"}


# ---------------------------------------------------------------------------
# Kolmogorov oracle
# ---------------------------------------------------------------------------


def _expquad_sup():
    """sup |F - (1 - e^{-x})| for the density ``c e^{-x - x^2/2}``: the
    densities cross once, at ``sqrt(2 log c)``, where the CDF gap peaks."""
    s = mp.sqrt(mp.mpf(1) / 2)
    c = 1 / (mp.sqrt(mp.pi / 2) * mp.exp(mp.mpf(1) / 2) * mp.erfc(s))
    x = mp.sqrt(2 * mp.log(c))
    return abs((mp.erf((x + 1) * s) - mp.erf(s)) / mp.erfc(s) - (1 - mp.exp(-x)))


def _exp_sup(lam, rate):
    """sup |e^{-lam x} - e^{-rate x}|, attained at log(lam/rate)/(lam - rate)."""
    lam, rate = mp.mpf(lam), mp.mpf(rate)
    if lam == rate:
        return mp.mpf(0)
    x = mp.log(lam / rate) / (lam - rate)
    return abs(mp.exp(-lam * x) - mp.exp(-rate * x))


@pytest.mark.parametrize("name", ["expquad", "exp:0.5", "exp:2", "exp:7.3"])
def test_kolmogorov_oracle_brackets_mpmath_sup(name):
    report = cont.exp_kolmogorov_bound(cont.builtin_density(name))
    if name == "expquad":
        sup = _expquad_sup()
    else:
        sup = _exp_sup(float(name.split(":")[1]), report.details["rate"])
    # the CDFs are evaluated in floats, so the grid maximum may exceed the sup by rounding
    assert report.oracle_tv.lo <= sup + 1e-15 and sup <= report.oracle_tv.hi
    assert report.simplified >= sup and report.dominated


# ---------------------------------------------------------------------------
# bisection against scipy's brentq
# ---------------------------------------------------------------------------


def _bisect_calls(monkeypatch, work):
    """Every ``(f, a, b)`` that ``work()`` hands to ``_bisect``."""
    calls, real = [], cont._bisect

    def record(f, a, b):
        calls.append((f, a, b))
        return real(f, a, b)

    with monkeypatch.context() as m:
        m.setattr(cont, "_bisect", record)
        work()
    return calls


def _assert_sign_change(f, a, b, x):
    """``x`` is a zero of ``f`` or ends an adjacent-float pair inside
    ``[a, b]`` across which ``f`` changes sign."""
    fx = f(x)
    assert fx == 0 or any(a <= y <= b and f(y) * fx <= 0 for y in (math.nextafter(x, a), math.nextafter(x, b))), (a, b)


@pytest.mark.parametrize("xtol", [2e-12, 1e-300], ids=["default", "crossings"])
def test_bisect_root_on_gamma_gaps(monkeypatch, xtol):
    rng = random.Random(12)
    pairs = _same_sign_pairs(100, 11)
    pairs += [(GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0)),
               GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0))) for _ in range(60)]
    seen = 0
    for a, b in pairs:
        dk, dl = a.kappa - b.kappa, a.lam - b.lam
        for f, lo, hi in _bisect_calls(monkeypatch, lambda: cont.gamma_density_crossings(a, b)):
            seen += 1
            x = cont._bisect(f, lo, hi)
            _assert_sign_change(f, lo, hi, x)
            # brentq's tolerance, plus the rounding of h, the difference of
            # the prefactors kap log(lam x) - lam x - lgamma(kap) (shapes
            # below 20), over |h'|: any two sign changes of the rounded h lie
            # that close
            terms = sum(g.kappa * abs(math.log(g.lam * x)) + g.lam * x + abs(math.lgamma(g.kappa)) for g in (a, b))
            noise = 4 * cont._EPS * terms / abs(dk / x - dl)
            assert abs(x - optimize.brentq(f, lo, hi, xtol=xtol)) <= 2 * (xtol + 4 * cont._EPS * x) + noise, (lo, hi)
    assert seen > len(pairs)


@pytest.mark.parametrize("name", ["expquad", "exp:0.5", "exp:2", "exp:7.3"])
def test_bisect_root_on_kolmogorov_density_gaps(monkeypatch, name):
    # the densities cross at most once: expquad once, on a bracket that
    # brentq solves to the same root; exp:<rate> is its own exponential, so
    # its gap is rounding noise, bisected at most once, at any sign change
    calls = _bisect_calls(monkeypatch, lambda: cont.exp_kolmogorov_bound(cont.builtin_density(name)))
    assert len(calls) == 1 if name == "expquad" else len(calls) <= 1
    for f, a, b in calls:
        x = cont._bisect(f, a, b)
        _assert_sign_change(f, a, b, x)
        if name == "expquad":
            assert abs(x - optimize.brentq(f, a, b)) <= 2 * (2e-12 + 4 * cont._EPS * x), (a, b)


# ---------------------------------------------------------------------------
# benchmark tracer entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa, lam", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
def test_gamma_parameters_must_be_finite(kappa, lam):
    with pytest.raises(InvalidDistributionError, match="positive and finite"):
        GammaParams(kappa, lam)


def _bench_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_entry_points_exist():
    tracing = _bench_tracing()
    for entries in tracing.LAYERS.values():
        for entry in entries:
            mod_name, attr = entry.split(".", 1)
            module = importlib.import_module("tvbounds." + mod_name)
            if attr.endswith("[]"):
                assert isinstance(getattr(module, attr[:-2]), dict), entry
            elif "." in attr:
                cls_name, meth = attr.split(".")
                assert callable(vars(getattr(module, cls_name))[meth]), entry
            else:
                assert callable(getattr(module, attr)), entry


def test_tracer_installs_on_every_entry_point_and_uninstalls():
    # bench/run.py --trace 1 installs the tracer over every tvbounds module
    for info in pkgutil.iter_modules(tvbounds.__path__):
        importlib.import_module("tvbounds." + info.name)
    tracing = _bench_tracing()

    def resolve() -> dict:
        found = {}
        for entries in tracing.LAYERS.values():
            for entry in entries:
                mod_name, attr = entry.split(".", 1)
                module = sys.modules["tvbounds." + mod_name]
                if attr.endswith("[]"):
                    found[entry] = dict(getattr(module, attr[:-2]))
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    found[entry] = vars(getattr(module, cls_name))[meth]
                else:
                    found[entry] = getattr(module, attr)
        return found

    before = resolve()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = resolve()
    finally:
        tracer.uninstall()
    for entry, original in before.items():
        if entry.endswith("[]"):
            assert all(during[entry][key] is not fn for key, fn in original.items()), entry
        else:
            assert during[entry] is not original, entry
    assert resolve() == before
