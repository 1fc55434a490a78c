"""Continuous regime against mpmath: density crossings, the incomplete gamma,
the Gamma TV oracle, the Gamma and score-anchored bounds, and the Kolmogorov
oracle; Brent's method against scipy's; plus a guard that the benchmark
tracer's entry points still exist.
"""

import importlib
import importlib.util
import math
import pathlib
import random

import mpmath
import pytest
from scipy import optimize

from tvbounds import continuous as cont
from tvbounds.continuous import GammaParams
from tvbounds.errors import InvalidDistributionError

mp = mpmath.mp.clone()
mp.dps = 50
mpq = mpmath.mp.clone()  # quadrature needs far fewer digits than the roots
mpq.dps = 20


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


def test_anchored_bound_dominates_mpmath_tv(same_sign):
    for a, b, tv in same_sign:
        report = cont.gamma_tv_bound_anchored(a, b)
        assert all(bound >= tv for bound in report.core_bounds()) and report.dominated
        assert report.oracle_tv.lo <= tv <= report.oracle_tv.hi


def test_anchored_bound_at_shape_1e7_dominates_mpmath_tv():
    # both log-ratios sum terms near 3e8, so rounding parts them by ~4e-9; the
    # cross-check must allow for it.  The densities are too peaked for the
    # quadrature over the half-line: the TV is |int (f_a - f_b)| between the
    # two crossings, at 50 digits.
    a, b = GammaParams(1e7, 1e7), GammaParams(2e7, 2.00001e7)
    report = cont.gamma_tv_bound_anchored(a, b)
    x1, x2 = _mp_crossings(a, b)
    fa, fb = _mp_density(a, mp), _mp_density(b, mp)
    tv = float(abs(mp.quad(lambda x: fa(x) - fb(x), [x1, x2])))
    assert all(bound >= tv for bound in report.core_bounds()) and report.dominated
    assert report.oracle_tv.lo <= tv <= report.oracle_tv.hi


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_anchored_cross_check_catches_a_disagreement(monkeypatch, shift):
    # at ordinary shapes a 1e-6 error in one log-ratio still raises
    a, b = GammaParams(3.0, 2.0), GammaParams(2.0, 1.0)
    cont.gamma_tv_bound_anchored(a, b)
    log_density = cont.gamma_log_density
    monkeypatch.setattr(cont, "gamma_log_density", lambda g, x: log_density(g, x) + (shift if g is a else 0.0))
    with pytest.raises(AssertionError, match="disagree"):
        cont.gamma_tv_bound_anchored(a, b)


def test_perturbative_bound_dominates_mpmath_tv():
    # near-identical pairs, where the bound is below 1, and the golden CLI case
    cases = [((2.0, 1.0), (2.0, 1.00001), 1.0), ((2.001, 1.0), (2.0, 1.0), 2.0), ((1.0, 2.0), (1.0, 2.0005), 0.5),
             ((3.0, 1.5), (3.0002, 1.5), 2.0), ((0.5, 1.0), (0.5001, 1.0), 0.5), ((2.0, 1.0), (2.0, 1.1), 1.0)]
    for (ka, la), (kb, lb), z in cases:
        a, b = GammaParams(ka, la), GammaParams(kb, lb)
        assert cont.gamma_tv_bound_perturbative(a, b, z) >= _mp_tv(a, b), (a, b, z)


def test_score_anchored_envelopes_dominate_mpmath_tv(same_sign):
    # the larger shape is the target: log(f_hi / f_lo) = dk log x - dl x + C is concave
    for a, b, tv in same_sign[:4]:
        lo, hi = (b, a) if a.kappa > b.kappa else (a, b)
        fmu, fnu = cont.gamma_density_model(lo), cont.gamma_density_model(hi)
        x_star = (hi.kappa - lo.kappa) / (hi.lam - lo.lam)
        for z in (x_star / 3.0, x_star * 0.9, x_star * 2.5):
            assert min(cont.tv_bound_continuous(fmu, fnu, z)) >= tv - 1e-12, (lo, hi, z)


def test_score_matched_envelopes_reduce_to_closed_form():
    # scores (kap - 1)/z - lam agree exactly at z = 2: 1/2 - 1/2 = 2/2 - 1 = 0
    fmu, fnu = cont.gamma_density_model(GammaParams(2.0, 0.5)), cont.gamma_density_model(GammaParams(3.0, 1.0))
    c = fnu.f(2.0) / fmu.f(2.0)
    mu_side, nu_side = cont.tv_bound_continuous(fmu, fnu, 2.0)
    assert mu_side == pytest.approx(c - 1.0, abs=1e-9)
    assert nu_side == pytest.approx(1.0 - 1.0 / c, abs=1e-9)
    assert min(mu_side, nu_side) == pytest.approx(cont.tv_bound_matched(fmu, fnu, 2.0), abs=1e-9)


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
# Brent's method against scipy's
# ---------------------------------------------------------------------------


def _brentq_calls(monkeypatch, work):
    """Every ``(f, xa, xb)`` that ``work()`` hands to ``_brentq``."""
    calls, real = [], cont._brentq

    def record(f, xa, xb, **kw):
        calls.append((f, xa, xb))
        return real(f, xa, xb, **kw)

    with monkeypatch.context() as m:
        m.setattr(cont, "_brentq", record)
        work()
    return calls


@pytest.mark.parametrize("tol", [{}, {"xtol": 1e-300}], ids=["default", "crossings"])
def test_brentq_matches_scipy_on_gamma_gaps(monkeypatch, tol):
    rng = random.Random(12)
    pairs = _same_sign_pairs(100, 11)
    pairs += [(GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0)),
               GammaParams(rng.uniform(0.3, 8.0), rng.uniform(0.2, 5.0))) for _ in range(60)]
    calls = _brentq_calls(monkeypatch, lambda: [cont.gamma_density_crossings(a, b) for a, b in pairs])
    assert len(calls) > len(pairs)
    for f, xa, xb in calls:
        assert cont._brentq(f, xa, xb, **tol) == optimize.brentq(f, xa, xb, **tol), (xa, xb)


@pytest.mark.parametrize("name", ["expquad", "exp:0.5", "exp:2", "exp:7.3"])
def test_brentq_matches_scipy_on_kolmogorov_density_gaps(monkeypatch, name):
    # for exp:<rate> the gap is rounding noise around 0, so the steps are erratic
    calls = _brentq_calls(monkeypatch, lambda: cont.exp_kolmogorov_bound(cont.builtin_density(name)))
    assert calls
    for f, xa, xb in calls:
        assert cont._brentq(f, xa, xb) == optimize.brentq(f, xa, xb), (xa, xb)


# ---------------------------------------------------------------------------
# benchmark tracer entry points
# ---------------------------------------------------------------------------


def test_traced_entry_points_exist():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
