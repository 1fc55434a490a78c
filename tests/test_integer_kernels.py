"""The exact kernels run on integer numerators; the ``Fraction`` versions they
replaced are kept here as the oracle, and every result must equal it."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds import (
    AbsoluteContinuityError,
    DiscreteDist,
    InvalidDistributionError,
    certify,
    family_binomial,
    make_dist,
    tv_distance,
)
from tvbounds.bounds import anchor_at, _candidate_anchors, tv_bound_matched_anchor, tv_bounds_at_anchor
from tvbounds.distributions import (
    CERT_REL_TOL,
    Interval,
    _log2_undecided,
    _pair_scan,
    _three_term,
    is_log_concave,
    is_log_concave_relative,
    is_ulc,
    is_ulc_infinity,
)
from tvbounds.sums import BernoulliVector, binomial_bound_primary, binomial_target, poisson_binomial_pmf


# ---------------------------------------------------------------------------
# Fraction oracle: the kernels as they were before the integer backend
# ---------------------------------------------------------------------------


def oracle_certificate(nu, mu):
    """(holds, first_violation, support_is_interval), or the index that breaks
    absolute continuity."""
    for k in range(min(mu.offset, nu.offset), max(mu.end, nu.end)):
        if nu.mass(k) > 0 and mu.mass(k) == 0:
            return ("absolute continuity", k)
    pos = [nu.offset + i for i, m in enumerate(nu.masses) if m > 0]
    lo, hi = pos[0], pos[-1]
    for k in range(lo, hi + 1):
        if nu.mass(k) == 0:
            return (False, k, False)
    for k in range(lo + 1, hi):
        qm, q0, qp = nu.mass(k - 1), nu.mass(k), nu.mass(k + 1)
        pm, p0, pp = mu.mass(k - 1), mu.mass(k), mu.mass(k + 1)
        if not qm * qp * p0 * p0 <= q0 * q0 * pm * pp:
            return (False, k, True)
    return (True, None, True)


def oracle_tv(mu, nu):
    t = F(0)
    for k in range(min(mu.offset, nu.offset), max(mu.end, nu.end)):
        d = nu.mass(k) - mu.mass(k)
        if d > 0:
            t += d
    return Interval(max(t - mu.tail_deficit, F(0)), min(t + nu.tail_deficit, F(1)))


def _oracle_products(mu, nu, ell):
    return mu.mass(ell + 1) * nu.mass(ell), nu.mass(ell + 1) * mu.mass(ell)


def _oracle_gap(lhs, rhs):
    scale = max(lhs, rhs)
    return math.inf if scale == 0 else float(abs(lhs - rhs) / scale)


def _sign(x):
    return (x > 0) - (x < 0)


def oracle_candidates(mu, nu):
    """``(ell, sign of lhs - rhs, gap)`` per valid anchor."""
    out = []
    for ell in range(nu.support_min, nu.support_max):
        if nu.mass(ell) > 0 and nu.mass(ell + 1) > 0:
            lhs, rhs = _oracle_products(mu, nu, ell)
            out.append((ell, _sign(lhs - rhs), _oracle_gap(lhs, rhs)))
    return out


def oracle_anchor(mu, nu, ell):
    lhs, rhs = _oracle_products(mu, nu, ell)
    return ell, lhs == rhs != 0, _oracle_gap(lhs, rhs)


def oracle_envelope(mu, nu, ell):
    ql, ql1 = nu.mass(ell), nu.mass(ell + 1)
    pl, pl1 = mu.mass(ell), mu.mass(ell + 1)
    r = F(pl1) * ql / (F(pl) * ql1)
    ratio = F(pl) / F(ql)
    b_nu = F(0)
    for i, q in enumerate(nu.masses):
        if q > 0:
            term = 1 - ratio * r ** (nu.offset + i - ell)
            if term > 0:
                b_nu += term * q
    b_mu = F(0)
    for i, p in enumerate(mu.masses):
        if p > 0:
            term = (1 / ratio) * (1 / r) ** (mu.offset + i - ell) - 1
            if term > 0:
                b_mu += term * p
    return min(max(b_nu, F(0)), F(1)), min(max(b_mu, F(0)), F(1))


def oracle_matched(mu, nu, ell):
    """The closed form at a matched anchor as ``bounds`` took it before it
    formed ``1 - p/q`` alone: both branches of ``min(q/p - 1, 1 - p/q)`` on
    ``Fraction`` cells, clamped to [0, 1]."""
    ql, pl = F(nu.mass(ell)), F(mu.mass(ell))
    return min(max(min(ql / pl - 1, 1 - pl / ql), F(0)), F(1))


def oracle_report_bounds(mu, nu, ell):
    """The two envelope bounds a report carries at ``ell``: each bounds the TV
    of the stored cells, so it is raised by the target's tail deficit, which
    the true TV can exceed it by, and clamped again."""
    return tuple(float(min(b + nu.tail_deficit, F(1))) for b in oracle_envelope(mu, nu, ell))


# ---------------------------------------------------------------------------
# random exact laws
# ---------------------------------------------------------------------------

_WEIGHT = st.one_of(st.just(0), st.integers(1, 20))


@st.composite
def weighted_laws(draw):
    """Fraction cells with zeros anywhere (some of them int 0) and a Fraction
    tail deficit that may vanish."""
    weights = draw(st.lists(_WEIGHT, min_size=1, max_size=10).filter(any))
    tail = draw(st.sampled_from([0, 0, 1, 3]))
    total = sum(weights) + tail
    int_zeros = draw(st.booleans())
    masses = tuple(0 if w == 0 and int_zeros else F(w, total) for w in weights)
    return DiscreteDist(draw(st.integers(-3, 3)), masses, F(tail, total))


@st.composite
def point_masses(draw):
    """A single atom held as ``int`` cells, possibly padded with zeros."""
    length = draw(st.integers(1, 4))
    masses = [0] * length
    masses[draw(st.integers(0, length - 1))] = 1
    return DiscreteDist(draw(st.integers(-3, 3)), tuple(masses), 0)


@st.composite
def binomial_laws(draw):
    n = draw(st.integers(0, 9))
    den = draw(st.integers(2, 12))
    law = family_binomial(n, F(draw(st.integers(1, den - 1)), den))
    return law.shifted(draw(st.integers(-3, 3)))


_LAW = st.one_of(weighted_laws(), point_masses(), binomial_laws())


@st.composite
def law_pairs(draw):
    """(mu, nu) in either order; sometimes a law against itself."""
    a = draw(_LAW)
    b = a if draw(st.integers(0, 5)) == 0 else draw(_LAW)
    return (a, b) if draw(st.booleans()) else (b, a)


def _certificate(nu, mu):
    try:
        c = is_log_concave_relative(nu, mu)
    except AbsoluteContinuityError as e:
        return ("absolute continuity", e.details["index"])
    return (c.holds, c.first_violation, c.support_is_interval)


def row_anchor(mu, nu, ell):
    """The anchor record ``certify`` builds at ``ell``: ``anchor_at`` of the
    gap row of ``_pair_scan`` at ``ell``, or None where it has no row."""
    rows = _pair_scan(mu, nu, ell)[2]
    return anchor_at(rows[0]) if rows else None


def _valid_anchors(mu, nu):
    return [ell for ell in range(nu.offset, nu.end - 1)
            if nu.mass(ell) > 0 and nu.mass(ell + 1) > 0 and mu.mass(ell) > 0 and mu.mass(ell + 1) > 0]


class TestIntegerKernelsEqualFractionOracle:
    @settings(max_examples=400, deadline=None)
    @given(law_pairs())
    def test_every_kernel(self, pair):
        mu, nu = pair
        assert _certificate(nu, mu) == oracle_certificate(nu, mu)
        tv = tv_distance(mu, nu)
        assert tv == oracle_tv(mu, nu)
        assert all(type(v) is F for v in tv)
        cands = _candidate_anchors(mu, nu)
        assert cands == oracle_candidates(mu, nu)
        for ell, _, _ in cands:
            a = row_anchor(mu, nu, ell)
            assert (a.ell, a.ratio_matched, a.ratio_gap) == oracle_anchor(mu, nu, ell)
        for ell in _valid_anchors(mu, nu):
            assert tv_bounds_at_anchor(mu, nu, ell) == oracle_envelope(mu, nu, ell)
        rep = certify(mu, nu)
        if rep.bound_nu_side is not None and rep.oracle_tv.hi != 0:
            assert (rep.bound_nu_side, rep.bound_mu_side) == oracle_report_bounds(mu, nu, rep.anchor.ell)

    @settings(max_examples=300, deadline=None)
    @given(law_pairs())
    def test_matched_closed_form(self, pair):
        # 1 - p/q is the smaller branch for every positive p and q, so the
        # one-Fraction form equals the two-branch one at every valid anchor
        mu, nu = pair
        for ell in _valid_anchors(mu, nu):
            got = tv_bound_matched_anchor(mu, nu, ell)
            assert got == oracle_matched(mu, nu, ell) and type(got) is F

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_report_bounds_carry_the_target_deficit(self, cut):
        # the target is a binomial with its top cells cut into its deficit
        mu, full = family_binomial(6, F(1, 3)), family_binomial(6, F(2, 5))
        nu = DiscreteDist(0, full.masses[:-cut], sum(full.masses[-cut:]))
        rep = certify(mu, nu)
        assert rep.hypothesis.holds and nu.tail_deficit > 0
        assert (rep.bound_nu_side, rep.bound_mu_side) == oracle_report_bounds(mu, nu, rep.anchor.ell)
        assert min(rep.bound_nu_side, rep.bound_mu_side) >= tv_distance(mu, full).hi
        assert rep.dominated is True

    def test_matched_anchor_with_the_target_below_the_reference_reports(self):
        # the target's cells are the reference's times 17/20, short of its
        # deficit 3/20: the anchor is matched with the target below the
        # reference, where certify used to raise; the closed form
        # clamps to 0 there, as the envelope sums do, before the deficit
        mu = DiscreteDist(2, (F(13, 17), F(4, 17)), F(0))
        nu = DiscreteDist(2, (F(13, 20), F(1, 5)), F(3, 20))
        rep = certify(mu, nu)
        assert rep.anchor.ratio_matched
        assert (rep.bound_nu_side, rep.bound_mu_side) == oracle_report_bounds(mu, nu, 2) == (0.15, 0.15)
        assert rep.simplified == 0.15 and rep.dominated is True

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_poisson_binomial_against_binomial(self, n):
        rng = random.Random(n)
        bv = BernoulliVector(tuple(F(rng.randint(1, 49), 100) for _ in range(n)))
        mu, nu = binomial_target(bv), poisson_binomial_pmf(bv)
        assert _certificate(nu, mu) == oracle_certificate(nu, mu) == (True, None, True)
        assert tv_distance(mu, nu) == oracle_tv(mu, nu)
        assert _candidate_anchors(mu, nu) == oracle_candidates(mu, nu)
        assert oracle_anchor(mu, nu, 0)[1] and row_anchor(mu, nu, 0).ratio_matched
        for ell in _valid_anchors(mu, nu):
            assert tv_bounds_at_anchor(mu, nu, ell) == oracle_envelope(mu, nu, ell)

    def test_validation_uses_the_integer_sum(self):
        d = DiscreteDist(0, (F(1, 3), F(1, 6)), F(1, 2))
        assert d.integer_masses == ((2, 1), 6)
        with pytest.raises(InvalidDistributionError, match="sum to"):
            DiscreteDist(0, (F(1, 3), F(1, 6)), F(1, 3))


# ---------------------------------------------------------------------------
# the exact TV decides each sign on log2 magnitudes, and the products at ties
# ---------------------------------------------------------------------------


@st.composite
def nudged_pairs(draw):
    """A binomial law on numerators of 40 bits or more per cell, and the same
    numerators, possibly scaled with their denominator, each moved by -1, 0 or
    +1: every TV term lies well inside the log2 margin of a tie, so the
    products decide its sign.  The moves shift the total by under 1e-10."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(2**40, 2**64))
    mu = family_binomial(n, F(draw(st.integers(1, d - 1)), d))
    nums, den = mu.integer_masses
    scale = draw(st.sampled_from([1, 3, 2**70 + 1]))
    moved = [scale * x + (draw(st.sampled_from([-1, 0, 1])) if x > 1 else 0) for x in nums]
    nu = DiscreteDist.from_numerators(draw(st.integers(-2, 2)), moved, scale * den)
    return (mu, nu) if draw(st.booleans()) else (nu, mu)


class TestExactTVSigns:
    @settings(max_examples=200, deadline=None)
    @given(_LAW)
    def test_law_against_itself(self, law):
        # every term is a tie: its point value is exactly 0
        tv = tv_distance(law, law)
        assert tv == oracle_tv(law, law) and tv.lo == 0 and all(type(v) is F for v in tv)

    def test_binomial_against_itself_up_to_150(self):
        rng = random.Random(150)
        for n in range(151):
            d = rng.randint(2, 10**6)
            law = family_binomial(n, F(rng.randint(1, d - 1), d))
            for other in (law, DiscreteDist(0, law.masses, 0)):
                tv = tv_distance(law, other)
                assert tv == (0, 0) and all(type(v) is F for v in tv), n

    @settings(max_examples=200, deadline=None)
    @given(nudged_pairs())
    def test_near_ties(self, pair):
        mu, nu = pair
        assert tv_distance(mu, nu) == oracle_tv(mu, nu)


# ---------------------------------------------------------------------------
# laws built from integer numerators equal their Fraction forms
# ---------------------------------------------------------------------------


def _same_law(got, want):
    """``got``, built from integer numerators, is the law ``want`` built from
    its masses; the readers of signs, positions and floats leave its
    ``Fraction`` masses unformed."""
    assert (got.offset, got.end, got.support_min, got.support_max) == (
        want.offset, want.end, want.support_min, want.support_max)
    assert all(got.mass(k) == want.mass(k) for k in range(got.offset - 1, got.end + 1))
    assert got.to_float().masses == want.to_float().masses
    assert got.to_json() == want.to_json()
    assert "masses" not in vars(got)
    assert got.masses == want.masses and all(type(m) is F for m in got.masses)
    assert got.integer_masses == want.integer_masses
    assert got.is_exact is want.is_exact is True
    assert got.tail_deficit == want.tail_deficit and type(got.tail_deficit) is type(want.tail_deficit)


_EXACT_P = st.one_of(
    st.integers(2, 12).flatmap(lambda d: st.integers(0, d - 1).map(lambda k: F(k, d))),
    st.integers(2, 2**70).flatmap(lambda d: st.integers(1, d - 1).map(lambda k: F(k, d))),
)
_EXACT_VECTORS = st.one_of(
    st.lists(_EXACT_P, min_size=1, max_size=30),
    # every summand's b - a, a or b shares the factor 2 with another's
    st.lists(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)]), min_size=1, max_size=40),
    st.integers(1, 40).map(lambda n: (F(1, 2),) * n),
)


class TestIntegerBuiltLaws:
    @settings(max_examples=200, deadline=None)
    @given(_EXACT_VECTORS)
    def test_poisson_binomial_pmf(self, ps):
        # the cells are the coefficients of prod ((b - a) + a z) over prod b
        band, den = [1], 1
        for x in ps:
            a, b = x.as_integer_ratio()
            band = [(b - a) * u + a * v for u, v in zip(band + [0], [0] + band)]
            den *= b
        law = poisson_binomial_pmf(BernoulliVector(ps))
        _same_law(law, DiscreteDist(0, [F(x, den) for x in band], F(0)))
        # a prime dividing den and every cell would divide one factor
        # (b - a) + a z, so both a and b: the band is in lowest terms already
        assert law.integer_masses[1] == den

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 60), st.one_of(_EXACT_P, st.just(0)))
    def test_binomial(self, n, p):
        want = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        _same_law(family_binomial(n, p), DiscreteDist(0, want, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 50), st.fractions(0, 5, max_denominator=30)), min_size=1, max_size=12)
           .filter(any), st.sampled_from([1, 2, 6, 2**65]), st.integers(-3, 3))
    def test_make_dist(self, masses, scale, offset):
        # scaled, every cell shares the factor with the total, which the
        # numerators and their denominator are divided by once
        masses = [scale * m for m in masses]
        total = sum(map(F, masses))
        _same_law(make_dist(offset, masses), DiscreteDist(offset, [F(m) / total for m in masses], F(0)))

    @settings(max_examples=200, deadline=None)
    @given(_EXACT_VECTORS)
    def test_lambda_and_primary_bound(self, ps):
        bv = BernoulliVector(ps)
        assert bv.lambda_n == sum(map(F, bv.p, bv.alphas)) and type(bv.lambda_n) is F
        t = (1 + bv.lambda_n / bv.n) ** bv.n * math.prod(bv.alphas)
        got = binomial_bound_primary(bv)
        assert got == float(min(t - 1, 1 - 1 / t)) and type(got) is float


# ---------------------------------------------------------------------------
# float and exact backends agree on every verdict
# ---------------------------------------------------------------------------

_COUNTS = st.lists(st.integers(1, 20), min_size=1, max_size=12)


class TestFloatExactVerdictAgreement:
    # integer masses in 1..20 put any violation's relative margin at 20^-4 or
    # more, far above CERT_REL_TOL = 1e-12, so the float slack and rounding
    # cannot flip a verdict
    @settings(max_examples=300, deadline=None)
    @given(_COUNTS, _COUNTS, st.integers(0, 11), st.integers(-3, 3))
    def test_same_verdict(self, ref, target, start, offset):
        start = min(start, len(ref) - 1)
        target = target[: len(ref) - start]
        mu = make_dist(offset, ref)
        nu = make_dist(offset + start, target)
        exact = is_log_concave_relative(nu, mu)
        approx = is_log_concave_relative(nu.to_float(), mu.to_float())
        assert (approx.holds, approx.first_violation) == (exact.holds, exact.first_violation)


# ---------------------------------------------------------------------------
# O(1) Fraction arithmetic per certify
# ---------------------------------------------------------------------------

_COUNTED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__pow__", "__rpow__")


def _fraction_ops_in_certify(n, monkeypatch):
    rng = random.Random(2210)
    bv = BernoulliVector(tuple(F(rng.randint(1, 49), 100) for _ in range(n)))
    mu, nu = binomial_target(bv), poisson_binomial_pmf(bv)
    calls = []
    with monkeypatch.context() as m:
        for name in _COUNTED:
            op = getattr(F, name)
            m.setattr(F, name, lambda a, b, *rest, _op=op, _name=name: calls.append(_name) or _op(a, b, *rest))
        report = certify(mu, nu)
    assert report.anchor is not None and report.anchor.ratio_matched
    assert report.dominated
    return len(calls)


def test_certify_does_constant_fraction_arithmetic(monkeypatch):
    small = _fraction_ops_in_certify(20, monkeypatch)
    assert small == _fraction_ops_in_certify(120, monkeypatch)
    assert small < 40


# ---------------------------------------------------------------------------
# the log2 pre-check never changes an exact verdict
# ---------------------------------------------------------------------------


def oracle_three_term(a, weights):
    """(holds, first_violation) of the plain loop on exact products: interval
    support, then ``a[i-1] a[i+1] L <= a[i]^2 R`` with ``(L, R) = weights(i)``."""
    pos = [i for i, v in enumerate(a) if v > 0]
    for i in range(pos[0], pos[-1] + 1):
        if a[i] == 0:
            return False, i
    for i in range(pos[0] + 1, pos[-1]):
        left, right = weights(i)
        if not a[i - 1] * a[i + 1] * left <= a[i] * a[i] * right:
            return False, i
    return True, None


def _verdict(cert):
    return cert.holds, cert.first_violation


_NUDGE = st.sampled_from([0, 0, 0, 1, -1])


@st.composite
def cells_and_reference(draw):
    """Positive integer references; cells either arbitrary or the reference
    times a geometric run (every inequality a tie) nudged by +-1 in the last
    place of numbers up to thousands of bits."""
    n = draw(st.integers(1, 10))
    ref = draw(st.lists(st.integers(1, 2**64), min_size=n, max_size=n))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 2**300), min_size=n, max_size=n).filter(any)), ref
    x, y = draw(st.integers(1, 2**40)), draw(st.integers(1, 2**40))
    scale = draw(st.sampled_from([1, 2**200, 3**1000]))
    cells = [scale * r * x**k * y ** (n - k) + draw(_NUDGE) for k, r in enumerate(ref)]
    return cells, ref


@st.composite
def ulc_sequences(draw):
    """(cells, m): binomial runs (ties of order m) or Poisson runs (ties of
    infinite order) over int or Fraction ratios far outside the float range,
    one cell possibly scaled by 1 +- 2^-80 or the whole run arbitrary."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, m + 1))
    x = F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    scale = draw(st.sampled_from([1, F(1, 3**700), F(5**600, 7**300)]))
    if draw(st.booleans()):
        cells = [scale * math.comb(m, k) * x**k for k in range(n)]
    else:
        cells = [scale * x**k / math.factorial(k) for k in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        cells[k] *= 1 + F(draw(st.sampled_from([1, -1])), 2**80)
    if draw(st.integers(0, 3)) == 0:
        cells = [scale * F(v) for v in draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))]
    if all(v.denominator == 1 for v in cells) and draw(st.booleans()):
        cells = [int(v) for v in cells]
    return cells, m


class TestLog2PreCheck:
    @settings(max_examples=70, deadline=None)
    @given(cells_and_reference())
    def test_relative_verdicts(self, case):
        cells, ref = case
        got = _verdict(_three_term(cells, ref=ref))
        assert got == oracle_three_term(cells, lambda i: (ref[i] ** 2, ref[i - 1] * ref[i + 1]))

    @settings(max_examples=70, deadline=None)
    @given(ulc_sequences())
    def test_ulc_verdicts(self, case):
        cells, m = case
        assert _verdict(is_ulc(cells, m)) == oracle_three_term(cells, lambda k: ((k + 1) * (m - k + 1), k * (m - k)))
        assert _verdict(is_ulc_infinity(cells)) == oracle_three_term(cells, lambda k: (k + 1, k))

    def test_binomial_against_itself_ties_everywhere(self):
        law = family_binomial(60, F(12345, 65537))
        cells = law.integer_masses[0]
        # no tie is decided by the log2 magnitudes: every interior cell goes to the products
        assert list(_log2_undecided(cells, 0, 60, ref=cells)) == list(range(1, 60))
        assert _verdict(is_log_concave_relative(law, law)) == (True, None)

    def test_violation_below_the_log2_margin(self):
        mu = family_binomial(60, F(12345, 65537))
        masses = list(mu.masses)
        masses[30] *= 1 + F(1, 2**80)
        nu = DiscreteDist(0, tuple(masses), F(0))
        # raising cell 30 breaks the inequality at its neighbours, first at 29
        assert _verdict(is_log_concave_relative(nu, mu)) == (False, 29)
        assert oracle_certificate(nu, mu) == (False, 29, True)
        (cells, _), (ref, _) = nu.integer_masses, mu.integer_masses
        assert 29 in _log2_undecided(cells, 0, 60, ref=ref)


# ---------------------------------------------------------------------------
# float certificates whose products leave the normal range
# ---------------------------------------------------------------------------


def _exact_unless_near_tie(a, weights):
    """``(holds, first_violation)`` of the three-term inequality on the exact
    values of the positive float cells ``a``, with ``(L, R) = weights(i)``, or
    None where a triple whose sides lie within ``CERT_REL_TOL`` of a tie comes
    first: the float slack may decide that one either way."""
    cells = [F(v) for v in a]
    for i in range(1, len(cells) - 1):
        left, right = weights(i)
        lhs, rhs = cells[i - 1] * cells[i + 1] * left, cells[i] ** 2 * right
        if abs(lhs - rhs) <= F(CERT_REL_TOL) * max(lhs, rhs):
            return None
        if lhs > rhs:
            return False, i
    return True, None


@st.composite
def scaled_runs(draw, top=1000):
    """Integer runs, log-concave (binomial coefficients over a geometric run)
    or dented or arbitrary, times ``2^k`` for ``k`` in -1000..``top``: every
    cell is normal, and the products of a three-term check leave the float
    range once ``|k|`` passes about 512."""
    n = draw(st.integers(3, 10))
    if draw(st.booleans()):
        m, x = draw(st.integers(n - 1, 12)), draw(st.integers(1, 4))
        run = [math.comb(m, j) * x**j for j in range(n)]
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            run[j] += draw(st.sampled_from([-1, 1])) * (run[j] // 3)
    else:
        run = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    # mostly far enough out that the products leave the float range
    far = [st.integers(-1000, -520)] + ([st.integers(520, top)] if top >= 520 else [])
    k = min(draw(st.one_of(*far, st.integers(-1000, top))), 1020 - max(run).bit_length())
    return [math.ldexp(v, k) for v in run]


@st.composite
def scaled_pairs(draw):
    """A target run and a positive reference run of its length, both small
    enough to be a law's cells beside a tail deficit."""
    q = draw(scaled_runs(top=-40))
    k = draw(st.integers(-1000, -40))
    return q, [math.ldexp(v, k) for v in draw(st.lists(st.integers(1, 60), min_size=len(q), max_size=len(q)))]


def _law(cells):
    return DiscreteDist(0, cells, 1.0 - math.fsum(cells))


class TestFloatCertificatesOutsideTheNormalRange:
    """Where a product of normal cells under- or overflows, each float
    certificate gives the exact verdict on its stored cells."""

    @settings(max_examples=300, deadline=None)
    # orders up to 2^40 give weights that lift a product below the normal range back into it
    @given(scaled_runs(), st.one_of(st.integers(0, 8), st.integers(0, 2**40)))
    def test_counting_and_ulc_certificates(self, a, extra):
        m = len(a) - 1 + extra
        checks = [(is_ulc(a, m), lambda k: ((k + 1) * (m - k + 1), k * (m - k))),
                  (is_ulc_infinity(a), lambda k: (k + 1, k))]
        if math.fsum(a) < 1:
            checks.append((is_log_concave(_law(a)), lambda k: (1, 1)))
        for cert, weights in checks:
            want = _exact_unless_near_tie(a, weights)
            if want is not None:
                assert _verdict(cert) == want

    @settings(max_examples=300, deadline=None)
    @given(scaled_pairs())
    def test_relative_certificate(self, pair):
        q, p = pair
        want = _exact_unless_near_tie(q, lambda i: (F(p[i]) ** 2, F(p[i - 1]) * F(p[i + 1])))
        if want is not None:
            assert _verdict(is_log_concave_relative(_law(q), _law(p))) == want

    def test_weight_does_not_lift_a_subnormal_partial_product(self):
        # a[0] a[2] is subnormal and lost its digits, and the weight 2m lifted
        # it back into the normal range, where the range check never looked
        m, x = 2**40, 2.0**-530
        a = [x, x, x * (m - 1) / (2 * m) * (1 + 1e-9)]
        assert _verdict(is_ulc(a, m)) == _verdict(is_ulc([F(v) for v in a], m)) == (False, 1)

    def test_overflowing_products_do_not_pass_as_inf_below_inf(self):
        # at 2 the left side 3e320 overflows, and its slack made inf <= inf
        a = [1.0, 1e160, 1e150, 1e160]
        assert _verdict(is_ulc_infinity(a)) == _verdict(is_ulc_infinity([F(v) for v in a])) == (False, 2)
