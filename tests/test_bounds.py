import gc
import math
import random
import sys
import time
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvbounds import (
    AbsoluteContinuityError,
    BoundNotApplicable,
    DiscreteDist,
    InvalidAnchorError,
    certify,
    family_binomial,
    family_geometric,
    family_poisson,
    is_log_concave_relative,
    make_dist,
    tv_distance,
)
from tvbounds import bounds, compound, distributions, intrinsic_volumes, matroids, sums
from tvbounds.bounds import (
    _float_envelope,
    _safe_exp,
    anchor_at,
    clamp01,
    find_ratio_anchor,
    tv_bound_matched_anchor,
    tv_bounds_at_anchor,
)
from tvbounds.distributions import Interval, LogConcavityCertificate, _scaled_products, _support_interval, _three_term
from tvbounds.sums import BernoulliVector, binomial_target, poisson_binomial_pmf, poisson_target
from tvbounds.verify import _sweep, random_envelope_instance, run_dominance_sweep

from test_integer_kernels import law_pairs
from test_sums import untrimmed_recursion


PB = make_dist(0, [F(72, 100), F(26, 100), F(2, 100)])  # Bernoulli(0.1)+Bernoulli(0.2)
B_MATCH = family_binomial(2, F(13, 85))
# exact laws whose cross products at 0 differ by 1e-14 relative: within
# ANCHOR_MATCH_TOL, which chooses the anchor, but not equal, so not matched
NEAR_TIE = make_dist(0, [F(1), F(2), F(1)]), make_dist(0, [F(1), F(2) * (1 + F(1, 10**14)), F(1)])


@st.composite
def rising_tilts(draw):
    """A float reference and a convex tilt ``nu = e^-V mu`` whose slope of
    ``V`` stays positive, so the cross-product difference never changes sign
    and no anchor is matched: ``certify`` takes the smallest-gap fallback."""
    n = draw(st.integers(2, 10))
    mu = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    rises = draw(st.lists(st.floats(0.0, 0.3), min_size=n - 2, max_size=n - 2))
    v = accumulate(accumulate(rises, initial=draw(st.floats(0.01, 2.0))), initial=0.0)
    offset = draw(st.integers(-3, 3))
    return make_dist(offset, mu), make_dist(offset, [m * math.exp(-x) for m, x in zip(mu, v)])


def _geometric_pair():
    """Two geometric laws, whose ratios never meet."""
    mu = family_geometric(0.3, 1e-10)
    return mu, family_geometric(0.6, 1e-10, min_length=len(mu.masses))


def _matched_instance(rng):
    """Exact-rational pair whose ratios match at a chosen anchor.

    The tilt is piecewise geometric, flat across (ell, ell+1), hence convex in
    log space with the match built in.
    """
    length = rng.randint(3, 12)
    ell = rng.randint(0, length - 2)
    mu_raw = [F(rng.randint(1, 30)) for _ in range(length)]
    left = F(rng.randint(1, 5))   # decay factor per step moving left of ell
    right = F(rng.randint(1, 5))  # decay factor per step moving right of ell+1
    tilt = []
    for k in range(length):
        if k <= ell:
            tilt.append(F(1) / (1 + left) ** (ell - k))
        else:
            tilt.append(F(1) / (1 + right) ** max(k - ell - 1, 0))
    nu_raw = [m * t for m, t in zip(mu_raw, tilt)]
    return make_dist(0, mu_raw), make_dist(0, nu_raw), ell


def _two_loop_envelopes(mu, nu, ell):
    """The float envelope sums as two separate loops, the form that
    ``_float_envelope`` replaced, kept as its bit-for-bit oracle."""
    ql, ql1 = nu.mass(ell), nu.mass(ell + 1)
    pl, pl1 = mu.mass(ell), mu.mass(ell + 1)
    log_ratio = math.log(float(pl)) - math.log(float(ql))
    log_r = (math.log(float(pl1)) + math.log(float(ql))) - (math.log(float(pl)) + math.log(float(ql1)))
    b_nu = 0.0
    for i, q in enumerate(nu.masses):
        if q <= 0:
            continue
        y = nu.offset + i
        term = 1.0 - _safe_exp(log_ratio + (y - ell) * log_r)
        if term > 0:
            b_nu += term * float(q)
    b_mu = 0.0
    for i, p in enumerate(mu.masses):
        if p <= 0:
            continue
        y = mu.offset + i
        term = _safe_exp(-log_ratio - (y - ell) * log_r) - 1.0
        if term > 0:
            b_mu += term * float(p)
            if b_mu > 1.0:
                break
    return clamp01(b_nu), clamp01(b_mu)


def _scan_law(rng, kind, tilted=None):
    """A float, exact or mixed (``Fraction`` masses, float deficit) law on
    1-10 cells with zeros inside and outside its support, or, given a law
    ``tilted``, that law on its window tilted by a random concave ``-V``,
    steep enough now and then to leave subnormal cells."""
    if tilted is None:
        offset = rng.randint(-3, 3)
        cells = [0 if rng.random() < 0.15 else rng.randint(1, 40) for _ in range(rng.randint(1, 10))]
        cells[rng.randrange(len(cells))] = rng.randint(1, 40)
    else:
        n, steep = len(tilted.masses), rng.random() < 0.3
        # a steep V rises by 700-745 across the window: e^-V ends below the normal range
        slope = rng.choice((-1, 1)) * rng.uniform(700, 745) / max(n - 1, 1) if steep else rng.uniform(-2, 2)
        offset, curve = tilted.offset, rng.uniform(0, 0.05 if steep else 1)
        v = [i * slope + i * i * curve for i in range(n)]
        cells = [float(m) * math.exp(min(v) - x) for m, x in zip(tilted.masses, v)]
        if kind != "float":
            cells = [F(round(c / max(cells) * 2**40)) for c in cells]
    if kind == "float":
        return make_dist(offset, [float(c) for c in cells])
    law = make_dist(offset, [F(c) for c in cells])
    return law if kind == "exact" else DiscreteDist(offset, law.masses, 0.0)


def _scan_pairs(rng, count):
    """Float, exact and mixed pairs: tilts that certify, identical laws,
    unrelated laws with support gaps and absolute-continuity failures, and
    single atoms, in either order."""
    kinds = ("float", "exact", "mixed")
    for _ in range(count):
        mu = _scan_law(rng, rng.choice(kinds))
        if rng.random() < 0.25:  # tilted twice: cross products can leave the normal range where cells do not
            mu = _scan_law(rng, "float", mu)
        draw = rng.random()
        nu = mu if draw < 0.1 else _scan_law(rng, rng.choice(kinds), mu if draw < 0.6 else None)
        yield (mu, nu) if rng.random() < 0.8 else (nu, mu)


# The pair kernels that ``distributions._pair_scan`` replaced, kept verbatim
# as its independent reference: the cell alignment, the anchor gap rows, the
# TV loop and the absolute-continuity loop, each a walk of its own.


def _pair_cells(mu: DiscreteDist, nu: DiscreteDist) -> tuple[bool, int, list, int, list, int]:
    """``(exact, start, p, d_mu, q, d_nu)``: the cells of ``mu`` (``p``) and
    of ``nu`` (``q``) zero-padded to their union window, which begins at
    ``start``, with the denominators they share.  They are the integer
    numerators when both laws are exact, else the stored masses over 1."""
    exact = mu.is_exact and nu.is_exact
    start, stop = min(mu.offset, nu.offset), max(mu.end, nu.end)
    (p, d_mu), (q, d_nu) = (mu.integer_masses, nu.integer_masses) if exact else ((mu.masses, 1), (nu.masses, 1))
    pad = lambda d, cells: [0] * (d.offset - start) + list(cells) + [0] * (stop - d.end)
    return exact, start, pad(mu, p), d_mu, pad(nu, q), d_nu


def _anchor_gaps(mu: DiscreteDist, nu: DiscreteDist, ells=None) -> list[tuple[int, float, float, bool | None]]:
    """Per anchor ``ell``: ``(ell, diff, gap, matched)`` for the cross
    products ``lhs = p_{l+1} q_l`` and ``rhs = q_{l+1} p_l``, whose equality is
    the ratio-match condition.  Without ``ells``, every valid anchor (both
    target cells positive), found in the same scan of the aligned cells.

    ``diff`` is the sign of ``lhs - rhs`` (-1, 0 or 1) and the normalized gap
    ``|lhs - rhs| / max(lhs, rhs)`` is a float; ``matched`` says whether
    ``lhs == rhs != 0`` exactly, or is ``None`` for float laws.  Exact laws
    multiply their integer numerators, so both products carry the positive
    factor ``d_mu d_nu``, which the gap, one correctly rounded int division,
    does not see.  Float laws whose
    products leave the normal range take both from ``math.frexp`` mantissas,
    scaled by one common power of two, so two products below the float range
    do not both round to the same subnormal and fake a match.
    """
    exact, start, p, d_mu, q, d_nu = _pair_cells(mu, nu)
    if ells is None:
        ells = [start + i for i, (a, b) in enumerate(zip(q, q[1:])) if a > 0 and b > 0]
    out = []
    for ell in ells:
        i = ell - start
        lhs, rhs = p[i + 1] * q[i], q[i + 1] * p[i]
        if exact:
            fl, fr, matched = lhs, rhs, lhs == rhs != 0
        else:
            fl, fr, matched = lhs, rhs, None
            if any(0 < c < sys.float_info.min for c in (p[i], p[i + 1], q[i], q[i + 1])):
                continue  # a subnormal cell carries too few digits for a slope: no row
            if min(lhs, rhs) < sys.float_info.min:  # zero, subnormal or rounded to either
                fl, fr = _scaled_products((p[i + 1], q[i]), (q[i + 1], p[i]))
        scale = max(fl, fr)
        gap = math.inf if scale == 0 else abs(fl - fr) / scale
        out.append((ell, (fl > fr) - (fl < fr), gap, matched))
    return out


def _reference_tv(mu, nu):
    exact, _, p, d_mu, q, d_nu = _pair_cells(mu, nu)
    t = 0 if exact else 0.0
    for m, n in zip(p, q):
        d = n * d_mu - m * d_nu
        if d > 0:
            t += d
    t = F(t, d_mu * d_nu) if exact else float(t)
    zero = F(0) if exact else 0.0
    # the reference's missing mass can only lower the true TV, the target's only raise it
    return Interval(max(t - mu.tail_deficit, zero) if mu.tail_deficit else t,
                    min(t + nu.tail_deficit, zero + 1) if nu.tail_deficit else t)


def _reference_relative(nu, mu):
    _, start, p, _, q, _ = _pair_cells(mu, nu)
    for i, (pk, qk) in enumerate(zip(p, q)):
        if qk > 0 and pk == 0:
            k = start + i
            raise AbsoluteContinuityError(f"target has mass at {k} where the reference has none", {"index": k})
    return _three_term(q, ref=p, base=start)


def _reference_anchor(row):
    ell, _, gap, matched = row
    return bounds.Anchor(ell, gap <= distributions.ANCHOR_MATCH_TOL if matched is None else matched, gap)


def _reference_anchor_at(mu, nu, ell):
    if not (nu.mass(ell) > 0 and nu.mass(ell + 1) > 0):
        raise InvalidAnchorError(f"anchor {ell} needs positive target mass at {ell} and {ell + 1}")
    rows = _anchor_gaps(mu, nu, [ell])
    if not rows:
        raise InvalidAnchorError(f"anchor {ell} has subnormal float cells")
    return _reference_anchor(rows[0])


def _reference_smallest_gap(rows):
    return _reference_anchor(min(rows, key=lambda row: (row[2], row[0])))


def _reference_find_ratio_anchor(mu, nu):
    rows = _anchor_gaps(mu, nu)
    signs = [d for _, d, _, _ in rows]
    if (any(gap <= distributions.ANCHOR_MATCH_TOL for _, _, gap, _ in rows)
            or any(a > 0 > b or a < 0 < b for a, b in zip(signs, signs[1:]))):
        return _reference_smallest_gap(rows)
    return None


def _reference_hypothesis(mu, nu):
    """The certificate a report carries and why the envelope bounds do not
    apply, or ``None``."""
    try:
        cert = _reference_relative(nu, mu)
    except AbsoluteContinuityError as e:
        return LogConcavityCertificate(False, e.details["index"], True), "absolute continuity violated"
    if not cert.holds:
        return cert, "target is not log-concave relative to the reference"
    ok, gap, _, _ = _support_interval(mu.masses, mu.offset)
    if not ok:
        return LogConcavityCertificate(False, gap, False), "reference support is not a contiguous interval"
    return cert, None


def _outcome(f, *args):
    """What ``f(*args)`` gives, in JSON form when it has one, or the type,
    message and details of the ``BoundNotApplicable`` it raises."""
    try:
        out = f(*args)
    except BoundNotApplicable as e:
        return type(e), str(e), e.details
    return out.to_json() if hasattr(out, "to_json") else out


def _typed(values):
    return [(type(v), v) for v in values]


def _decomposed_certify(mu, nu, ell=None):
    """``certify`` from the reference kernels above: the hypothesis, the TV
    loop and the smallest-gap row of ``_anchor_gaps``, then the envelope sums
    and the matched closed form at the anchor, each raised by the target's
    deficit."""
    cert, reason = _reference_hypothesis(mu, nu)
    tv, anchor, details = _reference_tv(mu, nu), None, {}
    positive = lambda ell: nu.mass(ell) > 0 and nu.mass(ell + 1) > 0
    if reason is None and ell is None:
        rows = _anchor_gaps(mu, nu)
        if rows:
            anchor = _reference_smallest_gap(rows)
            ell = anchor.ell
        elif tv.hi == 0 or nu.support_min < nu.support_max:  # no row: each has a subnormal float cell
            ell = nu.support_min
        else:
            reason = "no valid anchor (target support is a single atom)"
    elif reason is None and positive(ell) and (mu.is_exact and nu.is_exact or not any(
            0 < c < sys.float_info.min for c in (mu.mass(ell), mu.mass(ell + 1), nu.mass(ell), nu.mass(ell + 1)))):
        anchor = _reference_anchor_at(mu, nu, ell)
    if reason is None and not positive(ell):
        if tv.hi != 0:
            reason = f"anchor {ell} needs positive target mass at {ell} and {ell + 1}"
        details["anchor_outside_target_support"] = ell
    elif reason is None and anchor is None and tv.hi != 0:
        reason = f"anchor {ell} has subnormal float cells"
    if reason is not None:
        return bounds.BoundReport(None, None, None, None, cert, tv, None, {"not_applicable": reason})
    if tv.hi == 0:
        return bounds.BoundReport(0.0, 0.0, 0.0, anchor, cert, tv, None, details)
    lift = lambda b: min(float(b + nu.tail_deficit), 1.0)
    b_nu, b_mu = map(lift, tv_bounds_at_anchor(mu, nu, ell))
    simplified = lift(tv_bound_matched_anchor(mu, nu, ell)) if anchor.ratio_matched else None
    return bounds.BoundReport(b_nu, b_mu, simplified, anchor, cert, tv, None, details)


@st.composite
def float_envelope_cases(draw):
    """A float law and a convex tilt of it, steep enough that the mu-side sum
    can pass 1, in either orientation, with zero cells inside and around each
    window, and an anchor where both laws have mass."""
    n = draw(st.integers(3, 12))
    base = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    slopes = accumulate(draw(st.lists(st.floats(0.0, 3.0), min_size=n - 2, max_size=n - 2)),
                        initial=draw(st.floats(-4.0, 4.0)))
    tilted = [m * math.exp(-v) for m, v in zip(base, accumulate(slopes, initial=0.0))]
    laws = []
    for cells in (base, tilted):
        cells = list(cells)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            cells[i] = 0.0
        if not any(cells):
            cells[0] = 1.0
        left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        laws.append(make_dist(-left, [0.0] * left + cells + [0.0] * right))
    mu, nu = laws if draw(st.booleans()) else laws[::-1]
    ells = [k for k in range(n - 1) if all(d.mass(k) > 0 and d.mass(k + 1) > 0 for d in (mu, nu))]
    assume(ells)
    return mu, nu, draw(st.sampled_from(ells))


class TestEnvelopeBounds:
    @settings(max_examples=150, deadline=None)
    @given(float_envelope_cases())
    def test_float_envelope_is_the_two_loops_bit_for_bit(self, case):
        mu, nu, ell = case
        got = tv_bounds_at_anchor(mu, nu, ell)
        assert [b.hex() for b in got] == [b.hex() for b in _two_loop_envelopes(mu, nu, ell)]

    def test_float_envelope_stops_past_one_on_the_mu_side(self):
        mu = make_dist(0, [1.0] * 8)
        nu = make_dist(0, [math.exp(-k * k) for k in range(8)])
        log_ratio = math.log(mu.mass(5)) - math.log(nu.mass(5))
        log_r = (math.log(mu.mass(6)) + math.log(nu.mass(5))) - (math.log(mu.mass(5)) + math.log(nu.mass(6)))
        assert _float_envelope(mu, 5, log_ratio, log_r, -1.0) > 1.0
        assert tv_bounds_at_anchor(mu, nu, 5) == _two_loop_envelopes(mu, nu, 5)
        assert tv_bounds_at_anchor(mu, nu, 5)[1] == 1.0

    def test_identical_is_zero(self):
        d = family_binomial(5, 0.37)
        assert tv_bounds_at_anchor(d, d, 2) == (0.0, 0.0)

    def test_poisson_binomial_instance(self):
        b_nu, b_mu = tv_bounds_at_anchor(B_MATCH, PB, 0)
        tv = tv_distance(B_MATCH, PB).hi
        # at the matched anchor the two sides are the closed forms
        assert b_nu == F(1, 289)
        assert b_mu == F(1, 288)
        assert min(b_nu, b_mu) >= tv

    def test_thinned_poisson_vs_geometric(self):
        nu = family_poisson(0.9)
        mu = family_geometric(0.1, 1e-12, min_length=len(nu.masses))
        b_nu, b_mu = tv_bounds_at_anchor(mu, nu, 0)
        tv = tv_distance(mu, nu)
        assert b_nu == pytest.approx(1 - 0.1 * math.exp(0.9), abs=1e-12)
        assert b_nu >= tv.hi - 1e-12
        assert tv.lo == pytest.approx(0.666143, abs=1e-5)

    def test_hypothesis_failure_raises(self):
        # the envelope sums trust their hypothesis; certify decides it and,
        # where it fails, reports no anchor and no bounds
        bimodal = make_dist(0, [4, 1, 4])
        rep = certify(make_dist(0, [1, 1, 1]), bimodal, 0)
        assert not rep.hypothesis.holds
        assert rep.details["not_applicable"] == "target is not log-concave relative to the reference"
        assert (rep.anchor, rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (None, None, None, None)

    def test_invalid_anchor_raises(self):
        nu = make_dist(0, [1, 1, 0])
        mu = make_dist(0, [1, 1, 1])
        with pytest.raises(InvalidAnchorError):
            tv_bounds_at_anchor(mu, nu, 1)

    def test_shift_invariance(self):
        rng = random.Random(3)
        for _ in range(10):
            mu, nu = random_envelope_instance(rng, max_window=12)
            ell = nu.support_min
            base = tv_bounds_at_anchor(mu, nu, ell)
            shifted = tv_bounds_at_anchor(mu.shifted(7), nu.shifted(7), ell + 7)
            assert base == pytest.approx(shifted, abs=1e-14)


class TestMatchedAnchor:
    def test_identical_zero(self):
        d = family_binomial(3, 0.25)
        assert tv_bound_matched_anchor(d, d, 1) == 0.0

    def test_poisson_binomial_closed_form(self):
        val = tv_bound_matched_anchor(B_MATCH, PB, 0)
        assert val == F(1, 289)  # 1 - (g_n/m_n)^2
        assert float(val) == pytest.approx(0.00346021, abs=1e-8)

    def test_partition_matroid_instance(self):
        nu = make_dist(0, [F(0), F(1, 2), F(1, 2), F(0), F(0)])
        mu = family_binomial(4, F(2, 5))
        val = tv_bound_matched_anchor(mu, nu, 1)
        assert val == min(F(193, 432), F(193, 625))
        assert val == F(193, 625)  # = 0.3088, the smaller (nu-side) term
        assert tv_distance(mu, nu).hi == F(193, 625)

    @pytest.mark.parametrize("float_side", ["mu", "nu"])
    def test_one_exact_and_one_float_law_take_float_cells(self, float_side):
        mu, nu = (B_MATCH.to_float(), PB) if float_side == "mu" else (B_MATCH, PB.to_float())
        val = tv_bound_matched_anchor(mu, nu, 0)
        ql, pl = float(nu.mass(0)), float(mu.mass(0))
        assert type(val) is float
        assert val == min(ql / pl - 1.0, 1.0 - pl / ql)
        assert val == pytest.approx(1 / 289, rel=1e-12)

    def test_mismatch_rejected(self):
        mu = family_geometric(0.3, 1e-10)
        nu = family_geometric(0.6, 1e-10, min_length=len(mu.masses))
        with pytest.raises(InvalidAnchorError):
            tv_bound_matched_anchor(mu, nu, 0)

    def test_matched_implies_target_at_least_reference(self):
        # build instances with a convex tilt that is flat across (ell, ell+1),
        # which matches the ratios there exactly; then q_l >= p_l and the
        # simplified bound is the nu-side term
        rng = random.Random(17)
        for _ in range(40):
            mu, nu, ell = _matched_instance(rng)
            anc = find_ratio_anchor(mu, nu)
            assert anc is not None and anc.ratio_matched and anc.ell == ell
            assert nu.mass(ell) >= mu.mass(ell)
            val = tv_bound_matched_anchor(mu, nu, ell)
            assert val == 1 - F(mu.mass(ell)) / F(nu.mass(ell))
            b_nu, b_mu = tv_bounds_at_anchor(mu, nu, ell)
            tv = tv_distance(mu, nu)
            assert min(b_nu, b_mu) >= tv.hi
            assert val == min(b_nu, b_mu)


class TestAnchorSearch:
    def test_identical_returns_smallest_support_index(self):
        d = family_binomial(4, 0.3)
        anc = find_ratio_anchor(d, d)
        assert anc.ell == 0 and anc.ratio_matched and anc.ratio_gap == 0

    def test_poisson_binomial_match_found(self):
        anc = find_ratio_anchor(B_MATCH, PB)
        assert anc.ell == 0 and anc.ratio_matched

    def test_exact_near_tie_is_chosen_but_not_matched(self):
        # the search used to call it matched by the float tolerance while
        # anchor_at and the report, on exact equality, did not
        mu, nu = NEAR_TIE
        anc = find_ratio_anchor(mu, nu)
        assert anc.ell == 0 and not anc.ratio_matched
        assert anc.ratio_gap == pytest.approx(1e-14, rel=0.02)
        assert anc.to_json() == anchor_at(mu, nu, 0).to_json() == certify(mu, nu).anchor.to_json()

    def test_geometric_pair_has_no_anchor(self):
        mu = family_geometric(0.3, 1e-10)
        nu = family_geometric(0.6, 1e-10, min_length=len(mu.masses))
        assert find_ratio_anchor(mu, nu) is None

    def test_anchor_at_validates(self):
        with pytest.raises(InvalidAnchorError):
            anchor_at(make_dist(0, [1, 1]), make_dist(0, [1, 0]), 0)

    def test_anchor_at_reference_without_mass_has_infinite_gap(self):
        anc = anchor_at(make_dist(0, [1, 0, 0]), make_dist(0, [0, 1, 1]), 1)
        assert anc.ratio_gap == math.inf and not anc.ratio_matched

    def test_cross_products_below_the_float_range_keep_their_gap(self):
        # p_2 q_1 = 4e-324 and q_2 p_1 = 6e-324 both round to the smallest
        # subnormal, which would read as an exact match
        mu = make_dist(0, [1.0, 1e-160, 4e-164])
        nu = make_dist(0, [1.0, 1e-160, 6e-164])
        assert 4e-164 * 1e-160 == 6e-164 * 1e-160
        anc = anchor_at(mu, nu, 1)
        assert not anc.ratio_matched
        assert anc.ratio_gap == pytest.approx(1 / 3, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-150, 1.0), min_size=4, max_size=4))
    def test_normal_cross_products_give_the_plain_gap(self, cells):
        a, b, c, d = cells
        x, y = _scaled_products((a, b), (c, d))
        lhs, rhs = a * b, c * d
        assert (abs(x - y) / max(x, y)).hex() == (abs(lhs - rhs) / max(lhs, rhs)).hex()
        assert (x > y) == (lhs > rhs) and (x < y) == (lhs < rhs)

    @pytest.mark.parametrize("xs, ys", [
        ((1e-200, 1e-200), (3e-200, 1e-200)),  # both plain products 0.0
        ((1e200, 1e200, 0.5), (1e200, 3e200, 0.25)),  # both plain products inf
        ((1e-80, 1e-80, 1e-80, 1e-80), (1e-160, 7e-161)),  # lists of two lengths
        ((0.0, 1e300), (1e-300, 1e-300)),  # a zero factor
        ((1e-300, 1e-300), (5.0, 0.0)),
        ((0.0,), (0.0, 1e300)),
    ])
    def test_scaled_products_of_factor_lists(self, xs, ys):
        # each product times one power of two, the larger in [2^-len, 1):
        # their ratio is that of the exact products, rounded as in the normal range
        x, y = _scaled_products(xs, ys)
        exact = [math.prod(map(F, fs)) for fs in (xs, ys)]
        if not any(exact):
            assert (x, y) == (0.0, 0.0)
            return
        i = exact.index(max(exact))
        assert 2.0 ** -len((xs, ys)[i]) <= (x, y)[i] < 1.0
        assert (x == 0.0) == (exact[0] == 0) and (y == 0.0) == (exact[1] == 0)
        if all(exact):
            assert x / y == pytest.approx(float(exact[0] / exact[1]), rel=1e-15)

    def test_pb_binomial_subnormal_products_do_not_fake_a_match(self):
        # n = 1500, on every cell of the recursion: at ell = 871 both cross
        # products round to 5e-324, and that spurious match at a cell where the
        # target is below the reference used to beat the true match at 0 and
        # raise InvalidAnchorError (the float pmf now cuts those cells)
        rng = random.Random(1500)
        bv = BernoulliVector(tuple(rng.uniform(0, 0.5) for _ in range(1500)))
        mu, nu = binomial_target(bv), make_dist(0, untrimmed_recursion(bv.p))
        lhs, rhs = mu.mass(872) * nu.mass(871), nu.mass(872) * mu.mass(871)
        assert lhs == rhs == 5e-324 and min(mu.mass(871), nu.mass(872)) >= sys.float_info.min
        rep = certify(mu, nu)
        assert rep.anchor.ell == 0 and rep.anchor.ratio_matched
        assert rep.dominated is True


class TestAnchoredReport:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        rising_tilts(),
        law_pairs(),
        st.just(NEAR_TIE),
        st.integers(0, 2**32).map(lambda seed: random_envelope_instance(random.Random(seed), 30)),
    ))
    def test_certify_is_itself_given_its_anchor_and_certificate(self, pair):
        mu, nu = pair
        rep = certify(mu, nu)
        if "not_applicable" in rep.details:
            return
        if rep.anchor is None:  # the single atom both laws share, or no row off subnormal cells
            ell = nu.support_min
        else:
            ell = rep.anchor.ell
            assert rep.anchor.to_json() == anchor_at(mu, nu, ell).to_json()
        assert rep.to_json() == certify(mu, nu, ell, rep.hypothesis).to_json()

    @pytest.mark.parametrize("report", [
        lambda: certify(B_MATCH, PB),
        lambda: certify(*NEAR_TIE),
        lambda: certify(*random_envelope_instance(random.Random(11), 30)),
        lambda: certify(*_geometric_pair()),
        lambda: certify(B_MATCH, PB, 1),
        lambda: certify(make_dist(0, [1.0, 1.0]), make_dist(0, [1.0, 1.0, 1.0])),
        lambda: compound.geometric_bound_compound_poisson(
            compound.CompoundPoissonSpec(0.4, make_dist(0, [0.3, 0.65, 0.05]))),
        lambda: compound.geometric_bound_compound_geometric(
            compound.CompoundGeometricSpec(make_dist(0, [0, 0.7, 0.3]), 0.3)),
        lambda: matroids.matroid_binomial_bound(matroids.profile_uniform(8, 4), 2),
        lambda: matroids.matroid_poisson_bound(matroids.profile_uniform(8, 4), 2),
        lambda: intrinsic_volumes.poisson_iv_bound(intrinsic_volumes.iv_box([0.5, 1, 2]), 1),
        lambda: sums.geometric_sum_bound([family_geometric(0.9), make_dist(0, [0.95, 0.05])]),
    ], ids=["exact-matched", "exact-near-tie", "float-tilt", "float-fallback", "exact-given-anchor",
            "absolute-continuity", "compound-poisson", "compound-geometric", "matroid-binomial", "matroid-poisson",
            "iv", "sum-geometric"])
    def test_certify_scans_the_gaps_once(self, report, monkeypatch):
        # every report reads its certificate (where it reads one), the anchor
        # row and the oracle TV off one _pair_scan; no other kernel walks the pair
        calls, scan = [], distributions._pair_scan
        for module in (distributions, bounds):
            monkeypatch.setattr(module, "_pair_scan", lambda *args: calls.append(args) or scan(*args))
        assert report().oracle_tv is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("call, certificates", [
        (lambda: tv_distance(B_MATCH, PB), 0),
        (lambda: anchor_at(B_MATCH, PB, 0), 0),
        (lambda: find_ratio_anchor(B_MATCH, PB), 0),
        (lambda: find_ratio_anchor(*random_envelope_instance(random.Random(11), 30)), 0),
        (lambda: certify(B_MATCH, PB, 0, LogConcavityCertificate(True, None, True)), 0),
        (lambda: matroids.matroid_binomial_bound(matroids.profile_uniform(8, 4), 2), 1),
        (lambda: matroids.matroid_poisson_bound(matroids.profile_uniform(8, 4), 2), 1),
        (lambda: intrinsic_volumes.poisson_iv_bound(intrinsic_volumes.iv_box([0.5, 1, 2]), 1), 1),
        (lambda: certify(B_MATCH, PB), 1),
        (lambda: certify(*random_envelope_instance(random.Random(11), 30)), 1),
        (lambda: certify(B_MATCH, PB, 1), 1),
        (lambda: certify(make_dist(0, [1.0, 1.0]), make_dist(0, [1.0, 1.0, 1.0])), 0),
        (lambda: certify(make_dist(0, [F(1), F(1)]), make_dist(0, [F(1), F(1), F(1)])), 0),
    ], ids=["tv", "anchor-at", "find-anchor-exact", "find-anchor-float", "given-hypothesis", "matroid-binomial",
            "matroid-poisson", "iv", "certify-exact", "certify-float", "certify-given-anchor",
            "certify-absolute-continuity-float", "certify-absolute-continuity-exact"])
    def test_only_readers_of_a_hypothesis_certify(self, call, certificates, monkeypatch):
        # every certificate verdict comes from _three_term; the scan, the TV
        # and the anchor search decide none, a report that brings its own
        # hypothesis certifies only that one, and certify certifies once
        # unless absolute continuity already failed
        calls, kernel = [], distributions._three_term
        monkeypatch.setattr(distributions, "_three_term", lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
        call()
        assert len(calls) == certificates

    @pytest.mark.parametrize("seed", range(2))
    def test_reading_functions_are_the_reference_kernels(self, seed):
        # each function that reads _pair_scan against the separate walk it
        # replaced; the geometric laws carry tail deficits
        for mu, nu in (*_scan_pairs(random.Random(seed), 60), _geometric_pair()):
            assert _typed(tv_distance(mu, nu)) == _typed(_reference_tv(mu, nu))
            assert _outcome(is_log_concave_relative, nu, mu) == _outcome(_reference_relative, nu, mu)
            lo, hi = min(mu.offset, nu.offset), max(mu.end, nu.end)
            for ell in range(lo - 1, hi):
                assert _outcome(anchor_at, mu, nu, ell) == _outcome(_reference_anchor_at, mu, nu, ell)
            rows = _anchor_gaps(mu, nu)
            assert bounds._candidate_anchors(mu, nu) == [row[:3] for row in rows]
            found = _reference_find_ratio_anchor(mu, nu)
            assert _outcome(find_ratio_anchor, mu, nu) == (found and found.to_json())
            best = found or (_reference_smallest_gap(rows) if rows else None)
            assert _outcome(bounds._best_effort_anchor, mu, nu) == (best and best.to_json())

    @pytest.mark.parametrize("seed", range(3))
    def test_certify_is_its_decomposition(self, seed):
        # the one scan against the kernels it replaces, at the default anchor,
        # one left of the window and three given ones inside it
        pick = random.Random(seed)
        for mu, nu in _scan_pairs(random.Random(seed), 100):
            lo, hi = min(mu.offset, nu.offset), max(mu.end, nu.end)
            for ell in (None, lo - 1, *pick.sample(range(lo, hi), min(3, hi - lo))):
                assert certify(mu, nu, ell).to_json() == _decomposed_certify(mu, nu, ell).to_json()

    @pytest.mark.parametrize("seed", range(3))
    def test_sides_at_a_ratio_matched_anchor_are_the_closed_forms(self, seed):
        # at r = 1 each envelope sum is a constant times its law's mass, so the
        # sides are 1 - p_l/q_l and q_l/p_l - 1, clamped: exactly against the
        # exact binomial reference, whose window holds all its mass; the float
        # Poisson reference misses at most its tail budget, 1e-12 relative, and
        # the float sums round by about an ulp of 1
        rng = random.Random(seed)
        close = lambda want: pytest.approx(want, rel=distributions.DEFAULT_TAIL_BUDGET, abs=1e-15)
        for _ in range(15):
            cats = [(c, rng.randint(1, c)) for c in (rng.randint(1, 6) for _ in range(rng.randint(1, 8)))]
            prof = matroids.profile_partition(matroids.PartitionMatroidSpec(cats))
            (n, c), include_zero = (prof.n, prof.counts), rng.random() < 0.5
            nu = matroids.nu_distribution(prof, include_zero)
            for m in range(0 if include_zero else 1, prof.rank):
                gamma = family_binomial(n, 1 / (1 + F(n - m, m + 1) * F(c[m], c[m + 1])))
                pl, ql = gamma.mass(m), nu.mass(m)
                closed = clamp01(1 - pl / ql), clamp01(ql / pl - 1)
                assert tv_bounds_at_anchor(gamma, nu, m) == closed
                rep = matroids.matroid_binomial_bound(prof, m, include_zero)
                assert rep.anchor.ratio_matched
                assert (rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (*map(float, closed), float(closed[0]))
                gamma = family_poisson(float(F(m + 1) * F(c[m + 1], c[m])), min_length=n + 1)
                pl, ql = float(gamma.mass(m)), float(ql)
                rep = matroids.matroid_poisson_bound(prof, m, include_zero)
                assert rep.anchor.ratio_matched
                assert rep.bound_nu_side == close(max(1 - pl / ql, 0.0))
                assert rep.bound_mu_side == close(min(ql / pl - 1, 1.0))
            body = intrinsic_volumes.iv_box([10 ** rng.uniform(-3, 2) for _ in range(rng.randint(2, 8))])
            for m in range(body.n):
                gamma = family_poisson((m + 1) * body.V[m + 1] / body.V[m], min_length=body.n + 1)
                pl, ql = float(gamma.mass(m)), float(intrinsic_volumes.z_dist(body).mass(m))
                rep = intrinsic_volumes.poisson_iv_bound(body, m)
                assert rep.anchor.ratio_matched
                assert rep.bound_nu_side == close(max(1 - pl / ql, 0.0))
                assert rep.bound_mu_side == close(min(ql / pl - 1, 1.0))

    def test_failed_caller_hypothesis_keeps_the_anchor_and_reports_no_bounds(self):
        rep = certify(B_MATCH, PB)
        failed = type(rep.hypothesis)(False, 1, True)
        rep = certify(B_MATCH, PB, 0, failed, stated_bound=0.5)
        assert rep.core_bounds() == [] and rep.dominated is None
        assert rep.anchor is not None and rep.stated_bound == 0.5

    def test_zero_oracle_outside_target_support(self):
        point = make_dist(0, [F(1), F(0)])
        rep = certify(point, point, 0, certify(B_MATCH, PB).hypothesis, details={"k": 1})
        assert (rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (0.0, 0.0, 0.0)
        assert rep.anchor is None and rep.dominated is True
        assert rep.details == {"k": 1, "anchor_outside_target_support": 0}


class TestCertify:
    def test_identical(self):
        d = family_binomial(3, 0.6)
        rep = certify(d, d)
        assert rep.dominated is True
        assert rep.bound_nu_side == rep.bound_mu_side == rep.simplified == 0.0

    def test_identical_laws_with_a_deficit_are_dominated(self):
        # the reference's missing mass can only lower the TV, so the oracle's
        # top adds the target's deficit alone, as every bound does
        g = family_geometric(0.3, 1e-3)
        rep = certify(g, g)
        assert rep.oracle_tv == (0.0, g.tail_deficit)
        assert g.tail_deficit == pytest.approx(7.98e-4, rel=1e-3)
        assert rep.bound_nu_side == rep.bound_mu_side == rep.simplified == g.tail_deficit
        assert rep.dominated is True

    def test_oracle_interval_stays_in_0_1(self):
        # disjoint windows, so t = 1/2; each law's missing half could cancel it
        # or double it, and the interval stays inside [0, 1]
        mu = DiscreteDist(0, (F(1, 2),), F(1, 2))
        nu = DiscreteDist(1, (F(1, 2),), F(1, 2))
        assert tv_distance(mu, nu) == (0, 1)
        assert tv_distance(mu, mu) == (0, F(1, 2))

    def test_exact_anchor_below_the_float_range_has_a_finite_gap(self):
        # the cross products over their common denominator underflowed to 0.0
        # and the gap read inf, with ratio_matched true
        tiny = F(1, 10**400)
        law = make_dist(0, [tiny, tiny, 1 - 2 * tiny])
        a = anchor_at(law, law, 0)
        assert (a.ratio_matched, a.ratio_gap) == (True, 0.0)
        other = make_dist(0, [tiny, 2 * tiny, 1 - 3 * tiny])
        assert anchor_at(law, other, 0).ratio_gap == 0.5

    def test_structured_hypothesis_failure(self):
        bimodal = make_dist(0, [4.0, 1.0, 4.0])
        rep = certify(make_dist(0, [1.0, 1.0, 1.0]), bimodal)
        assert not rep.hypothesis.holds
        assert rep.bound_nu_side is None and rep.bound_mu_side is None
        assert rep.details["not_applicable"]
        assert rep.oracle_tv is not None

    def test_absolute_continuity_failure_structured(self):
        nu = make_dist(0, [1.0, 1.0, 1.0])
        mu = make_dist(0, [1.0, 1.0])
        rep = certify(mu, nu)
        assert not rep.hypothesis.holds
        assert rep.details["not_applicable"] == "absolute continuity violated"

    def test_fallback_anchor_for_unmatched_pair(self):
        # two geometrics never match ratios, certify still produces valid bounds
        mu = family_geometric(0.3, 1e-10)
        nu = family_geometric(0.6, 1e-10, min_length=len(mu.masses))
        rep = certify(mu, nu)
        assert rep.anchor is not None and not rep.anchor.ratio_matched
        assert rep.dominated is True

    def test_explicit_anchor(self):
        rep = certify(B_MATCH, PB, ell=0)
        assert rep.simplified == pytest.approx(1 / 289, abs=1e-15)
        assert rep.dominated is True

    @pytest.mark.parametrize("n, ell", [(1000, 881), (700, 680), (800, 750), (800, 751)])
    def test_given_anchor_on_subnormal_cells_is_not_applicable(self, n, ell):
        # on every cell of the recursion, which the float pmf now cuts: the
        # cells at ell and ell + 1 carry one or two significant digits, too
        # few for the slope log r; at n = 1000 both envelope bounds came out
        # 0.0, below an oracle TV of 4.7e-4
        rng = random.Random(n)
        bv = BernoulliVector([0.3 * (1 + rng.uniform(-0.02, 0.02)) for _ in range(n)])
        rep = certify(binomial_target(bv), make_dist(0, untrimmed_recursion(bv.p)), ell)
        assert rep.details == {"not_applicable": f"anchor {ell} has subnormal float cells"}
        assert rep.hypothesis.holds and rep.core_bounds() == [] and rep.oracle_tv.hi > 0

    def test_smallest_gap_row_on_subnormal_cells_is_skipped(self):
        # the four cells of the row at 2 are the same subnormal s, so its gap
        # read 0: as the anchor it gave three bounds of 0 below a TV of 0.3
        s = 1e-320
        rep = certify(make_dist(0, [0.5, 0.5, s, s]), make_dist(0, [0.2, 0.8, s, s]))
        assert rep.anchor.ell == 0 and rep.dominated is True
        assert rep.bound_nu_side == pytest.approx(0.3, rel=1e-15)

    def test_near_homogeneous_sum_anchor_skips_subnormal_cells(self):
        # on every cell of the recursion, which the float pmf now cuts: the
        # smallest gap, 0, lay on two subnormal cells at 765, and all three
        # bounds came out 0 below a TV of 7.9e-5
        bv = BernoulliVector([0.198, 0.199, 0.2, 0.201, 0.202] * 200)
        nu = make_dist(0, untrimmed_recursion(bv.p))
        assert 0 < nu.mass(765) < sys.float_info.min
        rep = certify(binomial_target(bv), nu)
        assert rep.anchor.ell == 0 and rep.anchor.ratio_matched
        assert rep.dominated is True and rep.oracle_tv.lo > 7.8e-5

    def test_point_mass_target_not_applicable(self):
        rep = certify(make_dist(0, [1.0, 1.0]), make_dist(0, [1.0, 0.0]))
        assert rep.bound_nu_side is None
        assert "anchor" in rep.details["not_applicable"]

    @pytest.mark.parametrize("mu", [make_dist(0, [1.0, 0.0, 0.0]), make_dist(-1, [F(0), F(1)])])
    def test_same_single_atom_has_zero_bound(self, mu):
        rep = certify(mu, make_dist(0, [1.0, 0.0]))
        assert (rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (0.0, 0.0, 0.0)
        assert rep.anchor is None and rep.dominated is True
        assert rep.details == {"anchor_outside_target_support": 0}

    def test_single_atom_against_other_exact_reference_not_applicable(self):
        rep = certify(make_dist(0, [F(1), F(1)]), make_dist(0, [F(0), F(1)]))
        assert rep.core_bounds() == [] and rep.oracle_tv.hi == F(1, 2)
        assert "anchor" in rep.details["not_applicable"]

    def test_absolute_continuity_is_checked_under_a_given_certificate(self):
        # the reference is 0.0 at 2, where the target has mass: the caller's
        # certificate holds, and the report is not applicable
        holds = LogConcavityCertificate(True, None, True)
        rep = certify(make_dist(0, [1.0, 1.0, 0.0]), make_dist(0, [1.0, 1.0, 1.0]), 0, holds,
                      stated_bound=0.5, details={"k": 1})
        assert rep.details == {"k": 1, "not_applicable": "absolute continuity violated"}
        assert rep.anchor is None and rep.core_bounds() == [] and rep.dominated is None
        assert rep.hypothesis == holds and rep.stated_bound == 0.5 and rep.oracle_tv.hi > 0

    def test_absolute_continuity_report_leaves_no_reference_cycle(self):
        # a returned exception that kept its traceback would hold its frames
        # in a cycle, which only the cyclic collector frees
        gc.collect()
        gc.disable()
        try:
            rep = certify(make_dist(0, [1.0, 1.0]), make_dist(0, [1.0, 1.0, 1.0]))
            assert rep.details == {"not_applicable": "absolute continuity violated"}
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("mu, nu, ell, reason", [
    (make_dist(0, [1.0, 1.0]), make_dist(0, [1.0, 1.0, 1.0]), None, "absolute continuity violated"),
    (make_dist(0, [1, 1, 1]), make_dist(0, [4, 1, 4]), None, "target is not log-concave relative to the reference"),
    (make_dist(0, [1, 1, 0, 1]), make_dist(0, [1, 1, 0, 0]), None, "reference support is not a contiguous interval"),
    (make_dist(0, [0.5, 0.5]), make_dist(0, [1.0]), None, "no valid anchor (target support is a single atom)"),
    (make_dist(0, [1, 1, 1, 1]), make_dist(0, [1, 2, 1]), 2, "anchor 2 needs positive target mass at 2 and 3"),
    (make_dist(0, [0.5, 0.5, 1e-320, 1e-320]), make_dist(0, [0.2, 0.8, 1e-320, 1e-320]), 2,
     "anchor 2 has subnormal float cells"),
], ids=["absolute-continuity", "not-relative", "reference-gap", "single-atom", "outside-support", "subnormal"])
def test_certify_names_each_not_applicable_reason(mu, nu, ell, reason):
    # one shape: no anchor and no bounds, the caller's details and the reason
    rep = certify(mu, nu, ell, stated_bound=0.5, details={"k": 1})
    assert rep.details == {"k": 1, "not_applicable": reason}
    assert rep.anchor is None and rep.core_bounds() == [] and rep.stated_bound == 0.5


class TestStatus:
    """``status`` is derived from the hypothesis and ``details``, in that
    order, and ``to_json`` carries it."""

    def test_certified_tilt(self):
        mu, nu = random_envelope_instance(random.Random(5), 20)
        rep = certify(mu, nu)
        assert rep.hypothesis.holds and rep.core_bounds()
        assert rep.status == rep.to_json()["status"] == "certified"

    def test_failed_relative_certificate(self):
        rep = certify(make_dist(0, [1, 1, 1]), make_dist(0, [4, 1, 4]))
        assert rep.details["not_applicable"] == "target is not log-concave relative to the reference"
        assert rep.status == "hypothesis_failed"

    def test_failed_caller_hypothesis(self):
        # 1 * 3 * 2^2 < 2 * 4 * 1 * 6: no matroid has this profile
        rep = matroids.matroid_binomial_bound(matroids.IndepProfile(4, (1, 2, 6, 0, 0)), 0, include_zero=True)
        assert rep.hypothesis == LogConcavityCertificate(False, 1, True)
        assert "not_applicable" not in rep.details
        assert rep.status == "hypothesis_failed"
        # the failed hypothesis is read first, also where a reason is named
        rep = matroids.matroid_binomial_bound(matroids.IndepProfile(4, (1, 2, 6, 0, 0)), 0)
        assert rep.details["not_applicable"] and rep.status == "hypothesis_failed"

    def test_single_atom_target_is_not_applicable(self):
        rep = certify(make_dist(0, [0.5, 0.5]), make_dist(0, [1.0]))
        assert rep.hypothesis.holds
        assert rep.details == {"not_applicable": "no valid anchor (target support is a single atom)"}
        assert rep.status == rep.to_json()["status"] == "not_applicable"


class TestDominanceSweep:
    def test_sweep_all_pass(self):
        t0 = time.perf_counter()
        report = run_dominance_sweep(200, seed=42)
        assert report.passes == report.instances == 200
        assert report.failures == ()
        assert report.worst_slack >= -1e-10
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.parametrize("slacks, worst", [([math.inf, -0.5, 0.25], -0.5), ([math.inf, math.inf], None)])
    def test_worst_slack_is_the_smallest_finite_slack(self, slacks, worst):
        # an instance with no bound to compare has slack inf and fails
        draws = iter(slacks)

        def instance(rng):
            slack = next(draws)
            return slack, None if 0 <= slack < math.inf else {"slack": slack}

        report = _sweep(len(slacks), 0, instance)
        assert report.worst_slack == worst
        assert report.passes == slacks.count(0.25)
        assert [f["index"] for f in report.failures] == [i for i, s in enumerate(slacks) if s != 0.25]


class TestFloatPathDefects:
    """Float-path defects: each test states the correct behaviour.  The
    certificate agrees with exact arithmetic since its products are formed on
    frexp mantissas where they leave the normal range: 1e-144 * 1e-180 against
    (1e-169)^2 read 0 <= 0.  The binomial report at n=3000 and the Poisson
    report at n=1000 pass since the float pmf cut its tails below 2^-200 of
    its largest cell, and the Poisson report at n=100 since the Poisson
    reference covers the sum's window: it ended at 94, where the sum has mass
    up to 100."""

    def test_certificate_agrees_with_exact_arithmetic(self):
        ex = [k * k for k in range(14)] + [180, 191]
        flat = make_dist(0, [1] * len(ex))
        exact = is_log_concave_relative(make_dist(0, [F(1, 10**e) for e in ex]), flat)
        assert not exact.holds and exact.first_violation == 13
        assert not is_log_concave_relative(make_dist(0, [10.0**-e for e in ex]), flat).holds

    def test_pb_binomial_certifies_at_n_3000(self):
        rng = random.Random(3000)
        bv = BernoulliVector(tuple(rng.uniform(0, 0.5) for _ in range(3000)))
        rep = certify(binomial_target(bv), poisson_binomial_pmf(bv))
        assert "not_applicable" not in rep.details
        assert rep.dominated is True

    @pytest.mark.parametrize("n", [100, 1000])
    def test_pb_poisson_certifies(self, n):
        rng = random.Random(n)
        bv = BernoulliVector(tuple(rng.uniform(0, 0.5) for _ in range(n)))
        rep = certify(poisson_target(bv), poisson_binomial_pmf(bv))
        assert "not_applicable" not in rep.details
        assert rep.dominated is True
