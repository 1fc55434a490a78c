import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds import (
    DiscreteDist,
    HypothesisError,
    InvalidDistributionError,
    NotApplicableError,
    certify,
    convolve,
    family_bernoulli,
    family_binomial,
    make_dist,
    point_mass,
    tv_distance,
)
from tvbounds.errors import BoundNotApplicable
from tvbounds.sums import (
    BernoulliVector,
    binomial_bound_primary,
    binomial_bound_secondary,
    binomial_report,
    binomial_target,
    geometric_sum_bound,
    poisson_binomial_pmf,
    poisson_bound,
    poisson_report,
    poisson_target,
)


def brute_force_pmf(ps):
    """Independent oracle: enumerate all 2^n outcomes."""
    n = len(ps)
    out = [0.0] * (n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for b, p in zip(bits, ps):
            prob *= p if b else 1.0 - p
        out[sum(bits)] += prob
    return out


class TestPMF:
    def test_single(self):
        assert poisson_binomial_pmf(BernoulliVector((0.5,))).masses == (0.5, 0.5)

    def test_iid_equals_binomial(self):
        bv = BernoulliVector((0.3,) * 7)
        pmf = poisson_binomial_pmf(bv)
        target = family_binomial(7, 0.3)
        assert all(abs(a - b) <= 1e-14 for a, b in zip(pmf.masses, target.masses))

    def test_hand_example(self):
        pmf = poisson_binomial_pmf(BernoulliVector((F(1, 10), F(2, 10))))
        assert pmf.masses == (F(72, 100), F(26, 100), F(2, 100))

    def test_matches_enumeration(self):
        rng = random.Random(4)
        for _ in range(10):
            ps = tuple(rng.uniform(0, 0.9) for _ in range(rng.randint(1, 9)))
            pmf = poisson_binomial_pmf(BernoulliVector(ps))
            oracle = brute_force_pmf(ps)
            assert all(abs(a - b) <= 1e-13 for a, b in zip(pmf.masses, oracle))

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            BernoulliVector(())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=12))
    def test_ratio_identity_zero_one(self, ps):
        # P[S=1] = P[S=0] * sum p_i / alpha_i
        bv = BernoulliVector(tuple(ps))
        pmf = poisson_binomial_pmf(bv)
        factor = math.fsum(p / (1.0 - p) for p in ps)
        assert pmf.mass(1) == pytest.approx(pmf.mass(0) * factor, abs=1e-12)


def _leading_rationals(ps):
    return next((i for i, v in enumerate(ps) if isinstance(v, float)), len(ps))


def convolution_fold_pmf(ps, k=None):
    """Oracle: the n-1 two-term convolutions the direct recursion replaces,
    in the order given.  A rational summand past the first ``k`` (by default
    the leading rational run) is the float law ``float(1 - p), float(p)``,
    as the fold takes one that follows a float."""
    k = _leading_rationals(ps) if k is None else k
    laws = [family_bernoulli(v) for v in ps[:k]]
    laws += [family_bernoulli(v) if isinstance(v, float) else make_dist(0, [float(1 - v), float(v)]) for v in ps[k:]]
    return reduce(convolve, laws)


def applied_order(ps):
    """The summands in the order the float pmf applies them, and the length
    of the leading rational run: that run as given, then the rest by
    increasing float ``p * q``, ties by ``p``, then ``q``, where a rational
    enters as ``float(p), float(1 - p)``."""
    k = _leading_rationals(ps)

    def key(v):
        p, q = float(v), (float(1 - v) if isinstance(v, F) else 1.0 - v)
        return p * q, p, q

    return list(ps[:k]) + sorted(ps[k:], key=key), k


def float_bits(d):
    return d.offset, [m.hex() for m in d.masses], d.tail_deficit.hex()


def assert_cut_of(pmf, want):
    """``pmf`` is the float pmf's cut of the untrimmed cells ``want`` on
    ``0..n``: every cell at or above 2^-60 of the largest is stored, bit for
    bit; no stored cell is subnormal or below 2^-200 of the largest; and the
    untrimmed mass outside the stored window is at most ``tail_deficit``."""
    top = max(want)
    assert 0 <= pmf.offset and pmf.end <= len(want)
    assert all(pmf.mass(k).hex() == m.hex() for k, m in enumerate(want) if m >= top * 2**-60)
    assert min(pmf.masses) >= max(pmf.masses) * 2**-200 and min(pmf.masses) >= sys.float_info.min
    assert type(pmf.tail_deficit) is float
    assert math.fsum(want[: pmf.offset] + want[pmf.end :]) <= pmf.tail_deficit


_FLOAT_P = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
_EXACT_P = st.integers(1, 60).flatmap(lambda d: st.integers(0, d - 1).map(lambda k: F(k, d)))


class TestPMFMatchesConvolutionFold:
    """The fold in the applied order keeps every cell; the float pmf is its
    cut (``assert_cut_of``)."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_FLOAT_P, min_size=1, max_size=80))
    def test_float_bit_identical(self, ps):
        assert_cut_of(poisson_binomial_pmf(BernoulliVector(ps)), convolution_fold_pmf(*applied_order(ps)).masses)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_EXACT_P, min_size=1, max_size=30))
    def test_exact_equal(self, ps):
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        assert pmf.masses == convolution_fold_pmf(ps).masses
        assert all(type(m) is F for m in pmf.masses)
        assert type(pmf.tail_deficit) is F and pmf.tail_deficit == F(0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0), _EXACT_P), max_size=20),
        st.lists(_FLOAT_P, min_size=1, max_size=20),
        st.lists(_EXACT_P, max_size=20),
    )
    def test_mixed_bit_identical(self, exact_prefix, floats, exact_suffix):
        ps = exact_prefix + floats + exact_suffix
        assert_cut_of(poisson_binomial_pmf(BernoulliVector(ps)), convolution_fold_pmf(*applied_order(ps)).masses)

    def test_fixed_large_vector_bit_identical(self):
        rng = random.Random(2210)
        ps = [rng.uniform(0, 0.5) for _ in range(400)]
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        assert_cut_of(pmf, convolution_fold_pmf(*applied_order(ps)).masses)
        assert pmf.end < len(ps) + 1 and pmf.tail_deficit > 0  # the right tail was cut


def untrimmed_recursion(ps, k=None):
    """Oracle: the float two-term recursion on all n + 1 cells, zeros included,
    in the order given.

    The first ``k`` summands (by default the leading rational run) are summed
    exactly and rounded once; a later rational summand enters as ``float(p),
    float(1 - p)``.
    """
    k = _leading_rationals(ps) if k is None else k
    a = [float(m) for m in convolution_fold_pmf(ps[:k]).masses] if k else [1.0]
    for v in ps[k:]:
        p, q = float(v), (float(1 - v) if isinstance(v, F) else 1.0 - v)
        a = [x * p + y * q for x, y in zip([0.0] + a, a + [0.0])]
    return a


def _slots(ps, which):
    """``(pass, stage)`` of each summand ``which`` picks after the first float
    one, in the applied order behind its identity padding."""
    order, k = applied_order(ps)
    pad = -(len(order) - k) % 16
    return [divmod(pad + i, 16) for i, v in enumerate(order[k:]) if which(v)]


def _rationals_at(ps, ranks):
    """``ps`` with the float summands at ``ranks`` of the applied order replaced
    by nearby rationals, which keep those ranks, each one's ``1 - p`` rounding
    once to another float than ``1.0 - float(p)``."""
    ps, (order, _) = list(ps), applied_order(ps)
    d = 10**9 + 7
    for r in ranks:
        near = (F(round(order[r] * d) + j, d) for j in itertools.count())
        ps[ps.index(order[r])] = next(v for v in near if float(1 - v) != 1.0 - float(v))
    return ps


def _band_cases():
    rng = random.Random(77031)
    right_tail = [rng.uniform(0, 0.5) for _ in range(1000)]
    both_tails = [rng.uniform(0.3, 0.7) for _ in range(1500)]
    zeros_and_tiny = [rng.uniform(0, 0.4) for _ in range(300)] + [0.0] * 5 + [1e-300]
    zeros_and_tiny += [0.0 if i % 7 == 0 else rng.uniform(0, 0.4) for i in range(300)]
    exact_prefix = [F(rng.randint(0, 49), 100) for _ in range(30)] + [F(0)] * 3
    exact_prefix += [rng.uniform(0, 0.5) for _ in range(900)] + [F(rng.randint(1, 49), 100) for _ in range(20)]
    cases = {"right-tail-1000": right_tail, "both-tails-1500": both_tails,
             "zeros-and-1e-300": zeros_and_tiny, "fraction-prefix": exact_prefix}
    # remainders 1-4 mod 16 at n in the thousands
    cases.update({f"n={n}": [rng.uniform(0, 0.5) for _ in range(n)] for n in (1201, 1202, 1203, 1204)})
    # a rational summand after floats enters as float(p), float(1 - p), here
    # at two stages of one pass
    cases["fraction-inside-a-pass"] = _rationals_at([rng.uniform(0, 0.5) for _ in range(500)], (245, 250))
    # zero summands are applied first, behind the identity padding: five
    # within the first pass
    zero_run = [rng.uniform(0, 0.5) for _ in range(600)]
    zero_run[301:306] = [0.0] * 5
    cases["zero-run-inside-a-pass"] = zero_run
    # at n of a few hundred: every remainder of n mod 16, so every count of
    # identity summands
    rng = random.Random(16061)
    cases.update({f"n=240+{r}": [rng.uniform(0, 0.1) for _ in range(240 + r)] for r in range(16)})
    # rational summands 17 apart in the applied order sit at each of the
    # sixteen stages once, the middle and the last among them
    cases["fraction-at-every-stage"] = _rationals_at([rng.uniform(0, 0.3) for _ in range(400)],
                                                     [100 + 17 * i for i in range(16)])
    zero_run = [rng.uniform(0, 0.3) for _ in range(400)]
    zero_run[190:210] = [0.0] * 20  # longer than a pass, so it crosses a pass boundary
    cases["zero-run-across-a-pass"] = zero_run
    return cases


_BAND_CASES = _band_cases()


class TestPMFUnderflowedTails:
    """The float recursion applies sixteen summands per pass and cuts the
    band's ends below 2^-200 of its largest cell after each pass; it must be
    the cut (``assert_cut_of``) of one summand per pass over all n + 1 cells."""

    @pytest.mark.parametrize("name", list(_BAND_CASES))
    def test_bit_identical_to_untrimmed_recursion(self, name):
        ps = _BAND_CASES[name]
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        want = untrimmed_recursion(*applied_order(ps))
        assert_cut_of(pmf, want)
        assert pmf.tail_deficit > 0  # the cut ran
        assert sum(m == 0.0 for m in want) > 0  # and reached cells that underflowed

    def test_cases_place_their_summands(self):
        # the applied order, not the input order, sets where a summand runs
        rational = lambda v: isinstance(v, F)  # noqa: E731
        (p1, s1), (p2, s2) = _slots(_BAND_CASES["fraction-inside-a-pass"], rational)
        assert p1 == p2 and s1 != s2
        assert sorted(s for _, s in _slots(_BAND_CASES["fraction-at-every-stage"], rational)) == list(range(16))
        assert _slots(_BAND_CASES["zero-run-inside-a-pass"], lambda v: v == 0.0) == [(0, s) for s in range(8, 13)]
        assert _slots(_BAND_CASES["zero-run-across-a-pass"], lambda v: v == 0.0) == [divmod(i, 16) for i in range(20)]

    def test_both_tails_underflow(self):
        ps = _BAND_CASES["both-tails-1500"]
        want = untrimmed_recursion(ps)
        assert want[0] == want[-1] == 0.0
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        assert pmf.offset > 0 and pmf.end < len(want)

    def test_n3000_cells_pinned(self):
        # sha256 of the offset, the float.hex() cells and the deficit, recorded
        # with the cut at 2^-200 of the largest cell; re-pinned when the float
        # summands came to be applied in increasing order of p * q
        rng = random.Random(3016)
        ps = [rng.uniform(0, 0.5) for _ in range(3000)]
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        assert_cut_of(pmf, untrimmed_recursion(*applied_order(ps)))
        digest = hashlib.sha256(" ".join(map(str, float_bits(pmf))).encode()).hexdigest()
        assert digest == "2eb8369bda7a2f3f202c92921a4d081df2429361652b32f8843e83cb283643c4"

    def test_fraction_after_floats_rounds_its_complement(self):
        # 1 - 1/3 rounded once differs from 1.0 minus the rounded 1/3
        assert float(1 - F(1, 3)).hex() == "0x1.5555555555555p-1"
        assert (1.0 - float(F(1, 3))).hex() == "0x1.5555555555556p-1"
        ps = [0.25, 0.125, F(1, 3), 0.375, 0.0625]
        want = [m.hex() for m in untrimmed_recursion(*applied_order(ps))]
        assert [m.hex() for m in poisson_binomial_pmf(BernoulliVector(ps)).masses] == want
        ps[2] = float(F(1, 3))
        assert [m.hex() for m in poisson_binomial_pmf(BernoulliVector(ps)).masses] != want

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_one_distribution_per_call(self, exact, monkeypatch):
        # only the result is built and validated, not one law per summand
        rng = random.Random(40417)
        ps = [F(rng.randint(0, 49), 100) if exact else rng.uniform(0, 0.5) for _ in range(200)]
        bv = BernoulliVector(ps)
        calls = []
        init = DiscreteDist.__post_init__
        monkeypatch.setattr(DiscreteDist, "__post_init__", lambda self: calls.append(1) or init(self))
        pmf = poisson_binomial_pmf(bv)
        assert pmf.is_exact is exact
        assert len(calls) == 1


_TIED_P = st.integers(0, 63).map(lambda k: k / 64)  # k/64 and 1 - k/64 tie on p * q
_SHUFFLABLE = st.one_of(
    st.lists(st.one_of(_FLOAT_P, _TIED_P), min_size=1, max_size=80),
    # few distinct values, each repeated
    st.lists(st.one_of(_FLOAT_P, _TIED_P), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)),
)


def _report_without_p(report, ps):
    """The report on ``ps`` as canonical JSON less ``details["p"]``, or the error it raised."""
    try:
        out = report(BernoulliVector(ps)).to_json()
    except (BoundNotApplicable, ValueError) as exc:
        return repr(exc)
    del out["details"]["p"]
    return json.dumps(out, sort_keys=True)


class TestPermutationInvariance:
    """The float pmf, and so every Bernoulli-sum report, is a function of the
    multiset of summands after the first float one."""

    @settings(max_examples=100, deadline=None)
    @given(_SHUFFLABLE, st.randoms(use_true_random=False))
    def test_float_shuffle(self, ps, rnd):
        shuffled = list(ps)
        rnd.shuffle(shuffled)
        assert float_bits(poisson_binomial_pmf(BernoulliVector(shuffled))) == float_bits(
            poisson_binomial_pmf(BernoulliVector(ps)))

    def test_every_order_of_ties_and_repeats(self):
        ps = (0.25, 0.75, 0.75, 0.0, 0.1, 0.1, 0.5)
        bits = {str(float_bits(poisson_binomial_pmf(BernoulliVector(order)))) for order in itertools.permutations(ps)}
        assert len(bits) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EXACT_P, max_size=10), _FLOAT_P, st.lists(st.one_of(_FLOAT_P, _TIED_P, _EXACT_P), max_size=40),
           st.randoms(use_true_random=False))
    def test_mixed_shuffle_after_the_first_float(self, prefix, first, rest, rnd):
        tail = [first, *rest]
        rnd.shuffle(tail)
        i = next(i for i, v in enumerate(tail) if isinstance(v, float))
        tail.insert(0, tail.pop(i))  # a float still ends the leading rational run
        assert float_bits(poisson_binomial_pmf(BernoulliVector(prefix + tail))) == float_bits(
            poisson_binomial_pmf(BernoulliVector([*prefix, first, *rest])))

    @settings(max_examples=40, deadline=None)
    @given(_SHUFFLABLE)
    def test_reports_equal_under_reversal(self, ps):
        for report in (binomial_report, poisson_report):
            assert _report_without_p(report, ps) == _report_without_p(report, ps[::-1])

    @pytest.mark.parametrize("seed", [1005, 1006], ids=["binomial-anchor", "poisson-anchor"])
    def test_reversal_of_a_uniform_draw(self, seed):
        # n = 1000, U(0, 0.5): applied in input order, reversing the p_i moved
        # the smallest-gap anchor by one cell, in the binomial report at seed
        # 1005 (66 -> 65, bound_nu_side 0.99999985 -> 0.99999999) and in the
        # Poisson one at seed 1006 (60 -> 61)
        rng = random.Random(seed)
        ps = [rng.uniform(0, 0.5) for _ in range(1000)]
        for report in (binomial_report, poisson_report):
            assert _report_without_p(report, ps) == _report_without_p(report, ps[::-1])


class TestBinomialTarget:
    @pytest.mark.parametrize("ps", [(0, F(1, 3), F(2, 7)), (0.0, 0.1, 0.75)])
    def test_failure_masses_keep_the_summands_arithmetic(self, ps):
        # the casts the vector used to spell out per arithmetic
        exact = all(isinstance(v, (int, F)) for v in ps)
        want = [1 - F(v) for v in ps] if exact else [(1.0 - float(v)).hex() for v in ps]
        assert [a if exact else a.hex() for a in BernoulliVector(ps).alphas] == want
        assert all(isinstance(a, (int, F)) == exact for a in BernoulliVector(ps).alphas)

    def test_exact_zero_probability_keeps_the_target_exact(self):
        # the int 0 over its failure mass 1 must not divide to a float
        bv = BernoulliVector((0, F(1, 3)))
        assert bv.lambda_n == F(1, 2) and isinstance(bv.lambda_n, F)
        # the exact closed form, rounded once: still exact equality on the float
        assert binomial_target(bv).is_exact and binomial_bound_primary(bv) == float(F(1, 25))
        assert binomial_target(BernoulliVector((0, 0))).is_exact

    def test_all_zero(self):
        t = binomial_target(BernoulliVector((0.0, 0.0, 0.0)))
        assert t.mass(0) == 1.0

    def test_mean_parameter(self):
        t = binomial_target(BernoulliVector((F(1, 10), F(2, 10))))
        m = (F(10, 9) + F(5, 4)) / 2
        assert t.masses == family_binomial(2, 1 - 1 / m).masses
        assert float(1 - 1 / m) == pytest.approx(0.1529412, abs=1e-7)

    def test_iid_recovers_p(self):
        t = binomial_target(BernoulliVector((F(2, 5),) * 4))
        assert t.masses == family_binomial(4, F(2, 5)).masses

    def test_float_target_ratio_matched_at_n_2000(self):
        # the target's m_1/m_0 is built to equal the sum's, lambda_n; the float
        # build must keep that well inside distributions.ANCHOR_MATCH_TOL.  The
        # sum's own cells 0 and 1 lie below 2^-200 of its largest and are cut
        rng = random.Random(4127)
        bv = BernoulliVector(tuple(rng.uniform(0, 0.5) for _ in range(2000)))
        target = binomial_target(bv)
        assert target.mass(0) >= sys.float_info.min
        assert abs(target.mass(1) / target.mass(0) - bv.lambda_n) < 1e-14 * bv.lambda_n
        assert poisson_binomial_pmf(bv).offset > 1


class TestBinomialBounds:
    def test_equal_probs_zero(self):
        assert binomial_bound_primary(BernoulliVector((F(3, 10),) * 5)) == 0

    def test_example_value(self):
        # the exact closed form, rounded once: still exact equality on the float
        bound = binomial_bound_primary(BernoulliVector((F(1, 10), F(2, 10))))
        assert bound == float(F(1, 289))

    @pytest.mark.parametrize("ps", [(F(1, 10), F(2, 10)), (0, F(1, 3)), (F(3, 10),) * 5,
                                    (F(1, 97), F(48, 97), F(13, 40)), (0.1, 0.2), (F(1, 10), 0.2), (0.25, F(1, 3), 0)])
    def test_primary_is_one_float(self, ps):
        # rational input: the exact closed form, rounded once
        bv = BernoulliVector(ps)
        bound = binomial_bound_primary(bv)
        assert type(bound) is float
        if bv.is_exact:
            t = (1 + sum(F(p) / (1 - F(p)) for p in ps) / len(ps)) ** len(ps) * math.prod(1 - F(p) for p in ps)
            assert bound == float(min(t - 1, 1 - 1 / t))

    def test_float_path_agrees_with_exact(self):
        exact = binomial_bound_primary(BernoulliVector((F(1, 10), F(2, 10))))
        fl = binomial_bound_primary(BernoulliVector((0.1, 0.2)))
        assert fl == pytest.approx(float(exact), rel=1e-12)

    def test_dominates_oracle(self):
        for ps in ((0.1, 0.2), (0.05, 0.10, 0.15)):
            bv = BernoulliVector(ps)
            tv = tv_distance(binomial_target(bv), poisson_binomial_pmf(bv))
            assert float(binomial_bound_primary(bv)) >= float(tv.hi)

    def test_secondary_equal_probs(self):
        # deviation terms vanish, the cubic term remains strictly positive
        n, p = 4, 0.2
        x = p / (1 - p)
        expect = math.expm1(n * x**3 / (3 * n * n))
        got = binomial_bound_secondary(BernoulliVector((p,) * n))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got > 0

    def test_secondary_formula(self):
        ps = (0.0, 0.3)
        x = [0.0, 0.3 / 0.7]
        r = sum(x) / 2
        expect = math.expm1(sum((xi - r) ** 2 for xi in x) + sum(xi**3 for xi in x) / 12.0)
        assert binomial_bound_secondary(BernoulliVector(ps)) == pytest.approx(expect, rel=1e-12)

    def test_secondary_dominates(self):
        bv = BernoulliVector((0.1, 0.2))
        tv = tv_distance(binomial_target(bv), poisson_binomial_pmf(bv))
        assert binomial_bound_secondary(bv) >= float(tv.hi)
        # the paper's sharper exponent (1/2) sum (x_i - r_n)^2 + (1/3n^2) (sum x_i)^3 bounds it too
        x = [p / (1 - p) for p in bv.p]
        r = sum(x) / 2
        assert math.expm1(0.5 * sum((xi - r) ** 2 for xi in x) + sum(x) ** 3 / 12.0) >= float(tv.hi)

    @pytest.mark.parametrize("ps", [[1e-6] * 5, [1e-9] * 2, [0.3] * 7])
    def test_float_primary_of_equal_probs_is_zero(self, ps):
        # equal p_i make t exactly 1; log t no longer cancels below 0 or above
        assert binomial_bound_primary(BernoulliVector(ps)) == 0.0

    def test_primary_beyond_float_range_is_one(self):
        # log t = 2000 log1p(lambda_n/2000) + log 1e-4 is about 3574, so t - 1 overflows
        assert binomial_bound_primary(BernoulliVector([0.9999] + [0.0] * 1999)) == 1.0

    def test_secondary_beyond_float_range_saturates(self):
        # the exponent is 2 * 19^3 / 12, about 1143
        assert binomial_bound_secondary(BernoulliVector((0.95, 0.95))) == math.inf


class TestPoissonBounds:
    def test_all_zero(self):
        bv = BernoulliVector((0.0, 0.0))
        assert poisson_target(bv).mass(0) == 1.0
        assert poisson_bound(bv) == 0.0

    def test_rare_events_closed_form(self):
        n = 10
        bv = BernoulliVector((1.0 / n,) * n)
        assert float(bv.lambda_n) == pytest.approx(10 / 9, rel=1e-14)
        assert poisson_bound(bv) == pytest.approx(math.expm1(n / (n - 1) ** 2), rel=1e-12)
        assert poisson_bound(bv) == pytest.approx(0.1314, abs=1e-4)
        tv = tv_distance(poisson_target(bv), poisson_binomial_pmf(bv))
        assert poisson_bound(bv) >= float(tv.hi)

    def test_exact_rate_and_binomial_p_are_the_mean_forms(self):
        # summed directly, lambda_n and lambda_n / (n + lambda_n) are still
        # exactly n (m_n - 1) and 1 - 1/m_n on rational input, with m_n the
        # arithmetic mean of the 1/alpha_i
        bv = BernoulliVector((F(1, 3), F(2, 7), F(0), F(11, 23)))
        m_n = sum(1 / (1 - p) for p in bv.p) / bv.n
        assert bv.lambda_n == bv.n * (m_n - 1)
        assert binomial_target(bv).masses == family_binomial(bv.n, 1 - 1 / m_n).masses

    def test_mixed_dominates(self):
        bv = BernoulliVector((0.1, 0.2))
        tv = tv_distance(poisson_target(bv), poisson_binomial_pmf(bv))
        assert poisson_bound(bv) >= float(tv.hi)

    def test_random_dominance(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 30)
            bv = BernoulliVector(tuple(rng.uniform(0, 0.5) for _ in range(n)))
            s = poisson_binomial_pmf(bv)
            assert float(binomial_bound_primary(bv)) >= float(tv_distance(binomial_target(bv), s).hi) - 1e-12
            assert poisson_bound(bv) >= float(tv_distance(poisson_target(bv), s).hi) - 1e-12

    def test_beyond_float_range_saturates(self):
        # the exponent is (0.968 / 0.032)^2, about 915
        assert poisson_bound(BernoulliVector((0.968,))) == math.inf

    def test_scaling_law(self):
        # n * TV stays within a 20% non-increase across doubling n
        values = []
        for n in (10, 20, 40, 80):
            bv = BernoulliVector((1.0 / n,) * n)
            tv = tv_distance(poisson_target(bv), poisson_binomial_pmf(bv))
            values.append(n * float(tv.hi))
        for prev, cur in zip(values, values[1:]):
            assert cur <= 1.2 * prev


class TestReports:
    """``binomial_report`` and ``poisson_report`` are ``certify``'s report on
    the pipeline, with the closed forms and inputs that the CLI prints."""

    @pytest.mark.parametrize("p", [(0.1, 0.2, 0.3), (F(1, 3), F(2, 7), F(11, 23)), (0.0, 0.0)])
    def test_binomial_report(self, p):
        bv = BernoulliVector(p)
        rep = binomial_report(bv)
        plain = certify(binomial_target(bv), poisson_binomial_pmf(bv))
        assert rep.to_json() == dict(plain.to_json(), stated_bound=float(binomial_bound_primary(bv)),
                                     details={**plain.details, "bound_secondary": binomial_bound_secondary(bv),
                                              "target_p": float(bv.lambda_n / (bv.n + bv.lambda_n)),
                                              "p": [float(v) for v in p]})

    @pytest.mark.parametrize("p", [(0.05, 0.1, 0.02), (F(1, 3), F(2, 7)), (0.968,)])
    def test_poisson_report(self, p):
        bv = BernoulliVector(p)
        rep = poisson_report(bv)
        plain = certify(poisson_target(bv), poisson_binomial_pmf(bv))
        assert rep.to_json() == dict(plain.to_json(), stated_bound=poisson_bound(bv),
                                     details={**plain.details, "lambda": float(bv.lambda_n), "p": [float(v) for v in p]})


class TestGeometricSumBound:
    def test_all_point_masses(self):
        rep = geometric_sum_bound([point_mass(0).to_float(), point_mass(0).to_float()])
        assert rep.stated_bound == 0.0
        assert rep.details["theta"] == 1.0
        assert rep.dominated is True

    def test_two_bernoullis(self):
        # float summands, then exact ones, whose ratio t is summed in floats too
        for p in (0.05, F(1, 20)):
            rep = geometric_sum_bound([family_bernoulli(p), family_bernoulli(p)])
            t = 2 * (1 / 0.95 - 1)
            assert rep.details["m_minus_one_times_n"] == pytest.approx(t, rel=1e-12)
            assert rep.stated_bound == pytest.approx(t / (1 - t), rel=1e-12)
            assert rep.stated_bound == pytest.approx(0.11765, abs=1e-5)
            assert rep.details["theta"] == pytest.approx(0.894737, abs=1e-6)
            assert float(rep.oracle_tv.lo) == pytest.approx(0.00858, abs=1e-5)
            assert rep.anchor.ratio_matched  # Bernoulli summands match the ratio exactly
            assert rep.dominated is True
            assert rep.stated_bound >= min(rep.core_bounds())

    def test_mixed_summands(self):
        xi1 = family_bernoulli(0.02)
        xi2 = make_dist(0, (0.9, 0.09, 0.009))  # geometric head, log-concave
        rep = geometric_sum_bound([xi1, xi2])
        assert rep.dominated is True
        assert rep.stated_bound >= float(rep.oracle_tv.hi)

    def test_not_log_concave_rejected(self):
        bad = make_dist(0, (0.5, 0.1, 0.4))
        with pytest.raises(HypothesisError):
            geometric_sum_bound([bad])

    def test_parameter_domain(self):
        # n (m_n - 1) >= 1 leaves no valid geometric parameter
        with pytest.raises(NotApplicableError):
            geometric_sum_bound([family_bernoulli(0.4), family_bernoulli(0.4)])


# input checks that no other test reaches: each row pins the error's class and message
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: geometric_sum_bound([make_dist(0, [0.9, 0.1]), make_dist(1, [1.0])]),
                 InvalidDistributionError, "summand 1 must start at 0", id="summand-offset"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
