import itertools
import math
import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds import (
    DiscreteDist,
    HypothesisError,
    NotApplicableError,
    convolve,
    family_bernoulli,
    family_binomial,
    make_dist,
    point_mass,
    tv_distance,
)
from tvbounds.sums import (
    BernoulliVector,
    binomial_bound_primary,
    binomial_bound_secondary,
    binomial_target,
    geometric_sum_bound,
    log1p_taylor_bounds,
    poisson_binomial_pmf,
    poisson_bound,
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


def convolution_fold_pmf(ps):
    """Oracle: the n-1 two-term convolutions the direct recursion replaces."""
    return reduce(convolve, (family_bernoulli(v) for v in ps))


def float_bits(d):
    return d.offset, [m.hex() for m in d.masses], d.tail_deficit.hex()


_FLOAT_P = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
_EXACT_P = st.integers(1, 60).flatmap(lambda d: st.integers(0, d - 1).map(lambda k: F(k, d)))


class TestPMFMatchesConvolutionFold:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_FLOAT_P, min_size=1, max_size=80))
    def test_float_bit_identical(self, ps):
        assert float_bits(poisson_binomial_pmf(BernoulliVector(ps))) == float_bits(convolution_fold_pmf(ps))

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
        assert float_bits(poisson_binomial_pmf(BernoulliVector(ps))) == float_bits(convolution_fold_pmf(ps))

    def test_fixed_large_vector_bit_identical(self):
        rng = random.Random(2210)
        ps = [rng.uniform(0, 0.5) for _ in range(400)]
        assert float_bits(poisson_binomial_pmf(BernoulliVector(ps))) == float_bits(convolution_fold_pmf(ps))


def untrimmed_recursion(ps):
    """Oracle: the float two-term recursion on all n + 1 cells, zeros included.

    A leading rational run is summed exactly and rounded once, at the first
    float summand; a later rational summand enters as ``float(p), float(1 - p)``.
    """
    k = next((i for i, v in enumerate(ps) if isinstance(v, float)), len(ps))
    a = [float(m) for m in convolution_fold_pmf(ps[:k]).masses] if k else [1.0]
    for v in ps[k:]:
        p, q = float(v), (float(1 - v) if isinstance(v, F) else 1.0 - v)
        a = [x * p + y * q for x, y in zip([0.0] + a, a + [0.0])]
    return a


def _band_cases():
    rng = random.Random(77031)
    right_tail = [rng.uniform(0, 0.5) for _ in range(1000)]
    both_tails = [rng.uniform(0.3, 0.7) for _ in range(1500)]
    zeros_and_tiny = [rng.uniform(0, 0.4) for _ in range(300)] + [0.0] * 5 + [1e-300]
    zeros_and_tiny += [0.0 if i % 7 == 0 else rng.uniform(0, 0.4) for i in range(300)]
    exact_prefix = [F(rng.randint(0, 49), 100) for _ in range(30)] + [F(0)] * 3
    exact_prefix += [rng.uniform(0, 0.5) for _ in range(900)] + [F(rng.randint(1, 49), 100) for _ in range(20)]
    return {"right-tail-1000": right_tail, "both-tails-1500": both_tails,
            "zeros-and-1e-300": zeros_and_tiny, "fraction-prefix": exact_prefix}


_BAND_CASES = _band_cases()


class TestPMFUnderflowedTails:
    """The float recursion skips cells that underflowed to 0.0; every cell must
    stay bit-identical to the recursion over all n + 1 cells."""

    @pytest.mark.parametrize("name", list(_BAND_CASES))
    def test_bit_identical_to_untrimmed_recursion(self, name):
        ps = _BAND_CASES[name]
        pmf = poisson_binomial_pmf(BernoulliVector(ps))
        want = untrimmed_recursion(ps)
        assert pmf.offset == 0 and len(pmf.masses) == len(ps) + 1
        assert [m.hex() for m in pmf.masses] == [m.hex() for m in want]
        zeros = sum(m == 0.0 for m in want)
        assert sum(m == 0.0 for m in pmf.masses) == zeros
        assert zeros > 0  # the trimming branch ran

    def test_both_tails_underflow(self):
        masses = poisson_binomial_pmf(BernoulliVector(_BAND_CASES["both-tails-1500"])).masses
        assert masses[0] == masses[-1] == 0.0

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


class TestBinomialTarget:
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


class TestBinomialBounds:
    def test_equal_probs_zero(self):
        assert binomial_bound_primary(BernoulliVector((F(3, 10),) * 5)) == 0

    def test_example_value(self):
        bound = binomial_bound_primary(BernoulliVector((F(1, 10), F(2, 10))))
        assert bound == F(1, 289)

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
        assert binomial_bound_secondary(bv, proof_tight=True) >= float(tv.hi)

    def test_proof_tight_exponent(self):
        ps = (0.1, 0.3, 0.4)
        x = [p / (1 - p) for p in ps]
        r = sum(x) / 3
        expect = math.expm1(0.5 * sum((xi - r) ** 2 for xi in x) + sum(x) ** 3 / 27.0)
        assert binomial_bound_secondary(BernoulliVector(ps), proof_tight=True) == pytest.approx(expect, rel=1e-12)


class TestPoissonBounds:
    def test_all_zero(self):
        bv = BernoulliVector((0.0, 0.0))
        assert poisson_target(bv).mass(0) == 1.0
        assert poisson_bound(bv) == 0.0

    def test_rare_events_closed_form(self):
        n = 10
        bv = BernoulliVector((1.0 / n,) * n)
        assert float(bv.summary().lambda_n) == pytest.approx(10 / 9, rel=1e-14)
        assert poisson_bound(bv) == pytest.approx(math.expm1(n / (n - 1) ** 2), rel=1e-12)
        assert poisson_bound(bv) == pytest.approx(0.1314, abs=1e-4)
        tv = tv_distance(poisson_target(bv), poisson_binomial_pmf(bv))
        assert poisson_bound(bv) >= float(tv.hi)

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

    def test_scaling_law(self):
        # n * TV stays within a 20% non-increase across doubling n
        values = []
        for n in (10, 20, 40, 80):
            bv = BernoulliVector((1.0 / n,) * n)
            tv = tv_distance(poisson_target(bv), poisson_binomial_pmf(bv))
            values.append(n * float(tv.hi))
        for prev, cur in zip(values, values[1:]):
            assert cur <= 1.2 * prev


class TestLogTaylor:
    def test_envelope_on_nonnegative_axis(self):
        rng = random.Random(2)
        for _ in range(2000):
            x = rng.uniform(0.0, 10.0)
            lo, hi = log1p_taylor_bounds(x)
            v = math.log1p(x)
            assert lo <= v + 1e-14
            assert v <= hi + 1e-14

    def test_upper_holds_on_negative_axis(self):
        rng = random.Random(3)
        for _ in range(2000):
            x = rng.uniform(-0.9, 0.0)
            _, hi = log1p_taylor_bounds(x)
            assert math.log1p(x) <= hi + 1e-14

    def test_lower_fails_below_zero(self):
        # the quadratic lower envelope is an upper envelope on (-1, 0);
        # frozen counterexample documenting why the two-sided test is split
        lo, _ = log1p_taylor_bounds(-0.5)
        assert lo > math.log1p(-0.5)


class TestGeometricSumBound:
    def test_all_point_masses(self):
        rep = geometric_sum_bound([point_mass(0).to_float(), point_mass(0).to_float()])
        assert rep.stated_bound == 0.0
        assert rep.details["theta"] == 1.0
        assert rep.dominated is True

    def test_two_bernoullis(self):
        rep = geometric_sum_bound([family_bernoulli(0.05), family_bernoulli(0.05)])
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
