import math
import random
import sys
from fractions import Fraction as F
from itertools import accumulate
from operator import mul

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvbounds import (
    AbsoluteContinuityError,
    DiscreteDist,
    InvalidDistributionError,
    LogConcavityCertificate,
    convolve,
    family_bernoulli,
    family_binomial,
    family_geometric,
    family_poisson,
    is_log_concave,
    is_log_concave_relative,
    is_ulc,
    is_ulc_infinity,
    make_dist,
    point_mass,
    tv_distance,
)
from tvbounds.distributions import DEFAULT_TAIL_BUDGET, _neumaier_sum

_MP = mpmath.mp.clone()
_MP.dps = 40


def dists_equal(x, y, tol=0.0):
    lo = min(x.offset, y.offset)
    hi = max(x.end, y.end)
    return all(abs(x.mass(k) - y.mass(k)) <= tol for k in range(lo, hi))


def bits(values):
    """Floats by ``float.hex``, exact values as fractions: two sequences of
    equal bits hold the same values in the same arithmetic."""
    return [v.hex() if isinstance(v, float) else F(v) for v in values]


def assert_law(d, masses, deficit):
    """``d`` holds ``masses`` and ``deficit`` bit for bit, and is exact when they are."""
    assert bits(d.masses) == bits(masses)
    # a zero deficit says the same in either arithmetic: nothing is left out
    assert bits([d.tail_deficit]) == bits([deficit]) if deficit else d.tail_deficit == 0
    assert d.is_exact == (not any(isinstance(v, float) for v in (*masses, deficit)))


class TestMakeDist:
    def test_normalizes(self):
        d = make_dist(0, [2, 2])
        assert d.masses == (F(1, 2), F(1, 2))
        assert d.tail_deficit == 0

    def test_point_mass(self):
        d = make_dist(3, [1])
        assert d.offset == 3 and d.masses == (F(1),)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            make_dist(0, [1, -1])

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidDistributionError, match="all masses zero"):
            make_dist(0, [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            make_dist(0, [])

    @pytest.mark.parametrize("masses", [[2, 2], [F(1, 3), 1, F(5, 7)], [0.1, 0.2, 0.7], [1, 0.5], [F(1, 3), 0.25, 0]])
    def test_keeps_its_inputs_arithmetic(self, masses):
        # the cast formulas the constructor used to spell out per arithmetic
        if all(isinstance(m, (int, F)) for m in masses):
            total = F(sum(masses))
            want, deficit = [F(m) / total for m in masses], F(0)
        else:
            total = sum(masses)
            want, deficit = [float(m) / total for m in masses], 0.0
        assert_law(make_dist(0, masses), want, deficit)

    @pytest.mark.parametrize("build", [
        lambda: DiscreteDist(0, (math.nan, 1.0)),
        lambda: DiscreteDist(0, (1.0,), math.nan),
        # the total is NaN or inf, so every normalized mass is NaN or 0
        lambda: make_dist(0, [math.nan, 1.0]),
        lambda: make_dist(0, [math.inf, 1.0]),
    ], ids=["nan-mass", "nan-deficit", "make-dist-nan", "make-dist-inf"])
    def test_nan_rejected(self, build):
        with pytest.raises(InvalidDistributionError, match="sum to nan, not 1"):
            build()

    @pytest.mark.parametrize("masses, deficit", [((10**400,), 0), ((F(1, 2), F(1, 2)), F(10**400))],
                             ids=["mass", "deficit"])
    def test_exact_total_past_the_float_range_rejected(self, masses, deficit):
        # the float total overflowed and raised OverflowError
        with pytest.raises(InvalidDistributionError, match="sum to more than 2, not 1"):
            DiscreteDist(0, masses, deficit)


class TestFamilies:
    def test_binomial_small(self):
        assert family_binomial(2, 0.5).masses == (0.25, 0.5, 0.25)

    def test_binomial_exact(self):
        d = family_binomial(3, F(1, 3))
        assert sum(d.masses) == 1
        assert d.masses[0] == F(8, 27)

    def test_binomial_large_normalized(self):
        d = family_binomial(500, 0.3)
        assert abs(sum(d.masses) - 1.0) < 1e-12

    def test_float_binomial_is_ultra_log_concave(self):
        assert is_ulc(family_binomial(600, 0.5).masses, 600).holds

    def test_float_binomial_matches_exact_cells(self):
        # every cell within 2n ulps (relative 2n 2^-52) of the exact binomial
        # at the same float p = a/b, compared on integers: cell k is
        # comb(n, k) a^k (b-a)^(n-k) / b^n
        n, p = 300, 0.3
        a, b = p.as_integer_ratio()
        for k, got in enumerate(family_binomial(n, p).masses):
            want = math.comb(n, k) * a**k * (b - a) ** (n - k)
            num, den = got.as_integer_ratio()
            assert abs(num * b**n - want * den) * 2**52 <= 2 * n * want * den, k

    def test_geometric_theta_one(self):
        d = family_geometric(1.0)
        assert d.mass(0) == 1 and d.tail_deficit == 0

    def test_geometric_masses(self):
        d = family_geometric(0.25, 1e-12)
        for k in range(5):
            assert d.mass(k) == pytest.approx(0.25 * 0.75**k, rel=1e-15)
        assert 0 < d.tail_deficit <= 1e-12
        assert abs(sum(d.masses) + d.tail_deficit - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [1e-300, F(1, 10**400)], ids=["float", "exact"])
    def test_geometric_ratio_indistinguishable_from_one_is_an_input_error(self, theta):
        # r = 1 - theta rounds to 1.0, or its log does: no window reaches the budget
        with pytest.raises(InvalidDistributionError, match="too close to 1"):
            family_geometric(theta)

    def test_geometric_window_past_a_million_cells_is_an_input_error(self):
        # the window to the 1e-12 budget holds 27.6 / theta cells: 9.2e6 of
        # them took 3 s and 860 MB in a compound Poisson report
        for theta in (3e-6, F(1, 10**6)):
            with pytest.raises(InvalidDistributionError, match="too close to 1 to truncate within 1000000 cells"):
                family_geometric(theta)
        assert len(family_geometric(3e-5).masses) == 921021

    def test_geometric_exact_ratio_below_the_float_range(self):
        # float(r) underflows to 0.0; one cell leaves a tail of r itself
        r = F(1, 10**400)
        d = family_geometric(1 - r)
        assert d.masses == (1 - r,) and d.tail_deficit == r

    def test_poisson_series(self):
        d = family_poisson(1.0)
        for k in range(6):
            assert d.mass(k) == pytest.approx(math.exp(-1) / math.factorial(k), rel=1e-13)
        assert d.tail_deficit <= 1e-12
        assert abs(sum(d.masses) + d.tail_deficit - 1.0) < 1e-12

    def test_poisson_zero_rate(self):
        assert family_poisson(0.0).mass(0) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 4.0), st.floats(0.0, 3.0))
    def test_poisson_against_mpmath(self, log10_lam, length_per_lam):
        # lam log-uniform in [1e-3, 1e4], min_length up to 3 lam.  The walk
        # rounds twice per step out of its closed-form cell (the mode from 19
        # on, cell 0 below), so a cell's error may grow by 2^-52 per step
        lam = 10.0**log10_lam
        min_length = max(1, int(length_per_lam * lam))
        L = _MP.mpf(lam)
        # the window's largest cell, when the mode lies past the window
        top = _MP.exp((min_length - 1) * _MP.log(L) - L - _MP.loggamma(min_length)) if lam >= min_length else 1
        if top < 2.0**-1080:  # it underflows
            with pytest.raises(InvalidDistributionError, match="no float mass"):
                family_poisson(lam, min_length=min_length)
            return
        assume(top > 2.0**-1070)  # or it lies within a few ulps of the smallest subnormal
        d = family_poisson(lam, min_length=min_length)
        last, start = len(d.masses) - 1, int(lam) if lam >= 19 else 0
        assert d.offset == 0 and last + 1 >= min_length
        first = next(k for k, c in enumerate(d.masses) if c > 1e-300)
        p = _MP.exp(first * _MP.log(L) - L - _MP.loggamma(first + 1))
        for k in range(first, last + 1):
            if d.masses[k] > 1e-300:
                assert abs(d.masses[k] - p) <= p * (1e-14 + 2.0**-52 * abs(k - start))
            p *= L / (k + 1)
        tail = _MP.mpf(0)  # P(X > last), summed until its terms stop counting
        for k in range(last + 2, 10**6):
            if p <= tail * 1e-30:
                break
            tail, p = tail + p, p * L / k
        assert d.tail_deficit <= DEFAULT_TAIL_BUDGET
        if d.masses[-1] >= sys.float_info.min:  # a tail from a subnormal cell is stored as 0, as the cells are
            assert d.tail_deficit >= tail

    @pytest.mark.parametrize("lam", [810.0, 5000.0])
    def test_poisson_rate_past_the_float_range_of_its_first_cell(self, lam):
        # e^-lam, cell 0, underflows past a rate of 745; the walk from the mode
        # does not need it, and the mode's mass is about 1/sqrt(2 pi lam)
        d = family_poisson(lam, min_length=int(lam) + 1)
        assert d.mass(0) == 0.0
        assert d.mass(int(lam)) == pytest.approx(1 / math.sqrt(2 * math.pi * lam), rel=1e-3)
        assert 0 < d.tail_deficit <= DEFAULT_TAIL_BUDGET
        assert abs(sum(d.masses) + d.tail_deficit - 1.0) < 1e-12

    @pytest.mark.parametrize("lam, min_length", [(810.0, 1), (1e9, 2), (9e15, 2), (3000.0, 1000)])
    def test_poisson_rate_whose_window_underflows_is_refused(self, lam, min_length):
        # every cell of 0..min_length - 1 underflows, and the window would
        # run to the mode: refused before any cell is built
        with pytest.raises(InvalidDistributionError, match="no float mass"):
            family_poisson(lam, min_length=min_length)

    @pytest.mark.parametrize("lam, min_length", [(700.0, 1), (2000.0, 1000)])
    def test_poisson_rate_past_the_window_with_float_mass_there(self, lam, min_length):
        # the largest window cell, P(min_length - 1), is positive, so the law
        # is built out to its tail budget past the mode
        d = family_poisson(lam, min_length=min_length)
        assert 0 < d.mass(min_length - 1) < 1e-100 and len(d.masses) > lam
        assert d.tail_deficit <= DEFAULT_TAIL_BUDGET

    def test_poisson_window_length_is_keyword_only(self):
        # a positional second argument was a tail budget
        with pytest.raises(TypeError):
            family_poisson(2.0, 1e-14)

    @pytest.mark.parametrize("p", [0, 1, F(2, 7), 0.0, 1.0, 0.3])
    def test_bernoulli_keeps_its_inputs_arithmetic(self, p):
        want = (1 - F(p), F(p)) if isinstance(p, (int, F)) else (1.0 - p, p)
        assert_law(family_bernoulli(p), want, F(0) if isinstance(p, (int, F)) else 0.0)

    @pytest.mark.parametrize("n, p", [(n, p) for n in (0, 1, 2, 7, 100) for p in (0, 1, F(2, 7))]
                             + [(n, p) for n in (0, 1, 2, 7, 100, 3000) for p in (0.0, 1.0)])
    def test_binomial_keeps_its_inputs_arithmetic(self, n, p):
        if isinstance(p, float):
            # the float recurrence at p = 0.0 gives the point mass the
            # parent's special case wrote out; p = 1.0 keeps its case
            want = [0.0] * (n + 1)
            want[0 if p == 0.0 else n] = 1.0
            deficit = 0.0
        else:
            q = 1 - F(p)
            want, deficit = [math.comb(n, k) * F(p) ** k * q ** (n - k) for k in range(n + 1)], F(0)
        assert_law(family_binomial(n, p), want, deficit)

    def test_exact_binomial_equals_the_closed_form(self):
        # the mass-ratio recurrence stores the same reduced Fractions, so its
        # cells and their integer numerators equal C(n, k) p^k q^(n-k) exactly
        rng = random.Random(97)
        for n in range(151):
            for p in (0, 1, F(0), F(1), F(1, 10**6), 1 - F(1, 10**6), F(rng.randrange(98), 97)):
                want = tuple(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1))
                got = family_binomial(n, p)
                assert got.masses == want, (n, p)
                assert got.integer_masses == DiscreteDist(0, want).integer_masses, (n, p)

    @pytest.mark.parametrize("theta", [1, 1.0, F(1, 3), 0.25])
    def test_geometric_keeps_its_inputs_arithmetic(self, theta):
        d = family_geometric(theta, 1e-6)
        if theta == 1:  # a ratio of 0 is the exact point mass at 0
            assert_law(d, [F(1)], F(0))
            return
        r = 1 - theta
        want = list(accumulate([r] * (len(d.masses) - 1), mul, initial=theta))
        assert_law(d, want, r ** len(d.masses))

    def test_parameter_validation(self):
        with pytest.raises(InvalidDistributionError):
            family_geometric(0.0)
        with pytest.raises(InvalidDistributionError):
            family_binomial(3, 1.5)
        with pytest.raises(InvalidDistributionError):
            family_poisson(-1.0)
        with pytest.raises(InvalidDistributionError):
            family_bernoulli(-0.1)


class TestTV:
    def test_identical(self):
        d = family_binomial(4, 0.3)
        assert tv_distance(d, d) == (0.0, 0.0)

    def test_bernoulli_pair(self):
        iv = tv_distance(family_bernoulli(0.5), family_bernoulli(0.25))
        assert iv.lo == iv.hi == 0.25

    def test_binomial_vs_poisson(self):
        # oracle: direct positive-part summation; the tail past 19 is below 1e-18
        b = family_binomial(2, 0.5)
        p = family_poisson(1.0, min_length=20)
        iv = tv_distance(b, p)
        expect = sum(
            max(0.25 * (k == 0) + 0.5 * (k == 1) + 0.25 * (k == 2) - math.exp(-1) / math.factorial(k), 0)
            for k in range(41)
        )
        assert iv.lo == pytest.approx(expect, abs=1e-13)
        assert iv.hi - iv.lo <= 2e-14

    def test_positive_part_symmetry(self):
        rng = random.Random(11)
        for _ in range(20):
            x = make_dist(0, [rng.random() for _ in range(6)])
            y = make_dist(0, [rng.random() for _ in range(6)])
            fwd = sum(max(y.mass(k) - x.mass(k), 0) for k in range(6))
            bwd = sum(max(x.mass(k) - y.mass(k), 0) for k in range(6))
            assert fwd == pytest.approx(bwd, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 50), min_size=2, max_size=6),
        st.lists(st.integers(1, 50), min_size=2, max_size=6),
        st.lists(st.integers(1, 50), min_size=2, max_size=6),
    )
    def test_metric_properties(self, a, b, c):
        x = make_dist(0, a)
        y = make_dist(1, b)
        z = make_dist(0, c)
        dxy = tv_distance(x, y).lo
        assert dxy == tv_distance(y, x).lo
        assert tv_distance(x, x).lo == 0
        assert dxy <= tv_distance(x, z).lo + tv_distance(z, y).lo


class TestConvolve:
    def test_identity_element(self):
        x = family_binomial(3, 0.4)
        assert dists_equal(convolve(point_mass(0), x), x)

    def test_bernoulli_squares_to_binomial(self):
        b = family_bernoulli(F(3, 10))
        assert dists_equal(convolve(b, b), family_binomial(2, F(3, 10)))

    def test_binomial_semigroup(self):
        lhs = convolve(family_binomial(3, 0.2), family_binomial(5, 0.2))
        assert dists_equal(lhs, family_binomial(8, 0.2), tol=1e-14)

    @pytest.mark.parametrize("x, y", [
        (family_binomial(4, 0.3), family_poisson(1.5)),
        (family_binomial(4, F(1, 3)), family_geometric(F(1, 2), 1e-3)),
        (family_binomial(4, F(1, 3)), family_poisson(1.5)),
        (family_poisson(0.5), family_geometric(F(1, 3), 1e-3)),
        (family_bernoulli(0.3), family_bernoulli(F(2, 5))),
    ], ids=["float", "exact", "exact-float", "float-exact", "bernoulli-mixed"])
    def test_keeps_its_inputs_arithmetic(self, x, y):
        # the parent copied both laws to floats unless both were exact
        exact = x.is_exact and y.is_exact
        a, b = (x.masses, y.masses) if exact else ([float(v) for v in x.masses], [float(v) for v in y.masses])
        add = sum if exact else _neumaier_sum
        want = [add(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
                for k in range(len(a) + len(b) - 1)]
        deficit = x.tail_deficit + y.tail_deficit
        assert_law(convolve(x, y), want, deficit if exact else float(deficit))

    def test_offsets_and_deficits_add(self):
        x = DiscreteDist(2, (0.5, 0.5 - 1e-13), 1e-13)
        y = DiscreteDist(-1, (1.0,), 0.0)
        z = convolve(x, y)
        assert z.offset == 1
        assert z.tail_deficit == pytest.approx(1e-13)


def random_log_concave(rng, length, offset=0):
    """Decreasing consecutive ratios yield an exactly log-concave sequence."""
    ratios = sorted((F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(length - 1)), reverse=True)
    masses = [F(1)]
    for r in ratios:
        masses.append(masses[-1] * r)
    return make_dist(offset, masses)


class TestRelativeLogConcavity:
    def test_exact_cells_beside_a_float_deficit_get_the_exact_certificate(self):
        # a0 a2 exceeds a1^2 by 2^-60 relative, inside the float slack: the
        # arithmetic comes from the cells, so the Fraction cells are compared
        # exactly although the float deficit makes the law inexact
        masses = (F(1, 4), F(1, 4), F(1, 4) * (1 + F(1, 2**60)))
        nu = DiscreteDist(0, masses, 0.25)
        assert not nu.is_exact
        want = LogConcavityCertificate(False, 1, True)
        assert is_log_concave(nu) == is_log_concave(DiscreteDist(0, masses, 1 - sum(masses))) == want
        assert is_log_concave(nu.to_float()).holds  # the float cells tie
        assert is_log_concave_relative(nu, make_dist(0, [1, 1, 1])) == want

    def test_poisson_vs_counting(self):
        p = family_poisson(2.0)
        assert is_log_concave(p).holds

    def test_support_gap_fails(self):
        nu = make_dist(0, [1, 0, 1])
        mu = make_dist(0, [1] * 3)
        cert = is_log_concave_relative(nu, mu)
        assert not cert.holds and not cert.support_is_interval and cert.first_violation == 1

    def test_poisson_binomial_vs_matched_binomial(self):
        nu = make_dist(0, [F(72, 100), F(26, 100), F(2, 100)])
        mu = family_binomial(2, F(13, 85))
        assert is_log_concave_relative(nu, mu).holds

    def test_absolute_continuity_error_distinct(self):
        nu = make_dist(0, [1, 1, 1])
        mu = make_dist(0, [1, 1])
        with pytest.raises(AbsoluteContinuityError):
            is_log_concave_relative(nu, mu)

    def test_bimodal_fails_with_index(self):
        nu = make_dist(0, [4, 1, 4])
        cert = is_log_concave(nu)
        assert not cert.holds and cert.support_is_interval and cert.first_violation == 1

    def test_closure_under_convolution(self):
        rng = random.Random(5)
        for _ in range(25):
            x = random_log_concave(rng, rng.randint(2, 7))
            y = random_log_concave(rng, rng.randint(2, 7))
            assert is_log_concave(convolve(x, y)).holds


class TestULC:
    def test_binomial_coefficients_hold_with_equality(self):
        for m in (3, 5, 8):
            assert is_ulc([math.comb(m, k) for k in range(m + 1)], m).holds

    def test_poisson_masses_are_ulc_infinity(self):
        p = family_poisson(1.7)
        assert is_ulc_infinity(p.masses).holds

    def test_partition_profile_example(self):
        assert is_ulc([1, 4, 4], 4).holds

    def test_violation_detected(self):
        assert not is_ulc([1, 2, 4], 4).holds

    def test_negative_entries_rejected(self):
        # and the other sequences that are no law's cells, by both checks
        for seq, message in (([1, -1], "negative entries"), ([], "empty sequence"), ([0, 0.0], "all entries zero")):
            for check in (lambda a: is_ulc(a, 3), is_ulc_infinity):
                with pytest.raises(InvalidDistributionError, match=message):
                    check(seq)

    def test_too_long_rejected(self):
        with pytest.raises(InvalidDistributionError):
            is_ulc([1, 1, 1, 1], 2)

    def test_ulc_closure_under_convolution(self):
        # coefficient sequences of products of real-rooted polynomials
        rng = random.Random(9)
        for _ in range(20):
            m1, m2 = rng.randint(1, 6), rng.randint(1, 6)
            a = _real_rooted_coeffs(rng, m1)
            b = _real_rooted_coeffs(rng, m2)
            assert is_ulc(a, m1).holds and is_ulc(b, m2).holds
            conv = _poly_mul(a, b)
            assert is_ulc(conv, m1 + m2).holds

    def test_ulc_iff_binomial_relative(self):
        rng = random.Random(21)
        ps = (F(1, 10), F(1, 2), F(9, 10))
        for _ in range(15):
            n = rng.randint(2, 7)
            good = _real_rooted_coeffs(rng, n)
            bad = list(good)
            bad[n // 2] = bad[n // 2] * F(1, 1000)  # dent the middle
            for seq, expected in ((good, True), (bad, is_ulc(bad, n).holds)):
                nu = make_dist(0, seq)
                rel = all(is_log_concave_relative(nu, family_binomial(n, p)).holds for p in ps)
                assert rel == expected

    def test_kernels_match_fraction_oracle(self):
        # a_k / w_k log-concave, checked directly on Fractions, for the three
        # weightings: C(m, k) (order m), 1/k! (infinite order), 1 (plain)
        rng = random.Random(77)
        seen = set()
        for _ in range(400):
            a = _random_exact_sequence(rng)
            m = len(a) - 1 + rng.randint(0, 3)
            offset = rng.randint(-5, 5)
            cases = [
                (is_ulc(a, m), [math.comb(m, k) for k in range(len(a))], 0),
                (is_ulc_infinity(a), [F(1, math.factorial(k)) for k in range(len(a))], 0),
                (is_log_concave(make_dist(offset, a)), [1] * len(a), offset),
            ]
            for cert, w, base in cases:
                expected = _log_concave_oracle([F(v) / wk for v, wk in zip(a, w)], base)
                got = (cert.holds, cert.first_violation, cert.support_is_interval)
                assert got == expected, (a, m, w)
                seen.add((expected[0], expected[2]))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_float_masses_past_binomial_coefficient_overflow(self):
        # C(m, k)^2 leaves the float range from m ~ 520; the ratio form builds
        # no coefficient
        assert is_ulc(family_binomial(600, F(1, 2)).to_float().masses, 600).holds
        # at m = 1200 the cells around 156 are about 5e-162, still normal, but
        # the products of the three-term check there are subnormal (3.24e-318
        # against 3.22e-318, which failed at 156): formed on frexp mantissas
        # they keep their digits.  The cells 17..36 are subnormal themselves
        # and keep the plain products
        assert is_ulc(family_binomial(1200, 0.5).masses, 1200).holds


def _random_exact_sequence(rng):
    """Short int/Fraction sequences: real-rooted coefficient lists (ultra
    log-concave), the same with a dented or zeroed entry, or random draws
    with zeros."""
    kind = rng.randrange(3)
    if kind < 2:
        a = _real_rooted_coeffs(rng, rng.randint(1, 7))
        if kind == 1:
            k = rng.randrange(len(a))
            a[k] = a[k] * F(rng.randint(0, 3), rng.randint(1, 5))
            if not any(a):
                a[k] = F(1)
        return a
    a = [rng.choice([0, 0, rng.randint(1, 30), F(rng.randint(1, 30), rng.randint(1, 30))])
         for _ in range(rng.randint(1, 9))]
    if not any(a):
        a[rng.randrange(len(a))] = 1
    return a


def _log_concave_oracle(b, base):
    """``(holds, first_violation, support_is_interval)`` for the Fraction
    sequence ``b`` indexed from ``base``."""
    pos = [k for k, v in enumerate(b) if v > 0]
    for k in range(pos[0], pos[-1] + 1):
        if b[k] == 0:
            return False, base + k, False
    for k in range(pos[0] + 1, pos[-1]):
        if b[k - 1] * b[k + 1] > b[k] * b[k]:
            return False, base + k, True
    return True, None, True


def _real_rooted_coeffs(rng, m):
    coeffs = [F(1)]
    for _ in range(m):
        root = F(rng.randint(1, 20), rng.randint(1, 20))
        coeffs = _poly_mul(coeffs, [root, F(1)])
    return coeffs


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestSerialization:
    def test_round_trip(self):
        d = family_poisson(2.5)
        j = d.to_json()
        back = DiscreteDist.from_json(j)
        assert back.offset == d.offset
        assert back.masses == tuple(float(m) for m in d.masses)
        assert back.tail_deficit == float(d.tail_deficit)
