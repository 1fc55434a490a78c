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
    uniform_reference,
)


def dists_equal(x, y, tol=0.0):
    lo = min(x.offset, y.offset)
    hi = max(x.end, y.end)
    return all(abs(x.mass(k) - y.mass(k)) <= tol for k in range(lo, hi))


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
        with pytest.raises(InvalidDistributionError):
            make_dist(0, [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            make_dist(0, [])


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

    def test_geometric_theta_one(self):
        d = family_geometric(1.0)
        assert d.mass(0) == 1 and d.tail_deficit == 0

    def test_geometric_masses(self):
        d = family_geometric(0.25, 1e-12)
        for k in range(5):
            assert d.mass(k) == pytest.approx(0.25 * 0.75**k, rel=1e-15)
        assert 0 < d.tail_deficit <= 1e-12
        assert abs(sum(d.masses) + d.tail_deficit - 1.0) < 1e-12

    def test_poisson_series(self):
        d = family_poisson(1.0, 1e-12)
        for k in range(6):
            assert d.mass(k) == pytest.approx(math.exp(-1) / math.factorial(k), rel=1e-13)
        assert d.tail_deficit <= 1e-12
        assert abs(sum(d.masses) + d.tail_deficit - 1.0) < 1e-12

    def test_poisson_zero_rate(self):
        assert family_poisson(0.0).mass(0) == 1

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
        # oracle: direct positive-part summation, analytic tail below 1e-14
        b = family_binomial(2, 0.5)
        p = family_poisson(1.0, 1e-14)
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
    def test_poisson_vs_counting(self):
        p = family_poisson(2.0, 1e-12)
        assert is_log_concave(p).holds

    def test_support_gap_fails(self):
        nu = make_dist(0, [1, 0, 1])
        mu = uniform_reference(0, 3)
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
        p = family_poisson(1.7, 1e-12)
        assert is_ulc_infinity(p.masses).holds

    def test_partition_profile_example(self):
        assert is_ulc([1, 4, 4], 4).holds

    def test_violation_detected(self):
        assert not is_ulc([1, 2, 4], 4).holds

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidDistributionError):
            is_ulc([1, -1], 3)

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
        # at m = 1200 the tail masses are subnormal and the products of the
        # three-term check lose their precision, so the verdict there is not
        # trustworthy in float (a log-space certificate is the fix); it must
        # still come back as a certificate
        assert is_ulc(family_binomial(1200, 0.5).masses, 1200).support_is_interval


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
        d = family_poisson(2.5, 1e-12)
        j = d.to_json()
        back = DiscreteDist.from_json(j)
        assert back.offset == d.offset
        assert back.masses == tuple(float(m) for m in d.masses)
        assert back.tail_deficit == float(d.tail_deficit)
