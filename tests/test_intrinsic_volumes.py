import math
import random
from fractions import Fraction as F

import pytest

from tvbounds import InvalidDistributionError, NotApplicableError, family_binomial, family_poisson, is_ulc, tv_distance
from tvbounds.intrinsic_volumes import (
    IVSequence,
    ProductFactor,
    ball_volume,
    iv_ball,
    iv_box,
    iv_cube,
    poisson_iv_bound,
    product_bounds,
    segment_factor,
    z_dist,
)


def bits(values):
    """Floats by ``float.hex``, exact values as fractions."""
    return [v.hex() if isinstance(v, float) else F(v) for v in values]


class TestConstructors:
    @pytest.mark.parametrize("sides", [(1, 2, 3), (F(1, 2), F(2, 3), 2), (0.1, 0.2, 3.0), (2, 0.5, 0.25)])
    def test_box_keeps_its_inputs_arithmetic(self, sides):
        # the casts the box used to spell out: Fractions when every side is
        # exact, else floats, through c'_j = c_{j-1} s + c_j
        exact = all(isinstance(v, (int, F)) for v in sides)
        coeff = [F(1) if exact else 1.0]
        for side in sides:
            v = F(side) if exact else float(side)
            coeff = [c * v + d for c, d in zip([0, *coeff], [*coeff, 0])]
        assert bits(iv_box(sides).V) == bits(coeff)

    @pytest.mark.parametrize("n, s", [(0, 2), (5, 3), (6, F(2, 3)), (40, F(1, 7))])
    def test_exact_cube_keeps_its_inputs_arithmetic(self, n, s):
        assert bits(iv_cube(n, s).V) == [F(s) ** j * math.comb(n, j) for j in range(n + 1)]

    @pytest.mark.parametrize("n, s", [(5, 0.5), (40, 0.13), (300, 7.3), (724, 0.13912224296616743)])
    def test_float_cube_volumes_are_rounded_as_in_the_normal_range(self, n, s):
        # C(n, j) s^j of the float s to a few ulps, or to the subnormal spacing:
        # s^j alone left the normal range at j = 360 for the last cube
        for j, v in enumerate(iv_cube(n, s).V):
            want = math.comb(n, j) * F(s) ** j
            assert type(v) is float and abs(F(v) - want) <= want * F(4, 2**53) + F(1, 2**1074), j

    def test_unit_cube_via_box(self):
        iv = iv_box((1, 1, 1))
        assert iv.V == (1, 3, 3, 1)
        assert iv.W == 8

    @pytest.mark.parametrize("sides", [(math.inf,), (1.0, math.nan), (0.5, math.inf)])
    def test_box_sides_must_be_finite(self, sides):
        with pytest.raises(InvalidDistributionError, match="sides must be finite"):
            iv_box(sides)

    def test_two_sides_symmetric_functions(self):
        iv = iv_box((F(1, 2), F(1, 3)))
        assert iv.V == (1, F(5, 6), F(1, 6))

    def test_box_example(self):
        iv = iv_box((0.1, 0.2))
        assert iv.V == pytest.approx((1.0, 0.3, 0.02), abs=1e-15)
        assert iv.W == pytest.approx(1.32, abs=1e-15)

    def test_total_is_product(self):
        # W = prod (1 + s_i): exactly on Fraction sides, to 1e-12 on float
        # boxes up to 3,000 sides, whose small sides keep W in float range
        rng = random.Random(6)
        for _ in range(15):
            s = [rng.uniform(0.05, 3.0) for _ in range(rng.randint(1, 8))]
            iv = iv_box(s)
            assert float(iv.W) == pytest.approx(math.prod(1 + v for v in s), rel=1e-12)
            s = [F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(rng.randint(1, 12))]
            assert iv_box(s).W == math.prod(1 + v for v in s)
        for n in (300, 1000, 3000):
            s = [rng.uniform(1e-3, 0.2) for _ in range(n)]
            assert float(iv_box(s).W) == pytest.approx(math.prod(1 + v for v in s), rel=1e-12)

    def test_cube_powers(self):
        iv = iv_cube(2, 0.5)
        assert iv.V == (1.0, 1.0, 0.25)
        assert iv.W == 2.25

    def test_cube_exact(self):
        assert iv_cube(3, 1).V == (1, 3, 3, 1)

    def test_ball_volumes(self):
        assert ball_volume(0) == pytest.approx(1.0)
        assert ball_volume(1) == pytest.approx(2.0)
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3) == pytest.approx(4 * math.pi / 3)

    # float volumes beyond the float range are an input error naming the
    # dimension; the exact cube has no such limit
    @pytest.mark.parametrize("build, message", [
        (lambda: iv_cube(1100, 0.5), "cube in dimension 1100 "),
        (lambda: iv_cube(2000, 0.01), "cube in dimension 2000 "),
        (lambda: iv_ball(400), "dimension 400 "),
        (lambda: ball_volume(400), "dimension 400 "),
    ])
    def test_float_range_overflow_is_invalid(self, build, message):
        with pytest.raises(InvalidDistributionError, match=message):
            build()

    def test_exact_cube_beyond_float_range(self):
        assert iv_cube(1100, F(1, 2)).V[550] == F(math.comb(1100, 550), 2**550)

    def test_ball_sequences(self):
        assert iv_ball(1).V == pytest.approx((1.0, 2.0), rel=1e-12)
        assert iv_ball(2).V == pytest.approx((1.0, math.pi, math.pi), rel=1e-12)
        b3 = iv_ball(3)
        k1, k2, k3 = 2.0, math.pi, 4 * math.pi / 3
        assert b3.V == pytest.approx((1.0, 3 * k3 / k2, 3 * k3 / k1, k3), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidDistributionError):
            iv_box(())
        with pytest.raises(InvalidDistributionError):
            iv_box((0.5, -1.0))
        with pytest.raises(InvalidDistributionError):
            IVSequence(2, (2.0, 1.0, 1.0))  # V_0 must be 1


class TestInvariants:
    def test_boxes_are_order_n_ulc_exactly(self):
        rng = random.Random(14)
        for _ in range(20):
            s = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 7))]
            iv = iv_box(s)
            assert is_ulc(iv.V, iv.n).holds

    def test_v1_additivity_and_w_multiplicativity(self):
        rng = random.Random(15)
        for _ in range(10):
            s = [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 5))]
            t = [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 5))]
            a, b, ab = iv_box(s), iv_box(t), iv_box(s + t)
            assert float(ab.V[1]) == pytest.approx(float(a.V[1]) + float(b.V[1]), rel=1e-12)
            assert float(ab.W) == pytest.approx(float(a.W) * float(b.W), rel=1e-12)

    def test_dilation(self):
        s = (0.4, 0.9, 1.3)
        eps = 0.25
        base = iv_box(s)
        scaled = iv_box(tuple(eps * v for v in s))
        for j, v in enumerate(scaled.V):
            assert float(v) == pytest.approx(eps**j * float(base.V[j]), rel=1e-12)
        direct = base.scaled(eps)
        assert all(float(x) == pytest.approx(float(y), rel=1e-12) for x, y in zip(direct.V, scaled.V))


class TestZDist:
    def test_cube_is_binomial(self):
        assert z_dist(iv_cube(3, 1)).masses == family_binomial(3, F(1, 2)).masses

    def test_cube_parameter(self):
        z = z_dist(iv_cube(2, F(1, 2)))
        assert z.masses == family_binomial(2, F(1, 3)).masses

    def test_box_normalization(self):
        z = z_dist(iv_box((0.1, 0.2)))
        assert z.masses == pytest.approx((0.757576, 0.227273, 0.0151515), abs=1e-6)

    def test_zero_dimensional_body(self):
        z = z_dist(IVSequence(0, (1.0,)))
        assert z.mass(0) == 1.0


class TestPoissonBound:
    def test_box_example(self):
        rep = poisson_iv_bound(iv_box((0.1, 0.2)), 0)
        assert rep.details["lambda"] == pytest.approx(0.3, rel=1e-12)
        assert rep.details["V"] == pytest.approx((1.0, 0.3, 0.02), rel=1e-15) and rep.details["W"] == 1.32
        assert rep.bound_mu_side == pytest.approx(math.exp(0.3) / 1.32 - 1, rel=1e-12)
        assert rep.bound_mu_side == pytest.approx(0.02262, abs=1e-5)
        assert float(rep.oracle_tv.lo) == pytest.approx(0.02179, abs=1e-5)
        assert rep.dominated is True
        assert rep.anchor.ratio_matched and rep.anchor.ell == 0

    def test_single_factor_closed_form(self):
        s = 0.35
        rep = poisson_iv_bound(iv_box((s,)), 0)
        assert rep.bound_mu_side == pytest.approx(math.exp(s) / (1 + s) - 1, rel=1e-12)

    def test_float_cube_whose_side_powers_leave_the_normal_range(self):
        # s^j went subnormal before C(n, j) lifted it, and the rounded volumes
        # failed ultra log-concavity at 375: a false hypothesis_failed
        rep = poisson_iv_bound(iv_cube(724, 0.13912224296616743), 0)
        assert rep.hypothesis.holds and rep.status == "certified" and rep.dominated is True
        assert rep.bound_nu_side == pytest.approx(0.9984, abs=1e-4)

    def test_random_float_cubes_report_no_failed_hypothesis(self):
        # 5 of the 39 reports of this sweep failed their hypothesis
        rng, statuses = random.Random(11), []
        for _ in range(40):
            n, s = rng.randint(2, 400), math.exp(rng.uniform(-5, 2))
            m = rng.randint(0, min(5, n - 1))
            try:
                rep = poisson_iv_bound(iv_cube(n, s), m)
            except InvalidDistributionError:  # C(n, j) s^j past the float range
                continue
            statuses.append(rep.status)
            assert rep.status != "certified" or rep.dominated is True
        assert len(statuses) == 39 and "hypothesis_failed" not in statuses

    def test_small_cube_dominates(self):
        rep = poisson_iv_bound(iv_cube(5, 0.05), 0)
        assert rep.dominated is True

    def test_higher_anchor_includes_rate_power(self):
        iv = iv_cube(4, 0.8)
        m = 1
        lam = (m + 1) * float(iv.V[m + 1]) / float(iv.V[m])
        expect = math.factorial(m) * math.exp(lam) * float(iv.V[m]) / (lam**m * float(iv.W)) - 1
        rep = poisson_iv_bound(iv, m)
        assert rep.bound_mu_side == pytest.approx(min(expect, 1.0), rel=1e-12)
        assert rep.dominated is True

    def test_ball_reports_but_is_loose(self):
        rep = poisson_iv_bound(iv_ball(3), 0)
        assert rep.dominated is True  # clamped at 1, vacuous
        assert rep.bound_mu_side == 1.0

    def test_failed_ulc_certificate_is_a_report(self):
        # 1 * 1^2 < 2 * 1 * 1: not ULC of infinite order at 1
        rep = poisson_iv_bound(IVSequence(3, (1.0, 1.0, 1.0, 1.0)), 0)
        assert rep.hypothesis.holds is False and rep.hypothesis.first_violation == 1
        assert rep.details["lambda"] == 1.0 and rep.oracle_tv is not None

    def test_zero_volume_rejected(self):
        with pytest.raises(NotApplicableError):
            poisson_iv_bound(IVSequence(2, (1.0, 0.8, 0.0)), 1)

    @pytest.mark.parametrize("body, m", [(iv_ball(20), 19), (iv_box([0.001] * 8), 6)])
    def test_reference_covers_the_anchor(self, body, m):
        # a Poisson reference cut at its own tail budget had no mass at m and
        # m+1; the one built over the size law's window 0..n has
        rep = poisson_iv_bound(body, m)
        gamma = family_poisson(rep.details["lambda"], min_length=body.n + 1)
        assert gamma.mass(m) > 0 and gamma.mass(m + 1) > 0
        assert rep.anchor.ell == m
        assert rep.anchor.ratio_matched is True
        assert rep.anchor.ratio_gap <= 1e-15
        assert rep.dominated is True


class TestProductBounds:
    def test_box_scales(self):
        val = product_bounds([segment_factor(0.1), segment_factor(0.2)], "box").stated_bound
        assert val == pytest.approx(math.expm1(0.05), rel=1e-12)
        assert val >= poisson_iv_bound(iv_box((0.1, 0.2)), 0).bound_mu_side

    def test_single_factor_rare(self):
        box = iv_box((0.3, 0.4))
        val = product_bounds([ProductFactor(box, 1.0)], "rare").stated_bound
        assert val == pytest.approx(math.expm1(0.7**2), rel=1e-12)

    def test_scaled_unit_squares(self):
        sq = iv_box((1, 1))
        val = product_bounds([ProductFactor(sq, 0.1), ProductFactor(sq, 0.1)], "scaled").stated_bound
        assert val == pytest.approx(math.expm1(2 * 4 * 0.02), rel=1e-12)

    def test_report_has_no_oracle(self):
        rep = product_bounds([segment_factor(300.0)] * 3, "box")
        assert (rep.stated_bound, rep.simplified, rep.details) == (math.inf, 1.0, {"mode": "box"})
        assert rep.oracle_tv is None and rep.dominated is None and rep.status == "certified"

    def test_scaled_requires_unit_scales(self):
        sq = iv_box((1, 1))
        with pytest.raises(NotApplicableError):
            product_bounds([ProductFactor(sq, 1.5)], "scaled")

    def test_box_mode_requires_segments(self):
        with pytest.raises(NotApplicableError):
            product_bounds([ProductFactor(iv_box((1, 1)), 0.5)], "box")

    @pytest.mark.parametrize("mode, factor", [("rare", ProductFactor(iv_box((1,)), 30.0)),
                                              ("scaled", ProductFactor(iv_cube(3, 10), 1.0)),
                                              ("box", segment_factor(30.0))])
    def test_beyond_float_range_saturates(self, mode, factor):
        # each exponent is 900 or more, where expm1 raised OverflowError
        assert product_bounds([factor], mode).stated_bound == math.inf

    @pytest.mark.parametrize("mode", ["rare", "box"])
    @pytest.mark.parametrize("sides", [[1.2e154] * 2, [9e153] * 3])
    def test_sum_of_squares_beyond_float_range_saturates(self, mode, sides):
        # each V_1^2 is finite and their sum is not: box mode's own copy of the
        # formula, and rare mode at three factors, raised OverflowError in fsum
        assert product_bounds([segment_factor(s) for s in sides], mode).stated_bound == math.inf

    def test_chain_poisson_box_product(self):
        # anchored bound <= box product bound, both dominate the oracle
        rng = random.Random(19)
        for _ in range(10):
            s = [rng.uniform(0.02, 0.9) for _ in range(rng.randint(1, 6))]
            box = iv_box(s)
            rep = poisson_iv_bound(box, 0)
            prod = product_bounds([segment_factor(v) for v in s], "box").stated_bound
            assert rep.bound_mu_side <= prod + 1e-12
            tv = tv_distance(family_poisson(sum(s)), z_dist(box))
            assert prod >= float(tv.hi) - 1e-12
            assert rep.dominated is True
