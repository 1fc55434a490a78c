import gc
import math
import random
import time
from fractions import Fraction as F

import pytest

from tvbounds import (
    HypothesisError,
    InvalidAnchorError,
    certify,
    family_binomial,
    family_geometric,
    family_poisson,
    find_ratio_anchor,
    make_dist,
    tv_bound_matched_anchor,
    tv_bounds_at_anchor,
    tv_distance,
)
from tvbounds.bounds import anchor_at, anchored_report
from tvbounds.verify import random_envelope_instance, run_dominance_sweep


PB = make_dist(0, [F(72, 100), F(26, 100), F(2, 100)])  # Bernoulli(0.1)+Bernoulli(0.2)
B_MATCH = family_binomial(2, F(13, 85))


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


class TestEnvelopeBounds:
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
        nu = family_poisson(0.9, 1e-12)
        mu = family_geometric(0.1, 1e-12, min_length=len(nu.masses))
        b_nu, b_mu = tv_bounds_at_anchor(mu, nu, 0)
        tv = tv_distance(mu, nu)
        assert b_nu == pytest.approx(1 - 0.1 * math.exp(0.9), abs=1e-12)
        assert b_nu >= tv.hi - 1e-12
        assert tv.lo == pytest.approx(0.666143, abs=1e-5)

    def test_hypothesis_failure_raises(self):
        bimodal = make_dist(0, [4, 1, 4])
        with pytest.raises(HypothesisError):
            tv_bounds_at_anchor(make_dist(0, [1, 1, 1]), bimodal, 0)

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


class TestAnchoredReport:
    def test_certify_is_anchored_report_at_the_chosen_anchor(self):
        rng = random.Random(11)
        for _ in range(20):
            mu, nu = random_envelope_instance(rng, 30)
            rep = certify(mu, nu)
            assert rep.to_json() == anchored_report(mu, nu, rep.anchor.ell, rep.hypothesis).to_json()

    def test_closed_forms_are_clamped_and_replace_the_envelope(self):
        rep = anchored_report(B_MATCH, PB, 0, certify(B_MATCH, PB).hypothesis, closed_forms=(F(-1, 5), 7))
        assert (rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (0.0, 1.0, None)
        assert rep.anchor.ratio_matched and rep.anchor.ratio_gap == 0.0
        assert rep.dominated is False

    def test_failed_hypothesis_without_closed_forms_has_no_bounds(self):
        rep = certify(B_MATCH, PB)
        failed = type(rep.hypothesis)(False, 1, True)
        rep = anchored_report(B_MATCH, PB, 0, failed, stated_bound=0.5)
        assert rep.core_bounds() == [] and rep.dominated is None
        assert rep.anchor is not None and rep.stated_bound == 0.5

    def test_zero_oracle_outside_target_support(self):
        point = make_dist(0, [F(1), F(0)])
        rep = anchored_report(point, point, 0, certify(B_MATCH, PB).hypothesis, details={"k": 1})
        assert (rep.bound_nu_side, rep.bound_mu_side, rep.simplified) == (0.0, 0.0, 0.0)
        assert rep.anchor is None and rep.dominated is True
        assert rep.details == {"k": 1, "anchor_outside_target_support": 0}


class TestCertify:
    def test_identical(self):
        d = family_binomial(3, 0.6)
        rep = certify(d, d)
        assert rep.dominated is True
        assert rep.bound_nu_side == rep.bound_mu_side == rep.simplified == 0.0

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


class TestDominanceSweep:
    def test_sweep_all_pass(self):
        t0 = time.perf_counter()
        report = run_dominance_sweep(200, seed=42)
        assert report.passes == report.instances == 200
        assert report.failures == ()
        assert report.worst_slack >= -1e-10
        assert time.perf_counter() - t0 < 10.0
