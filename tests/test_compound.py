import math
import random
from fractions import Fraction as F

import pytest

from tvbounds import (
    DiscreteDist,
    HypothesisError,
    InvalidDistributionError,
    NotApplicableError,
    convolve,
    family_geometric,
    family_poisson,
    is_log_concave,
    make_dist,
    point_mass,
    tv_distance,
)
from tvbounds.compound import (
    CompoundGeometricSpec,
    CompoundPoissonSpec,
    compound_geometric_pmf,
    compound_poisson_pmf,
    geometric_bound_compound_geometric,
    geometric_bound_compound_poisson,
    log_concave_criterion,
)


def compound_poisson_pmf_mixture(spec, tail_budget=1e-12):
    """Independent oracle for the recursion: truncate ``N`` and mix
    convolution powers of the severity."""
    lam, f = spec.lam, spec.severity
    weight = math.exp(-lam)
    cum_w = weight
    terms = [(weight, point_mass(0).to_float())]
    power = point_mass(0).to_float()
    n = 0
    while 1.0 - cum_w > tail_budget / 2 and n < 10_000:
        n += 1
        weight *= lam / n
        power = convolve(power, f)
        terms.append((weight, power))
        cum_w += weight
    length = max(len(d.masses) + d.offset for _, d in terms)
    out = [0.0] * length
    for w, d in terms:
        for i, m in enumerate(d.masses):
            out[d.offset + i] += w * m
    total = math.fsum(out)
    return DiscreteDist(0, tuple(out), max(1.0 - total, 0.0))


def random_log_concave_severity(rng, length):
    ratios = sorted((rng.uniform(0.1, 1.5) for _ in range(length - 1)), reverse=True)
    masses = [1.0]
    for r in ratios:
        masses.append(masses[-1] * r)
    return make_dist(0, masses)


class TestCompoundPoissonPMF:
    def test_degenerate_severity(self):
        spec = CompoundPoissonSpec(2.0, make_dist(0, (1.0,)))
        pmf = compound_poisson_pmf(spec)
        assert pmf.mass(0) == pytest.approx(1.0)

    def test_bernoulli_thinning_is_poisson(self):
        spec = CompoundPoissonSpec(3.0, make_dist(0, (0.7, 0.3)))
        pmf = compound_poisson_pmf(spec)
        target = family_poisson(0.9, min_length=len(pmf.masses))
        for k in range(len(pmf.masses)):
            assert pmf.mass(k) == pytest.approx(target.mass(k), abs=1e-12)

    def test_shifted_severity_scales_support(self):
        # severity concentrated at 2: mass only on even values, Poisson weights
        spec = CompoundPoissonSpec(1.0, make_dist(0, (0.0, 0.0, 1.0)))
        pmf = compound_poisson_pmf(spec)
        for k in range(10):
            expect = math.exp(-1) / math.factorial(k // 2) if k % 2 == 0 else 0.0
            assert pmf.mass(k) == pytest.approx(expect, abs=1e-12)

    def test_recursion_matches_mixture_oracle(self):
        rng = random.Random(23)
        for _ in range(12):
            sev = random_log_concave_severity(rng, rng.randint(1, 5))
            spec = CompoundPoissonSpec(rng.uniform(0.2, 4.0), sev)
            a = compound_poisson_pmf(spec)
            b = compound_poisson_pmf_mixture(spec)
            for k in range(max(len(a.masses), len(b.masses))):
                assert a.mass(k) == pytest.approx(b.mass(k), abs=1e-12)

    def test_rate_validation(self):
        with pytest.raises(InvalidDistributionError):
            CompoundPoissonSpec(0.0, make_dist(0, (1.0,)))


class TestLogConcaveCriterion:
    def test_bernoulli_severity_holds(self):
        assert log_concave_criterion(CompoundPoissonSpec(3.0, make_dist(0, (0.7, 0.3)))).holds

    def test_tie_within_cert_rel_tol_holds(self):
        # lam F_1^2 below 2 F_2 by 1e-13 relative holds; by 1e-11 it fails
        sev = make_dist(0, (0.2, 0.5, 0.3))
        lam = 2 * 0.3 / 0.5**2
        assert log_concave_criterion(CompoundPoissonSpec(lam * (1 - 1e-13), sev)).holds
        assert not log_concave_criterion(CompoundPoissonSpec(lam * (1 - 1e-11), sev)).holds

    @pytest.mark.parametrize("lam, severity", [
        (2.0, (F(1, 4), F(1, 2), F(1, 4))),  # cells 1, 1, 1
        (4.0, (F(0), F(1, 2), F(1, 2))),  # cells 1, 2, 4
    ], ids=["atom-at-0", "no-atom-at-0"])
    def test_exact_severity_at_equality_holds(self, lam, severity):
        # lam F_1^2 = 2 F_2 exactly: the aggregate's three-term inequality at 1 is a tie
        assert log_concave_criterion(CompoundPoissonSpec(lam, make_dist(0, severity))).holds

    def test_exact_severity_without_mass_at_1_fails(self):
        # F_1 = 0 < F_2: P[X=1] = 0 < P[X=2], a gap in the aggregate's support
        spec = CompoundPoissonSpec(3.0, make_dist(0, (F(0), F(0), F(1, 2), F(1, 2))))
        assert not log_concave_criterion(spec).holds
        assert not is_log_concave(compound_poisson_pmf(spec)).holds

    @pytest.mark.parametrize("severity", [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.5, 0.5), (F(0), F(0), F(0), F(1))],
                             ids=["atom-at-3", "mass-at-3-and-4", "exact-atom-at-3"])
    def test_no_mass_at_1_or_2_but_above_fails_at_1(self, severity):
        # F_1 = F_2 = 0 made the three cells over P[X=0] 1, 0, 0, which held,
        # while the aggregate has no mass at 1 and 2 but some above
        spec = CompoundPoissonSpec(0.5, make_dist(0, severity))
        cert = log_concave_criterion(spec)
        assert (cert.holds, cert.first_violation, cert.support_is_interval) == (False, 1, False)
        assert not is_log_concave(compound_poisson_pmf(spec)).holds

    def test_point_mass_at_0_holds(self):
        # F_1 = 0 and no mass above 1: the aggregate is the point mass at 0
        assert log_concave_criterion(CompoundPoissonSpec(0.5, make_dist(0, (1.0,)))).holds

    def test_severity_not_log_concave_is_distinct_failure(self):
        with pytest.raises(HypothesisError):
            log_concave_criterion(CompoundPoissonSpec(0.1, make_dist(0, (0.5, 0.2, 0.3))))

    def test_rate_threshold(self):
        # log-concave severity; aggregate log-concave iff lam F_1^2 >= 2 F_2
        sev = make_dist(0, (0.55, 0.3, 0.15))
        threshold = 2 * 0.15 / 0.3**2
        assert not log_concave_criterion(CompoundPoissonSpec(threshold * 0.9, sev)).holds
        assert log_concave_criterion(CompoundPoissonSpec(threshold * 1.1, sev)).holds

    def test_criterion_predicts_pmf_shape(self):
        sev = make_dist(0, (0.55, 0.3, 0.15))
        threshold = 2 * 0.15 / 0.3**2
        good = compound_poisson_pmf(CompoundPoissonSpec(threshold * 1.2, sev))
        assert is_log_concave(good).holds
        bad = compound_poisson_pmf(CompoundPoissonSpec(threshold * 0.3, sev))
        assert not is_log_concave(bad).holds

    def test_random_criterion_vs_pmf(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(40):
            sev = random_log_concave_severity(rng, rng.randint(2, 4))
            lam = rng.uniform(0.2, 6.0)
            spec = CompoundPoissonSpec(lam, sev)
            crit = log_concave_criterion(spec)
            lhs = lam * float(sev.mass(1)) ** 2
            rhs = 2 * float(sev.mass(2))
            if abs(lhs - rhs) < 1e-6:  # skip near-ties
                continue
            pmf_cert = is_log_concave(compound_poisson_pmf(spec))
            assert crit.holds == pmf_cert.holds
            checked += 1
        assert checked >= 20


class TestGeometricBoundCompoundPoisson:
    def test_thinning_example(self):
        spec = CompoundPoissonSpec(3.0, make_dist(0, (0.7, 0.3)))
        rep = geometric_bound_compound_poisson(spec)
        assert rep.details["theta"] == pytest.approx(0.1)
        assert rep.simplified == pytest.approx(1 - 0.1 * math.exp(0.9), abs=1e-12)
        assert rep.simplified == pytest.approx(0.754, abs=1e-3)
        assert rep.bound_mu_side == pytest.approx(min(math.exp(-0.9) / 0.1 - 1, 1.0), abs=1e-12)
        assert rep.stated_bound == pytest.approx(math.expm1(0.9), rel=1e-12)
        assert rep.details["stated_bound_clamped"] == 1.0
        assert rep.details["proof_form_bound"] == pytest.approx(math.exp(0.9) * 0.1 - 1, rel=1e-12)
        assert float(rep.oracle_tv.lo) == pytest.approx(0.666, abs=1e-3)
        assert rep.dominated is True

    def test_degenerate_limit(self):
        spec = CompoundPoissonSpec(1e-9, make_dist(0, (1.0,)))
        rep = geometric_bound_compound_poisson(spec)
        assert rep.simplified == pytest.approx(0.0, abs=1e-8)
        assert rep.dominated is True

    def test_light_severity(self):
        spec = CompoundPoissonSpec(1.0, make_dist(0, (0.9, 0.1)))
        rep = geometric_bound_compound_poisson(spec)
        assert rep.details["theta"] == pytest.approx(0.9)
        assert rep.dominated is True
        assert min(rep.core_bounds()) >= float(rep.oracle_tv.hi) - 1e-10

    def test_ratio_domain(self):
        with pytest.raises(NotApplicableError):
            geometric_bound_compound_poisson(CompoundPoissonSpec(4.0, make_dist(0, (0.7, 0.3))))

    def test_criterion_failure_raises(self):
        sev = make_dist(0, (0.55, 0.3, 0.15))
        with pytest.raises(HypothesisError):
            geometric_bound_compound_poisson(CompoundPoissonSpec(0.5, sev))


class TestCompoundGeometricPMF:
    def test_count_delta_one_is_the_summand(self):
        spec = CompoundGeometricSpec(make_dist(0, (0.0, 1.0)), 0.3)
        pmf = compound_geometric_pmf(spec)
        for k in range(len(pmf.masses)):
            assert pmf.mass(k) == pytest.approx(0.7 * 0.3**k, abs=1e-13)

    def test_count_delta_zero(self):
        spec = CompoundGeometricSpec(make_dist(0, (1.0,)), 0.3)
        assert compound_geometric_pmf(spec).mass(0) == pytest.approx(1.0)

    def test_two_point_mixture_atoms(self):
        spec = CompoundGeometricSpec(make_dist(0, (0.2, 0.8)), 0.3)
        pmf = compound_geometric_pmf(spec)
        assert pmf.mass(0) == pytest.approx(0.76, abs=1e-13)
        assert pmf.mass(1) == pytest.approx(0.168, abs=1e-13)

    def test_matches_negative_binomial_oracle(self):
        # independent route: k-fold geometric convolutions in closed form.  The
        # last count law, uniform on 1..10 at p = 0.5, misses the tail budget
        # with the first summand budget and is rebuilt with a tighter one
        rng = random.Random(41)
        cases = []
        for _ in range(8):
            p = rng.uniform(0.1, 0.7)
            cases.append((make_dist(0, [rng.random() for _ in range(rng.randint(2, 5))]), p))
        cases.append((make_dist(0, [0.0] + [1.0] * 10), 0.5))
        for count, p in cases:
            pmf = compound_geometric_pmf(CompoundGeometricSpec(count, p))
            kmax = count.support_max
            for j in range(min(len(pmf.masses), 25)):
                expect = float(count.mass(0)) * (j == 0)
                for k in range(1, kmax + 1):
                    expect += float(count.mass(k)) * math.comb(k + j - 1, j) * (1 - p) ** k * p**j
                assert pmf.mass(j) == pytest.approx(expect, abs=1e-12)
            # the closed atom identities P[X=0] = sum F_k (1-p)^k and P[X=1] = sum k F_k p (1-p)^k
            f = [float(count.mass(k)) for k in range(kmax + 1)]
            assert pmf.mass(0) == pytest.approx(math.fsum(fk * (1 - p) ** k for k, fk in enumerate(f)), abs=1e-12)
            assert pmf.mass(1) == pytest.approx(math.fsum(k * fk * p * (1 - p) ** k for k, fk in enumerate(f)),
                                                abs=1e-12)


class TestGeometricBoundCompoundGeometric:
    def test_count_delta_one_all_zero(self):
        rep = geometric_bound_compound_geometric(CompoundGeometricSpec(make_dist(0, (0.0, 1.0)), 0.3))
        assert rep.simplified == pytest.approx(0.0, abs=1e-12)
        assert rep.stated_bound == pytest.approx(0.0, abs=1e-12)
        assert rep.dominated is True

    def test_two_point_mixture_report(self):
        rep = geometric_bound_compound_geometric(CompoundGeometricSpec(make_dist(0, (0.2, 0.8)), 0.3))
        assert rep.details["rho"] == pytest.approx(0.168 / 0.76, rel=1e-12)
        expect_stated = (1 / 0.8) * (1 + 0.2 / (0.3 * 0.7)) ** 2 - 1
        assert rep.stated_bound == pytest.approx(expect_stated, rel=1e-12)
        assert rep.details["stated_bound_clamped"] == 1.0
        # the aggregate law is not log-concave here (the count has a large
        # atom at zero), so no envelope bound is certified
        assert not rep.hypothesis.holds
        assert rep.bound_nu_side is None
        assert rep.details["matched_atom_bound_raw"] < 0
        assert rep.stated_bound >= float(rep.oracle_tv.hi)

    def test_zero_free_count_certifies(self):
        rep = geometric_bound_compound_geometric(CompoundGeometricSpec(make_dist(0, (0.0, 0.5, 0.5)), 0.3))
        assert rep.hypothesis.holds
        assert rep.anchor.ratio_matched
        assert rep.dominated is True
        assert min(rep.core_bounds()) >= float(rep.oracle_tv.hi) - 1e-10

    def test_f1_limit_closed_form(self):
        # as F_1 -> 1 the closed form collapses to 0
        for f1 in (0.9, 0.99, 0.999):
            rep = geometric_bound_compound_geometric(
                CompoundGeometricSpec(make_dist(0, (0.0, f1, 1 - f1)), 0.4)
            )
            expect = (1 / f1) * (1 + (1 - f1) / (0.4 * 0.6)) ** 2 - 1
            assert rep.stated_bound == pytest.approx(expect, rel=1e-12)
        assert rep.stated_bound < 0.02

    def test_count_not_log_concave_rejected(self):
        with pytest.raises(HypothesisError):
            geometric_bound_compound_geometric(
                CompoundGeometricSpec(make_dist(0, (0.5, 0.1, 0.4)), 0.3)
            )

    def test_f1_zero_rejected(self):
        with pytest.raises(NotApplicableError):
            geometric_bound_compound_geometric(
                CompoundGeometricSpec(make_dist(0, (0.5, 0.0, 0.5)), 0.3)
            )

    @pytest.mark.parametrize("masses", [(1.0,), (0.0, 0.0, 1.0), (0.0, 0.0, 0.5, 0.5)])
    def test_f1_zero_log_concave_count_rejected(self, masses):
        count = make_dist(0, masses)
        assert is_log_concave(count).holds
        with pytest.raises(NotApplicableError, match="F_1 > 0"):
            geometric_bound_compound_geometric(CompoundGeometricSpec(count, 0.3))


@pytest.mark.parametrize("report, pmf, spec, own", [
    (geometric_bound_compound_poisson, compound_poisson_pmf, CompoundPoissonSpec(3.0, make_dist(0, (0.7, 0.3))),
     {"theta", "proof_form_bound"}),
    (geometric_bound_compound_geometric, compound_geometric_pmf,
     CompoundGeometricSpec(make_dist(0, (0.0, 0.5, 0.5)), 0.3), {"rho"}),
    (geometric_bound_compound_geometric, compound_geometric_pmf,
     CompoundGeometricSpec(make_dist(0, (0.2, 0.8)), 0.3), {"rho", "not_applicable"}),
], ids=["poisson", "geometric", "geometric-not-applicable"])
def test_both_compound_reports_carry_the_matched_report_keys(report, pmf, spec, own):
    # both compare the aggregate with the geometric target of mass ratio rho,
    # whose atom at 0 is 1 - rho, and carry their closed form clamped beside
    # their own keys
    rep = report(spec)
    assert set(rep.details) == own | {"stated_bound_clamped", "matched_atom_bound_raw"}
    assert rep.details["stated_bound_clamped"] == min(max(rep.stated_bound, 0.0), 1.0)
    n0, m0 = float(pmf(spec).mass(0)), rep.details["theta"] if "theta" in own else 1.0 - rep.details["rho"]
    assert rep.details["matched_atom_bound_raw"] == min(n0 / m0 - 1.0, 1.0 - m0 / n0)


class TestParameterValidation:
    def test_summand_parameter_domain(self):
        with pytest.raises(InvalidDistributionError):
            CompoundGeometricSpec(make_dist(0, (1.0,)), 0.0)
        with pytest.raises(InvalidDistributionError):
            CompoundGeometricSpec(make_dist(0, (1.0,)), 1.0)

    def test_severity_offset(self):
        with pytest.raises(InvalidDistributionError):
            CompoundPoissonSpec(1.0, make_dist(1, (1.0,)))
