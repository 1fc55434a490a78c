import math
import random
from fractions import Fraction as F

import pytest

from tvbounds import (
    InvalidDistributionError,
    MatroidAxiomError,
    NotApplicableError,
    family_binomial,
    is_ulc,
    tv_distance,
)
from tvbounds.matroids import (
    _MAX_PROFILE_GROUND,
    IndepProfile,
    PartitionMatroidSpec,
    SetSystem,
    enumerate_partition_profile,
    mason_check,
    matroid_binomial_bound,
    matroid_poisson_bound,
    nu_distribution,
    partition_half_bound,
    profile_from_set_system,
    profile_partition,
    profile_uniform,
)

P22 = PartitionMatroidSpec(((2, 1), (2, 1)))


class TestProfiles:
    def test_free_matroid(self):
        assert profile_uniform(4, 4).counts == (1, 4, 6, 4, 1)

    def test_rank_zero(self):
        assert profile_uniform(4, 0).counts == (1, 0, 0, 0, 0)

    def test_uniform_truncation(self):
        assert profile_uniform(5, 2).counts == (1, 5, 10, 0, 0, 0)

    def test_partition_pair_example(self):
        assert profile_partition(P22).counts == (1, 4, 4, 0, 0)

    def test_full_capacity_is_free(self):
        spec = PartitionMatroidSpec(((3, 3), (2, 2)))
        assert profile_partition(spec).counts == tuple(math.comb(5, k) for k in range(6))

    def test_single_category_is_uniform(self):
        assert profile_partition(PartitionMatroidSpec(((5, 2),))).counts == (1, 5, 10, 0, 0, 0)

    def test_ground_set_above_the_cap_is_refused_before_any_count(self):
        # a ground set of 1e9 elements would be padded to 1e9 counts; the
        # check comes before any list is built, so it takes no time
        for n in (_MAX_PROFILE_GROUND + 1, 10**9):
            with pytest.raises(InvalidDistributionError, match=f"ground set of {n} elements exceeds"):
                profile_uniform(n, 1)
            with pytest.raises(InvalidDistributionError, match=f"ground set of {n} elements exceeds"):
                PartitionMatroidSpec(((n - 1, 1), (1, 1)))
        assert PartitionMatroidSpec(((_MAX_PROFILE_GROUND - 1, 1), (1, 1))).n == _MAX_PROFILE_GROUND

    def test_profile_validation(self):
        with pytest.raises(InvalidDistributionError):
            IndepProfile(3, (1, 0, 3, 0))  # gap in the prefix
        with pytest.raises(InvalidDistributionError):
            IndepProfile(2, (2, 1, 0))  # I(0) != 1


class TestSetSystems:
    def test_power_set(self):
        sys_all = SetSystem(3, frozenset(range(8)))
        assert profile_from_set_system(sys_all).counts == (1, 3, 3, 1)

    def test_triangle_forests(self):
        forests = SetSystem(3, frozenset(range(8)) - {0b111})
        assert profile_from_set_system(forests).counts == (1, 3, 3, 0)

    def test_hereditary_violation_names_sets(self):
        with pytest.raises(MatroidAxiomError) as err:
            SetSystem(2, frozenset({0b00, 0b11}))
        assert "hereditary" in str(err.value)

    def test_exchange_violation_names_sets(self):
        # {1,2} and {3} downward closed, but {3} cannot be extended
        sets = frozenset({0b000, 0b001, 0b010, 0b011, 0b100})
        with pytest.raises(MatroidAxiomError) as err:
            profile_from_set_system(SetSystem(3, sets))
        assert "exchange" in str(err.value)

    def test_partition_agrees_with_set_system(self):
        rng = random.Random(8)
        for _ in range(10):
            n_left = rng.randint(2, 8)
            cats = []
            while n_left > 0:
                c = rng.randint(1, min(3, n_left))
                cats.append((c, rng.randint(1, c)))
                n_left -= c
            spec = PartitionMatroidSpec(tuple(cats))
            masks, base = [], 0
            cat_masks = []
            for c, _ in spec.categories:
                cat_masks.append((((1 << c) - 1) << base, base))
                base += c
            sets = frozenset(
                m for m in range(1 << spec.n)
                if all((m & cm).bit_count() <= d for (cm, _), (_, d) in zip(cat_masks, spec.categories))
            )
            assert profile_from_set_system(SetSystem(spec.n, sets)).counts == profile_partition(spec).counts


def _all_pairs_exchange(sys):
    """The exchange axiom checked between every pair of sizes, as
    ``profile_from_set_system`` once did: its profile counts, or the message
    of the first violation."""
    by_size = {}
    for s in sys.sets:
        by_size.setdefault(s.bit_count(), []).append(s)
    sizes = sorted(by_size)
    for small in sizes:
        for big in (b for b in sizes if b > small):
            for s in by_size[small]:
                for t in by_size[big]:
                    if not any((s | 1 << e) in sys.sets for e in range(sys.n) if (t & ~s) >> e & 1):
                        return (f"exchange violation: no element of {tuple(e for e in range(sys.n) if t >> e & 1)}"
                                f" extends {tuple(e for e in range(sys.n) if s >> e & 1)}")
    return tuple(sum(1 for s in sys.sets if s.bit_count() == k) for k in range(sys.n + 1))


def _random_family(rng):
    """A downward-closed family: the linearly independent subsets of 1-6
    random GF(2) vectors (a matroid), or the subsets of a few random
    generators on 3-7 elements (most often not one)."""
    if rng.random() < 0.5:
        n = rng.randint(1, 6)
        vecs = [rng.randrange(1 << rng.randint(1, 4)) for _ in range(n)]

        def independent(mask):
            basis = []
            for e in range(n):
                if mask >> e & 1:
                    v = vecs[e]
                    for b in basis:
                        v = min(v, v ^ b)
                    if not v:
                        return False
                    basis = sorted(basis + [v], reverse=True)  # distinct leading bits, highest first
            return True

        return SetSystem(n, (m for m in range(1 << n) if independent(m)))
    n = rng.randint(3, 7)
    gens = [rng.randrange(1 << n) for _ in range(rng.randint(2, 5))]
    return SetSystem(n, (m for m in range(1 << n) if any(m & g == m for g in gens)))


def test_adjacent_size_exchange_matches_all_pairs():
    rng = random.Random(20)
    outcomes = set()
    for _ in range(300):
        sys = _random_family(rng)
        expected = _all_pairs_exchange(sys)
        try:
            got = profile_from_set_system(sys).counts
        except MatroidAxiomError as e:
            got = str(e)
        assert got == expected
        outcomes.add(type(got))
    assert outcomes == {str, tuple}


class TestMason:
    def test_binomial_profile_equality(self):
        assert mason_check(profile_uniform(4, 4)).holds

    def test_partition_example(self):
        assert mason_check(IndepProfile(4, (1, 4, 4, 0, 0))).holds

    def test_constructed_violation(self):
        cert = mason_check(IndepProfile(4, (1, 2, 4, 0, 0)))
        assert not cert.holds and cert.first_violation == 1

    def test_randomized_partition_profiles(self):
        rng = random.Random(31)
        for _ in range(60):
            spec = _random_spec(rng, 10)
            assert mason_check(profile_partition(spec)).holds

    def test_mason_is_order_n_ulc(self):
        rng = random.Random(32)
        for _ in range(80):
            n = rng.randint(1, 10)
            for prof in (profile_partition(_random_spec(rng, 10)), profile_uniform(n, rng.randint(0, n))):
                assert mason_check(prof) == is_ulc(prof.counts, prof.n)

    def test_mason_matches_strong_inequality_on_prefix_counts(self):
        # arbitrary count vectors with prefix support, most of them no matroid's
        rng = random.Random(33)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            rank = rng.randint(0, n)
            c = [1] + [rng.randint(1, 60) for _ in range(rank)] + [0] * (n - rank)
            first = next((k for k in range(1, n)
                          if (k + 1) * (n - k + 1) * c[k - 1] * c[k + 1] > k * (n - k) * c[k] * c[k]), None)
            cert = mason_check(IndepProfile(n, tuple(c)))
            assert (cert.holds, cert.first_violation, cert.support_is_interval) == (first is None, first, True)
            verdicts.add(cert.holds)
        assert verdicts == {True, False}


def _partition_draw(n, seed=5):
    """Categories ``(c, d)`` on exactly ``n`` elements, blocks of 1-40, from ``random.Random(seed)``."""
    rng, cats = random.Random(seed), []
    while (left := n - sum(c for c, _ in cats)) > 0:
        c = rng.randint(1, min(40, left))
        cats.append((c, rng.randint(1, c)))
    return tuple(cats)


def _random_spec(rng, max_ground):
    cats = []
    left = rng.randint(2, max_ground)
    while left > 0:
        c = rng.randint(1, min(4, left))
        cats.append((c, rng.randint(0, c)))
        left -= c
    if all(d == 0 for _, d in cats):
        cats[0] = (cats[0][0], 1)
    return PartitionMatroidSpec(tuple(cats))


class TestNuDistribution:
    def test_excluding_empty_set(self):
        nu = nu_distribution(IndepProfile(4, (1, 4, 4, 0, 0)), include_zero=False)
        assert nu.masses == (F(0), F(1, 2), F(1, 2), F(0), F(0))

    def test_including_empty_set_binomial(self):
        nu = nu_distribution(IndepProfile(3, (1, 3, 3, 1)), include_zero=True)
        assert nu.masses == family_binomial(3, F(1, 2)).masses

    def test_rank_zero_error(self):
        with pytest.raises(InvalidDistributionError):
            nu_distribution(IndepProfile(2, (1, 0, 0)), include_zero=False)


class TestMatroidBinomialBound:
    def test_worked_example(self):
        rep = matroid_binomial_bound(IndepProfile(4, (1, 4, 4, 0, 0)), 1)
        assert rep.details["p"] == pytest.approx(0.4)
        assert rep.bound_mu_side == pytest.approx(193 / 432, abs=1e-12)
        assert rep.bound_nu_side == pytest.approx(193 / 625, abs=1e-12)
        assert float(rep.oracle_tv.lo) == pytest.approx(0.3088, abs=1e-12)
        assert rep.dominated is True
        assert rep.anchor.ratio_matched and rep.anchor.ell == 1

    def test_free_matroid_closed_form(self):
        n = 6
        rep = matroid_binomial_bound(profile_uniform(n, n), 1)
        assert rep.details["p"] == pytest.approx(0.5)
        total = 2**n - 1  # sizes >= 1
        expect = 1 / (total * math.comb(n, 1) * 0.5**n / math.comb(n, 1)) - 1
        assert rep.bound_mu_side == pytest.approx(2**n / total - 1, abs=1e-12)
        assert rep.bound_mu_side == pytest.approx(expect, abs=1e-12)

    def test_include_zero_free_matroid_is_exact(self):
        n = 5
        rep = matroid_binomial_bound(profile_uniform(n, n), 2, include_zero=True)
        assert rep.bound_mu_side == pytest.approx(0.0, abs=1e-12)
        assert float(rep.oracle_tv.hi) == pytest.approx(0.0, abs=1e-12)

    def test_ratio_identity_exact(self):
        # gamma[m+1]/gamma[m] = nu[m+1]/nu[m] in exact rationals
        prof = profile_partition(PartitionMatroidSpec(((3, 2), (4, 1))))
        for m in range(1, prof.rank):
            p = 1 / (1 + F(prof.n - m, m + 1) * F(prof.counts[m], prof.counts[m + 1]))
            gamma = family_binomial(prof.n, p)
            nu = nu_distribution(prof, False)
            assert gamma.mass(m + 1) * nu.mass(m) == nu.mass(m + 1) * gamma.mass(m)

    def test_degenerate_error(self):
        with pytest.raises(NotApplicableError):
            matroid_binomial_bound(profile_uniform(4, 2), 2)

    def test_partition_at_scale(self):
        # 500 elements in blocks of 1-40: the profile is its generating
        # function's coefficients, Mason's inequality holds exactly, and the
        # exact binomial report at m = 5 is certified and dominated
        spec = PartitionMatroidSpec(_partition_draw(500))
        prof = profile_partition(spec)
        assert spec.n == 500 and prof.rank >= 6
        for x in (1, 2, 3):
            want = math.prod(sum(math.comb(c, j) * x**j for j in range(d + 1)) for c, d in spec.categories)
            assert sum(count * x**k for k, count in enumerate(prof.counts)) == want
        assert mason_check(prof).holds
        rep = matroid_binomial_bound(prof, 5)
        assert rep.status == "certified" and rep.dominated is True


class TestMatroidPoissonBound:
    def test_worked_example(self):
        rep = matroid_poisson_bound(IndepProfile(4, (1, 4, 4, 0, 0)), 1)
        assert rep.details["lambda"] == pytest.approx(2.0)
        assert rep.bound_mu_side == pytest.approx(math.e**2 / 4 - 1, rel=1e-12)
        assert rep.dominated is True

    def test_m_zero_formula(self):
        prof = IndepProfile(4, (1, 4, 4, 0, 0))
        rep = matroid_poisson_bound(prof, 0)
        assert rep.details["lambda"] == pytest.approx(4.0)
        # the paper's corollary 0! e^4 I(0) / (4^0 (I(1) + I(2))) - 1, unclamped
        assert rep.stated_bound == pytest.approx(math.exp(4.0) * 1 / 8 - 1, rel=1e-12)
        # the anchor falls outside the support of the empty-set-excluding law
        assert rep.details["not_applicable"] == "anchor 0 needs positive target mass at 0 and 1"
        assert rep.anchor is None and rep.core_bounds() == [] and rep.dominated is None

    def test_degenerate_error(self):
        with pytest.raises(NotApplicableError):
            matroid_poisson_bound(profile_uniform(3, 1), 1)

    def test_randomized_dominance(self):
        rng = random.Random(77)
        for _ in range(30):
            prof = profile_partition(_random_spec(rng, 10))
            for m in range(1, prof.rank):
                for rep in (matroid_binomial_bound(prof, m), matroid_poisson_bound(prof, m)):
                    assert min(rep.core_bounds()) >= float(rep.oracle_tv.hi) - 1e-10


class TestHalfAndRareBounds:
    def test_free_is_zero(self):
        assert partition_half_bound(PartitionMatroidSpec(((4, 4), (2, 2)))) == 0

    def test_uniform_example(self):
        val = partition_half_bound(PartitionMatroidSpec(((6, 4),)))
        assert val == F(64, 57) - 1
        assert float(val) == pytest.approx(0.1228, abs=1e-4)

    def test_dominates_tv_against_binomial_half(self):
        spec = PartitionMatroidSpec(((6, 4),))
        prof = profile_partition(spec)
        nu = nu_distribution(prof, include_zero=True)
        rho = family_binomial(6, F(1, 2))
        assert partition_half_bound(spec) >= tv_distance(rho, nu).hi

    def test_capacity_precondition(self):
        with pytest.raises(NotApplicableError):
            partition_half_bound(P22)

    def test_rare_bound_dominates_half_bound(self):
        # the nearly-free uniform matroid's tail bound 2^{2-(1-eps) n}, whose
        # rank threshold k >= n - eps n / log2(n) + 1 holds at n, k, eps = 16, 15, 1/2
        n, k, eps = 16, 15, 0.5
        assert k >= n - eps * n / math.log2(n) + 1
        half = partition_half_bound(PartitionMatroidSpec(((n, k),)))
        assert 2.0 ** (2.0 - (1.0 - eps) * n) >= half


class TestEnumerationOracle:
    def test_pair_example(self):
        assert enumerate_partition_profile(P22).counts == (1, 4, 4, 0, 0)

    def test_randomized_cross_validation(self):
        rng = random.Random(55)
        for _ in range(25):
            spec = _random_spec(rng, 12)
            assert enumerate_partition_profile(spec).counts == profile_partition(spec).counts
