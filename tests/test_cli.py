import argparse
import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds.cli import SUITE_NAMES, _finite, _run_expapprox, emit, main, run
from tvbounds.errors import InvalidDistributionError


def _compound_geometric(count_masses):
    return run(["compound", "geometric", "--count-masses", count_masses, "--p", "0.3"])


class TestCompoundGeometricRejections:
    def test_f1_zero_reports_domain_reason(self):
        # (0.5, 0, 0.5) is also not log-concave; the zero F_1 is named first
        code, text = _compound_geometric("0.5,0,0.5")
        assert code == 2
        payload = json.loads(text)
        assert payload["kind"] == "not_applicable"
        assert payload["reason"] == "closed-form bound needs F_1 > 0"

    def test_not_log_concave_reports_certificate(self):
        code, text = _compound_geometric("0.5,0.1,0.4")
        assert code == 2
        payload = json.loads(text)
        assert payload["kind"] == "not_applicable"
        assert payload["reason"] == "count distribution is not log-concave"
        cert = payload["details"]["certificate"]
        assert cert["holds"] is False
        assert cert["first_violation"] == 1


def _uniform_draws(n):
    rng = random.Random(2210)
    return ",".join(f"{rng.uniform(0, 0.5):.6f}" for _ in range(n))


class TestBernoulliSumGolden:
    # digests of the stdout printed when the pmf was a fold of n-1 convolutions,
    # less the "tv" member that duplicated "oracle_tv"; the direct recursion
    # must reproduce it byte for byte.  pb-binomial was re-pinned when the
    # float binomial reference came to be built by its mass ratio: only
    # anchor.ratio_gap moved, from 1.76e-13 to 1.4e-15; and again when its p
    # came to be lambda_n / (n + lambda_n), with lambda_n = sum p_i/alpha_i
    # summed directly: only anchor.ratio_gap moved, from 1.42e-15 to 1.22e-15.
    # pb-poisson was re-pinned when the oracle interval came to take the
    # reference's deficit off its floor, not onto its top: oracle_tv moved from
    # [4.665595219194e-01, 4.665595219200e-01] to [4.665595219188e-01, 4.665595219194e-01].
    # Both were re-pinned when the CLI came to render the sums module's
    # reports: keys moved and no number changed ("status" is new, "bound" is
    # "stated_bound", and "bound_secondary", "target_p", "rate" as "lambda"
    # and "p" are in "details").  pb-binomial was re-pinned when the float pmf
    # came to apply its summands in increasing order of p * q: only
    # anchor.ratio_gap moved, from 1.22e-15 to 4.1e-16
    @pytest.mark.parametrize("subcommand, n, size, digest", [
        ("pb-binomial", 300, 6182, "820538ec2f31ba6c0c9b4c3514de3da6cf553413760d5c51409beafe39545425"),
        ("pb-poisson", 20, 822, "6fb7e072b47ed06c4d1c6399b9b9b6a381cd551356b04c2485a41e159e611e2c"),
    ], ids=["pb-binomial-300", "pb-poisson-20"])
    def test_stdout_unchanged(self, subcommand, n, size, digest):
        code, text = run([subcommand, "--p", _uniform_draws(n)])
        assert code == 0
        assert len(text.encode()) == size
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("subcommand", ["pb-binomial", "pb-poisson"])
def test_all_zero_probabilities_certify_bound_zero(subcommand):
    # sum and reference are the same atom at 0; as sum-geometric --p 0,0
    code, text = run([subcommand, "--p", "0,0"])
    assert code == 0
    report = json.loads(text)
    assert report["bound_nu_side"] == report["bound_mu_side"] == 0.0
    assert report["details"]["anchor_outside_target_support"] == 0
    assert report["status"] == "certified" and "not_applicable" not in report["details"]
    assert report["dominated"] is True


def test_tolerance_option_removed():
    code, _ = run(["pb-poisson", "--p", "0.1", "--tolerance", "1e-9"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--tail-budget", "1e-9", "pb-poisson", "--p", "0.1"],
    ["pb-poisson", "--p", "0.1", "--tail-budget", "1e-9"],
], ids=["before-subcommand", "after-subcommand"])
def test_tail_budget_option_removed(argv):
    # references are truncated at distributions.DEFAULT_TAIL_BUDGET only
    code, _ = run(argv)
    assert code == 1


def test_ball_reference_covers_the_anchor():
    # the Poisson reference covers the size law's window 0..20, so it has mass
    # at the anchor's cells 19 and 20, where a reference cut at its own tail
    # budget had none and the gap read "inf"
    code, text = run(["iv", "--ball", "20", "--m", "19"])
    assert code == 0
    report = json.loads(text)
    assert report["anchor"]["ratio_matched"] is True
    assert report["anchor"]["ratio_gap"] <= 1e-15
    assert report["dominated"] is True


@pytest.mark.parametrize("argv, not_applicable", [
    (["matroid", "--uniform", "1000,900", "--m", "50"], "absolute continuity violated"),
    (["pb-poisson", "--p", ",".join(["0.45"] * 990)], None),
], ids=["matroid-rate-950", "pb-poisson-rate-810"])
def test_poisson_rate_past_700_gives_a_report(argv, not_applicable):
    # the Poisson reference is built from its mode, so e^-lam underflowing
    # (and the rate cap at 700 that guarded it) no longer turns these away.
    # At rate 950 its cells below about 300 are 0.0, where the size law has
    # mass: the Mason certificate holds and the Poisson report is not
    # applicable, and the matroid command exits 0 on its binomial report
    code, text = run(argv)
    assert code == 0
    report = json.loads(text)
    poisson = report.get("poisson", report)
    assert poisson["hypothesis"]["holds"] is True
    assert poisson["details"].get("not_applicable") == not_applicable
    assert poisson["status"] == ("not_applicable" if not_applicable else "certified")
    assert report.get("binomial", report)["status"] == "certified"
    assert poisson["dominated"] is (None if not_applicable else True)


def test_exact_anchor_below_the_float_range_reports_gap_0():
    # the binomial reference's cross products at 1100 are below the float
    # range once divided by their denominator: the gap read "inf" while
    # ratio_matched was true, and the Poisson oracle's top read 1.000000000001
    code, text = run(["matroid", "--uniform", "1200,1150", "--m", "1100"])
    assert code == 0
    report = json.loads(text)
    assert report["binomial"]["anchor"] == {"ell": 1100, "ratio_gap": 0.0, "ratio_matched": True}
    assert report["poisson"]["oracle_tv"] == [1.0, 1.0]


def test_iv_failing_its_float_ulc_certificate_reports_the_failed_hypothesis():
    # every convex body is ULC of infinite order; the float volumes of this
    # ball failed the certificate at 284, where V_283 V_285 = 1.4e-323 was
    # rounded before it was multiplied by 285.  Formed on frexp mantissas, the
    # certificate holds and the report is certified and dominated, exit 0
    code, text = run(["iv", "--ball", "300", "--m", "2"])
    assert code == 0
    report = json.loads(text)
    assert report["hypothesis"] == {"holds": True, "first_violation": None, "support_is_interval": True}
    assert report["kind"] == "iv" and report["status"] == "certified"
    assert report["dominated"] is True
    assert report["bound_nu_side"] >= report["oracle_tv"][1]


def test_iv_float_cube_whose_side_powers_leave_the_normal_range_is_certified():
    # s^j went subnormal before the binomial coefficient lifted it, and the
    # rounded volumes failed their certificate: exit 2, hypothesis_failed
    code, text = run(["iv", "--cube", "724,0.13912224296616743", "--m", "0"])
    assert code == 0
    report = json.loads(text)
    assert report["status"] == "certified" and report["dominated"] is True


def test_matroid_exits_2_when_neither_report_is_certified():
    # at m = 0 without the empty set the size law has no mass at 0, so both
    # reports are not applicable: the binomial one held with no bound and
    # exited 0.  One certified report is enough for exit 0
    code, text = run(["matroid", "--uniform", "6,3", "--m", "0"])
    assert code == 2
    report = json.loads(text)
    for kind in ("binomial", "poisson"):
        assert report[kind]["details"]["not_applicable"] == "anchor 0 needs positive target mass at 0 and 1"
        assert report[kind]["hypothesis"]["holds"] is True and report[kind]["status"] == "not_applicable"
    assert run(["matroid", "--uniform", "6,3", "--m", "0", "--include-zero"])[0] == 0


def test_iv_box_whose_poisson_atom_is_subnormal_is_not_applicable():
    # e^-715 is subnormal, too few digits for the envelope's slope: the report
    # gave the vacuous bound 1.0 from the closed forms, and now none
    code, text = run(["iv", "--box", "715", "--m", "0"])
    assert code == 2
    report = json.loads(text)
    assert report["details"]["not_applicable"] == "anchor 0 has subnormal float cells"
    assert report["bound_nu_side"] is None and report["bound_mu_side"] is None


def test_iv_box_whose_size_mass_underflows_gives_a_report():
    # V_79 > 0, but V_79 / W underflows to 0.0 in the size law, which the
    # nu-side closed form divides by; the Poisson reference, at rate 1.1e-5,
    # is 0.0 on cells where the size law has mass, so the report is not applicable
    code, text = run(["iv", "--box", ",".join(["1000"] * 10 + ["1e-5"] * 70), "--m", "79"])
    assert code == 2
    report = json.loads(text)
    assert report["details"]["not_applicable"] == "absolute continuity violated"
    assert report["hypothesis"]["holds"] is True and report["anchor"] is None
    assert report["bound_nu_side"] is None and report["bound_mu_side"] is None and report["dominated"] is None


@pytest.mark.parametrize("body, message", [
    (["--cube", "1100,0.5"], "intrinsic volumes of the cube in dimension 1100 leave the float range"),
    (["--cube", "2000,0.01"], "intrinsic volumes of the cube in dimension 2000 leave the float range"),
    (["--ball", "400"], "unit-ball volume in dimension 400 leaves the float range"),
    # the sides' elementary symmetric functions overflow to inf: normalized, they would give nan
    (["--box", ",".join(repr(0.01 * ((37 * i) % 600 + 1)) for i in range(600))],
     "intrinsic volumes of the box with 600 sides leave the float range"),
    (["--box", "1.3e154,1.3e154,1"], "intrinsic volumes of the box with 3 sides leave the float range"),
])
def test_iv_beyond_float_range_is_an_input_error(body, message):
    assert run(["iv", *body, "--m", "1"]) == (1, f"error: {message}")


@pytest.mark.parametrize("argv", [
    ["iv", "--cube", "5"], ["iv", "--cube", "5,0.5,3"], ["iv", "--box", ""], ["iv", "--product", ""],
    ["sum-geometric", "--p", ""], ["matroid", "--uniform", ""], ["matroid", "--partition", ""],
    ["compound", "geometric", "--count", "", "--p", "0.2"],
])
def test_malformed_or_empty_input_is_an_input_error(argv):
    # an empty value is the option given, not the next one in its group
    code, text = run(argv)
    assert code == 1 and text.startswith("error: ")


_PRODUCT_FACTOR = '{"cube": [2, 0.1], "scale": 0.5}'


@pytest.mark.parametrize("argv, content", [
    (["sum-geometric", "--pmfs"], '{"a": 1}'),
    (["sum-geometric", "--pmfs"], '[{"offset": 0}]'),
    (["sum-geometric", "--pmfs"], '5'),
    (["sum-geometric", "--pmfs"], '[{"offset": null, "masses": [1]}]'),
    (["sum-geometric", "--pmfs"], '[{"offset": 0, "masses": "ab"}]'),
    (["sum-geometric", "--pmfs"], '[{"offset": 0, "masses": [0.5, [0.5]]}]'),
    (["sum-geometric", "--pmfs"], '[{"offset": 0, "masses": [NaN, 1]}]'),
    (["sum-geometric", "--pmfs"], '[{"offset": 0, "masses": [1e400, 1]}]'),
    pytest.param(["sum-geometric", "--pmfs"], '[{"offset": 0, "masses": [1' + '0' * 400 + ', 1]}]',
                 id="pmfs-integer-beyond-float-range"),
    (["matroid", "--sets"], '[["a"]]'),
    (["matroid", "--sets"], '{"a": 1}'),
    (["matroid", "--sets"], '[[0], 1]'),
    (["matroid", "--sets"], '[[], [100000000000]]'),
    (["matroid", "--sets"], '[[], [-1]]'),
    (["matroid", "--sets"], '[[], [20]]'),
    (["iv", "--product"], '{"mode": "rare"}'),
    (["iv", "--product"], '{"factors": [' + _PRODUCT_FACTOR + ']}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [3]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": {"a": 1}}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"box": 3}]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"cube": 5}]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"ball": [3]}]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"box": ["a"]}]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"ball": 2, "scale": null}]}'),
    (["iv", "--product"], '{"mode": "rare", "factors": [{"segment": "a"}]}'),
    (["compound", "geometric", "--p", "0.2", "--count"], '{"masses": [0.5, 0.5]}'),
    (["compound", "geometric", "--p", "0.2", "--count"], '[0.5, 0.5]'),
    (["compound", "geometric", "--p", "0.2", "--count"], '{"offset": 0, "masses": [0.5, 0.5], "tail_deficit": "0"}'),
])
def test_input_file_of_the_wrong_shape_is_an_input_error(tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code, text = run([*argv, str(path)])
    assert code == 1 and text.startswith("error: "), text


def _iv_product(tmp_path, *factors):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"mode": "rare", "factors": list(factors)}))
    return run(["iv", "--product", str(path)])


@pytest.mark.parametrize("scaled, plain", [
    ({"scale": 30, "segment": 1}, {"segment": 30}),
    ({"scale": 0.5, "segment": 2}, {"segment": 1}),
])
def test_scaled_segment_has_length_scale_times_segment(tmp_path, scaled, plain):
    assert _iv_product(tmp_path, scaled) == _iv_product(tmp_path, plain)
    assert _iv_product(tmp_path, scaled) != _iv_product(tmp_path, {"segment": scaled["segment"]})


@pytest.mark.parametrize("factor", [{"box": [1, 2], "segment": 1}, {"ball": 2, "cube": [2, 0.5]}, {"scale": 2}])
def test_factor_names_exactly_one_body(tmp_path, factor):
    assert _iv_product(tmp_path, factor) == (1, "error: a factor names exactly one of box/cube/ball/segment")


@pytest.mark.parametrize("factor", [{"scale": 1e300, "ball": 3}, {"scale": 1e200, "segment": 1e200}])
def test_product_bound_beyond_float_range_saturates(tmp_path, factor):
    code, text = _iv_product(tmp_path, factor)
    assert code == 0 and json.loads(text)["stated_bound"] == "inf"


def test_box_product_beyond_float_range_saturates(tmp_path):
    # e^270000 - 1 is inf, clamped to 1; no law of rate 900 is built for it
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"mode": "box", "factors": [{"segment": 300}] * 3}))
    code, text = run(["iv", "--product", str(path)])
    assert code == 0
    out = json.loads(text)
    assert out["stated_bound"] == "inf" and out["simplified"] == 1.0


@pytest.mark.parametrize("p, message", [
    ("1.5", "p_0 = 1.5 must lie in [0, 1]"),
    ("-0.2", "p_0 = -0.2 must lie in [0, 1]"),
    ("0.3,1.5", "p_1 = 1.5 must lie in [0, 1]"),
])
def test_sum_geometric_probability_outside_unit_interval_is_an_input_error(p, message):
    assert run(["sum-geometric", "--p", p]) == (1, f"error: {message}")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the summand's float log-concavity certificate holds where "
                   "exact arithmetic on its stored cells fails at 2, and its bound falls below the oracle")
def test_sum_geometric_on_subnormal_cells_is_not_certified_undominated(tmp_path):
    path = tmp_path / "pmfs.json"
    path.write_text(json.dumps([{"offset": 0, "tail_deficit": 0,
                                 "masses": [0.6878731905475319, 1e-160, 5e-324, 5e-324, 0.31212680945246807]}]))
    code, text = run(["sum-geometric", "--pmfs", str(path)])
    report = json.loads(text)
    # today: certified, exit 0, a bound of 0.1416 against an oracle TV of 0.4306;
    # a failed summand certificate gives a not_applicable result with no status
    assert report.get("status") != "certified" or report["dominated"] is True


def test_sum_geometric_probability_one_has_zero_mass_at_0():
    code, text = run(["sum-geometric", "--p", "1.0"])
    assert code == 2 and json.loads(text)["reason"] == "summand 0 has zero mass at 0"


@pytest.mark.parametrize("argv", [
    ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "nan"],
    ["compound", "poisson", "--lambda", "inf", "--severity", "0.5,0.5"],
    ["compound", "geometric", "--count-masses", "0.2,0.8", "--p", "-inf"],
    ["gamma", "--a", "inf,1", "--b", "2,1"],
    ["gamma", "--a", "3,inf", "--b", "2,1"],
    ["iv", "--box", "inf"],
    ["pb-binomial", "--p", "0.1,nan"],
])
def test_non_finite_number_is_rejected_by_the_parser(argv):
    assert run(argv) == (1, "")


@pytest.mark.parametrize("side", ["inf", "nan"])
def test_non_finite_cube_side_is_an_input_error(side):
    assert run(["iv", "--cube", f"5,{side}"]) == (1, f"error: '{side}' is not a finite number")


@pytest.mark.parametrize("density", ["builtin:gamma:inf,1", "builtin:gamma:2,nan", "builtin:exp:inf"])
def test_non_finite_builtin_density_parameter_is_an_input_error(density):
    assert run(["expapprox", "--density", density]) == (1, "error: shape and rate must be positive and finite")


@pytest.mark.parametrize("n", ["-3", "0"])
def test_verify_needs_at_least_one_instance(n):
    assert run(["verify", "--n", n]) == (1, "error: --n must be at least 1")


def test_gamma_anchor_where_both_densities_underflow():
    # the anchor z = 2021.7 lies where both densities are below the float range
    code, text = run(["gamma", "--a", "0.31051296720749755,4.142806729658619",
                      "--b", "6.815607804413838,4.146024315181316", "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["dominated"] is True
    assert float(report["details"]["z"]) == pytest.approx(2021.7317585868677)


def test_gamma_at_shape_1e7():
    # the log-densities at the anchor sum terms near 3e8
    code, text = run(["gamma", "--a", "1e7,1e7", "--b", "2e7,2.00001e7", "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["dominated"] is True


def test_gamma_near_identical_laws_at_shape_1e9():
    # log R = 1.5000000040e-9 at 50 digits; summing the closed form's terms
    # near 2e10 gave -3.8e-6, and the density ratio "below 1" exited 2.  The
    # oracle's log-density gap summed the same terms, found no crossing and
    # read the TV as [0, 1e-10]; at 50 digits the crossings are
    # 0.999968377556689 and 1.00003162310998 and the TV is 7.26e-10
    code, text = run(["gamma", "--a", "1000000003,1000000001", "--b", "1000000000,999999998"])
    assert code == 0
    report = json.loads(text)
    assert report["dominated"] is True
    assert report["simplified"] == pytest.approx(1.5000000029e-9, rel=1e-6)
    assert len(report["details"]["crossings"]) == 2
    for x, want in zip(report["details"]["crossings"], (0.999968377556689, 1.00003162310998)):
        assert abs(x - want) <= 1e-8
    assert report["oracle_tv"][0] <= 7.26e-10 <= report["oracle_tv"][1]


@pytest.mark.parametrize("a, b", [("2,1", "1,1e-310"), ("1,1e-310", "2,1")])
def test_gamma_density_ratio_beyond_float_range(a, b):
    # log R at the anchor is finite, R itself overflows: the bound saturates at 1
    code, text = run(["gamma", "--a", a, "--b", b, "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["bound_nu_side"] == report["bound_mu_side"] == report["simplified"] == 1.0
    assert report["details"]["density_ratio"] == "inf"
    # the oracle's upper end is capped at 1, which no TV exceeds
    assert report["oracle_tv"] == [0.9999999999, 1.0]
    assert report["dominated"] is True


@pytest.mark.parametrize("a, b", [("1e45,1e-300", "2e45,2e-300"), ("1e-300,1e300", "2e-300,2e300")],
                         ids=["z-overflows", "z-underflows"])
def test_gamma_anchor_outside_float_range_is_not_applicable(a, b):
    # z = dk/dl is 1e345 (inf) or 1e-600 (0.0): the first used to exit 0
    # with "nan" bounds, the second to exit 1 with "math domain error"
    code, text = run(["gamma", "--a", a, "--b", b])
    assert code == 2 and '"nan"' not in text
    assert "z = dk/dl" in json.loads(text)["reason"]


def _status(report) -> str:
    """The status that a report's hypothesis and ``details`` imply."""
    if not report["hypothesis"]["holds"]:
        return "hypothesis_failed"
    return "not_applicable" if report["details"].get("not_applicable") else "certified"


def _assert_valid_outcome(argv):
    """Exit 0 or 2 with canonical JSON holding no NaN, or exit 1 with an input
    error.  Every report in the output (the top level, ``binomial`` and
    ``poisson``) has the status its hypothesis and details imply, and a
    certified one has a bound; the output exits 2 when it holds reports and
    none of them is certified, and on exit 0 no report with an oracle is
    undominated."""
    code, text = run(argv)
    if code == 1:
        assert text.startswith("error:"), (argv, text)
        return
    assert code in (0, 2) and '"nan"' not in text, (argv, code, text)
    out = json.loads(text)
    reports = [r for r in (out, out.get("binomial"), out.get("poisson")) if r is not None and "status" in r]
    assert all(r["status"] == _status(r) for r in reports), (argv, text)
    certified = [r for r in reports if r["status"] == "certified"]
    assert all(any(r[k] is not None for k in ("bound_nu_side", "bound_mu_side", "simplified"))
               for r in certified), (argv, text)
    assert not reports or (code == 2) == (not certified), (argv, code, text)
    assert code == 2 or all(r.get("oracle_tv") is None or r["dominated"] is not False for r in reports), (argv, text)
    return out


# valid inputs that raised, ran without end or reported NaN or an undominated
# bound, found by a fuzz over the ranges of the property test below
@pytest.mark.parametrize("argv", [
    # the continued fraction divided by x + 1 - a == 0 (ZeroDivisionError)
    ["gamma", "--a", "0.0018241151702338225,4.950383827795312e-31", "--b", "9.031993859512396e+90,1.7139994621560496e+173"],
    # the incomplete gamma at x = a = 3.5e202 ran without end
    ["gamma", "--a", "3.5219679336636546e+202,7.45750565674983e+33", "--b", "2.380223613938927e+85,3.4975146060174276e-189"],
    # the CDF sum rounded above 1, over a bound one ulp below 1
    ["gamma", "--a", "9.729103594148738,105711099017.40561", "--b", "2.099494603113222e-16,8628240846.542465"],
    # x/a underflowed to 0 in Stirling's series (math domain error)
    ["gamma", "--a", "6.7058772039489165e+249,7.506821272245752e+206", "--b", "5.1236295372499295e+110,3.255912203897036e-259"],
    # the extremum dk/dl = 1.3e-288: the closed-form crossing overflowed (OverflowError)
    ["gamma", "--a", "1.4448136191454214e-64,1.620011559394035e-198", "--b", "22.03611651852593,1.7619051423946478e+289"],
    # dk/dl = 5e-324: the crossing search took log(0) (math domain error)
    ["gamma", "--a", "1.9457388571706766e-87,1.4656975540621758e+237", "--b", "2.5977544379704423e-237,8.334727521006977e+236"],
    # P[X=0] underflowed, and the recursion ran on to a cap of 2e224 steps
    ["compound", "poisson", "--lambda", "1.0474972568181603e+223", "--severity", "0.0,0.0,0.0,1.5730804996917085e-73,1.0"],
    # f'(0) = -lam^2 is subnormal: the rate was off by 4e-4, over a bound of 0
    ["expapprox", "--density", "builtin:exp:7.0903905021667015e-161"],
    # Poisson references at rates of 1e7 to 9e15 over windows of 2 cells,
    # all of whose cells underflow: the reference walked out to its mode
    ["pb-poisson", "--p", "0.9999999"],
    ["pb-poisson", "--p", "0.9999999999999999"],
    ["iv", "--box", "1e9", "--m", "0"],
    # lam F_1 = 1 - 7.8e-8: the geometric target was built out to its 1e-12
    # tail budget, 3.5e8 cells, and ran out of memory
    ["compound", "poisson", "--lambda", "1.0", "--severity", "7.83742146670436e-08,0.9999999216257853"],
    # the size law's mass at 100 underflowed to 0.0 in floats, and the
    # Poisson report's nu-side closed form divided by it (ZeroDivisionError)
    ["matroid", "--uniform", "2000,1000", "--m", "100"],
    # the direct form of the case-ii bound overflowed in (z/e)^dk and in
    # 2^(kap_1 + 1), divided by lam_2 z == 0.0, and printed NaN from 0 * inf
    ["gamma", "--a", "101,1", "--b", "1,0.5", "--case", "ii", "--z", "1e10"],
    ["gamma", "--a", "2000,10", "--b", "1999,10", "--case", "ii", "--z", "10"],
    ["gamma", "--a", "2.561943252499654e-260,1.8109700488735983e-175",
     "--b", "2.4094208447587265e-203,1.0769395820653973e-96", "--case", "ii", "--z", "3.510446301845668e-269"],
    ["gamma", "--a", "1.993695827230455e-106,3.232245613186572e-210",
     "--b", "3.6365019426581016e+90,2.895822915735515e-257", "--case", "ii", "--z", "3.3822256905787587e+21"],
    # (1 + (1 - F_1)/(p (1 - p)))^2 overflowed in the stated bound
    ["compound", "geometric", "--count-masses", "0,0.7,0.3", "--p", "1e-170"],
    # the case-ii bound, 0.767, below the TV, 0.945, at shapes under 1: it
    # exited 0 with "dominated": false, and now fails its hypothesis
    ["gamma", "--a", "0.1,1.0", "--b", "0.001,1.0", "--case", "ii", "--z", "1.0"],
])
def test_fuzz_repro_gives_a_valid_outcome(argv):
    _assert_valid_outcome(argv)


def test_gamma_crossing_where_lam_x_underflows():
    # at the crossing 1.4e-211, lam x = 2.2e-402 underflowed to 0 for the
    # shape-1e-34 law, whose CDF there is near 1, not 0: the oracle read
    # [1 - 1e-10, 1 + 1e-10] against a bound of 0.9995 (50 digits: 0.99600576200133)
    report = _assert_valid_outcome(["gamma", "--a", "1.0776666895614802e-34,1.5568876116056598e-191",
                                    "--b", "2.3389632136765343e-31,5.453000493718016e+211"])
    lo, hi = report["oracle_tv"]
    assert lo <= 0.99600576200133 <= hi and report["dominated"] is True


_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_PAIR = st.tuples(_LOG_UNIFORM, _LOG_UNIFORM).map(lambda t: "%r,%r" % t)


def _law(max_cells):
    """A probability vector of 1 to ``max_cells`` cells, as the CLI takes it."""
    return st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_cells).filter(any).map(
        lambda w: ",".join(repr(v / math.fsum(w)) for v in w))


_SEVERITY = _law(6)
_SIDE = st.floats(-6.0, 4.0).map(lambda e: 10.0**e)


@st.composite
def _matroid_argv(draw):
    """``matroid --uniform n,r`` (n <= 60) or ``--partition`` (1 to 8
    categories of size <= 6), at an ``--m`` below the rank, where ``I(m+1) >
    0``, with or without the empty set."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 60))
        rank = draw(st.integers(0, n))
        body, spec = "--uniform", f"{n},{rank}"
    else:
        cats = draw(st.lists(st.integers(1, 6).flatmap(lambda c: st.tuples(st.just(c), st.integers(0, c))),
                             min_size=1, max_size=8))
        rank, body, spec = sum(d for _, d in cats), "--partition", ",".join(f"{c}:{d}" for c, d in cats)
    zero = ["--include-zero"] if draw(st.booleans()) else []
    return ["matroid", body, spec, "--m", str(draw(st.integers(0, max(rank - 1, 0)))), *zero]


@st.composite
def _iv_argv(draw):
    """``iv --box`` of 1 to 8 sides or ``iv --cube n,s`` (n <= 60), sides
    log-uniform in [1e-6, 1e4], at an ``--m`` of 0..n-1."""
    if draw(st.booleans()):
        sides = draw(st.lists(_SIDE, min_size=1, max_size=8))
        n, body, spec = len(sides), "--box", ",".join(map(repr, sides))
    else:
        n = draw(st.integers(1, 60))
        body, spec = "--cube", f"{n},{draw(_SIDE)!r}"
    return ["iv", body, spec, "--m", str(draw(st.integers(0, n - 1)))]


_ARGV = st.one_of(
    st.tuples(_PAIR, _PAIR).map(lambda ab: ["gamma", "--a", ab[0], "--b", ab[1]]),
    _LOG_UNIFORM.map(lambda rate: ["expapprox", "--density", f"builtin:exp:{rate!r}"]),
    st.tuples(_LOG_UNIFORM, _SEVERITY).map(lambda t: ["compound", "poisson", "--lambda", repr(t[0]), "--severity", t[1]]),
    st.tuples(st.sampled_from(["pb-binomial", "pb-poisson"]),
              st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=60)).map(
        lambda t: [t[0], "--p", ",".join(map(repr, t[1]))]),
    _matroid_argv(),
    _iv_argv(),
    st.tuples(_PAIR, _PAIR, _LOG_UNIFORM).map(
        lambda t: ["gamma", "--a", t[0], "--b", t[1], "--case", "ii", "--z", repr(t[2])]),
    # at p = 0.99 the compound law's window takes seconds to build
    st.tuples(_law(5), st.floats(-300.0, math.log10(0.9)).map(lambda e: 10.0**e)).map(
        lambda t: ["compound", "geometric", "--count-masses", t[0], "--p", repr(t[1])]),
    st.lists(st.floats(-300.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=40).map(
        lambda p: ["sum-geometric", "--p", ",".join(map(repr, p))]),
    _PAIR.map(lambda shape_rate: ["expapprox", "--density", f"builtin:gamma:{shape_rate}"]),
    st.tuples(st.sampled_from(["dominance", "matroids", "sums"]), st.integers(1, 5), st.integers(0, 2**32)).map(
        lambda t: ["verify", "--suite", t[0], "--n", str(t[1]), "--seed", str(t[2])]),
)


def _without_p(code, text):
    """An outcome less the echoed summands, ``details.p``."""
    if code == 1:
        return code, text
    out = json.loads(text)
    out["details"].pop("p", None)
    return code, out


# a failure prints the blob that replays it with @reproduce_failure, also
# when the test runs alone; no example database carries one run into the next
@settings(derandomize=True, max_examples=200, deadline=None, print_blob=True, database=None)
@given(_ARGV)
def test_valid_input_gives_a_report_a_not_applicable_result_or_an_input_error(argv):
    # gamma shapes, rates and case-ii points, exponential and compound rates
    # and the shapes and rates of builtin gamma densities log-uniform in
    # [1e-300, 1e300]; compound severities of 1 to 6 cells, compound geometric
    # count laws of 1 to 5 cells at p log-uniform in [1e-300, 0.9], Bernoulli
    # sums of up to 60 summands against the binomial or the Poisson law, sums
    # of 1 to 40 Bernoulli summands against the geometric law at p log-uniform
    # in [1e-300, 1], and the matroid and intrinsic-volume reports of
    # _matroid_argv and _iv_argv; a Bernoulli sum gives the same outcome on its
    # summands reversed, and a sweep of 1 to 5 instances passes every one
    out = _assert_valid_outcome(argv)
    if argv[0] in ("pb-binomial", "pb-poisson"):
        reversed_argv = [argv[0], "--p", ",".join(argv[2].split(",")[::-1])]
        assert _without_p(*run(reversed_argv)) == _without_p(*run(argv)), argv
    elif argv[0] == "verify":
        assert out["passes"] == out["instances"], (argv, out)


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
APPLICATION_MODULES = {"tvbounds." + m for m in ("compound", "continuous", "intrinsic_volumes", "matroids", "sums",
                                                  "verify")}


def _bare_python(code: str, **kwargs):
    # -S -E leaves site-packages and PYTHON* variables out, -B writes no
    # bytecode into the source tree (-E ignores PYTHONDONTWRITEBYTECODE)
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    return subprocess.Popen([sys.executable, "-S", "-E", "-B", "-c", code], **kwargs)


@pytest.fixture(scope="module")
def bare_run():
    """One bare interpreter: the tvbounds modules loaded by importing the CLI
    and building its parser, those each of two subcommands adds, whether
    ``dataclasses`` or ``inspect`` is loaded after all nine subcommands, then
    the third-party modules loaded by every subcommand and by the envelope
    integrals, which no subcommand calls."""
    code = """import json
def loaded():
    return {m for m in sys.modules if m.startswith("tvbounds.")}
from tvbounds.cli import _build_parser, run
_build_parser()
seen = {"cli": sorted(loaded())}
for argv in (["pb-binomial", "--p", "0.1,0.2,0.3"], ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "1"]):
    before = loaded()
    assert run(argv)[0] == 0, argv
    seen[argv[0]] = sorted(loaded() - before)
for argv in (["pb-poisson", "--p", "0.1,0.2,0.3"], ["sum-geometric", "--p", "0.1,0.2"],
             ["matroid", "--uniform", "8,4", "--m", "2"], ["iv", "--box", "0.5,1,2", "--m", "1"],
             ["compound", "poisson", "--lambda", "0.4", "--severity", "0.3,0.65,0.05"],
             ["expapprox", "--density", "builtin:expquad"], ["verify", "--suite", "sums", "--n", "2", "--seed", "1"]):
    assert run(argv)[0] == 0, argv
seen["dataclasses"] = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
from tvbounds.continuous import GammaParams, tv_bound_continuous
tv_bound_continuous(GammaParams(2.0, 0.5), GammaParams(3.0, 1.0), 1.0)
seen["third_party"] = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps(seen))
"""
    with _bare_python(code, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
    assert proc.returncode == 0
    return json.loads(out)


def test_no_third_party_package_is_imported(bare_run):
    # importing numpy, scipy or any other installed package fails under -S
    assert bare_run["third_party"] == []


def test_no_subcommand_imports_dataclasses(bare_run):
    # importing dataclasses pulls in inspect, ast, dis and tokenize, about
    # 10 ms of every CLI process
    assert bare_run["dataclasses"] == []


def test_cli_import_loads_no_application_module(bare_run):
    assert bare_run["cli"]
    assert not APPLICATION_MODULES & set(bare_run["cli"])


def test_each_subcommand_loads_only_its_module(bare_run):
    assert bare_run["pb-binomial"] == ["tvbounds.sums"]
    assert bare_run["gamma"] == ["tvbounds.continuous"]


def test_suite_choices_name_the_verify_suites():
    from tvbounds.verify import SUITES

    assert list(SUITE_NAMES) == sorted(SUITES)


def test_reader_closing_the_pipe_early_gets_no_traceback():
    # a 104 kB report outgrows the pipe, so the CLI is still writing when the
    # reader leaves
    with _bare_python("from tvbounds.cli import main\n"
                      "raise SystemExit(main(['matroid', '--uniform', '400,380', '--m', '2']))",
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'{"binomial'
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert err == ""


@pytest.mark.parametrize("argv", [["matroid", "--partition", "1000000000:1", "--m", "0"],
                                  ["matroid", "--uniform", "1000000000,1", "--m", "0"]])
def test_oversize_matroid_is_an_input_error_within_bounded_memory(argv):
    # a ground set of 1e9 elements was padded to 1e9 counts, a MemoryError
    # under a 1.5 GB address-space limit; now it is refused before any is built
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
    with _bare_python(limit + f"from tvbounds.cli import main\nraise SystemExit(main({argv!r}))",
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and out == ""
    assert err.startswith("error: ground set of 1000000000 elements exceeds") and "Traceback" not in err


def test_main_with_no_reader_on_stdout_exits_1(monkeypatch, capsys):
    # the read end is closed before the report is written, so the flush
    # raises BrokenPipeError, which main turns into exit 1
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["pb-binomial", "--p", "0.1,0.2,0.3"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["matroid", "--uniform", "200,190", "--m", "180"],
                                  ["iv", "--cube", "200,0.5", "--m", "180"]])
def test_poisson_closed_form_beyond_float_range_saturates(argv):
    # m! e^lambda leaves the float range at m = 180; the closed form is summed
    # in log space and the bound clamps to 1
    code, text = run(argv)
    assert code == 0
    report = json.loads(text)
    poisson = report.get("poisson", report)
    assert poisson["bound_mu_side"] == 1.0


@pytest.mark.parametrize("argv, read", [
    (["pb-binomial", "--p", "0.95,0.95"], lambda r: r["details"]["bound_secondary"]),
    (["pb-poisson", "--p", "0.968"], lambda r: r["stated_bound"]),
])
def test_pb_closed_form_beyond_float_range_saturates(argv, read, capsys):
    # the closed form's exponent passes 709, where expm1 raised OverflowError
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert read(json.loads(out)) == "inf"


def test_compound_poisson_without_mass_at_1_or_2_fails_the_criterion():
    # the aggregate lives on 3N; the criterion said it held and the report
    # exited 2 only on absolute continuity against the geometric target
    code, text = run(["compound", "poisson", "--lambda", "0.5", "--severity", "0,0,0,1"])
    payload = json.loads(text)
    assert code == 2
    assert payload["reason"] == "aggregate law fails the log-concavity criterion lam F_1^2 >= 2 F_2"


def test_pb_binomial_near_homogeneous_n1000_is_dominated():
    # before the float pmf cut its tails below 2^-200 of its largest cell, the
    # smallest gap, 0, lay on two subnormal cells at 765, and all three bounds
    # came out 0 below a TV of 7.9e-5
    code, text = run(["pb-binomial", "--p", ",".join(["0.198,0.199,0.2,0.201,0.202"] * 200)])
    payload = json.loads(text)
    assert code == 0
    assert payload["dominated"] is True and payload["status"] == "certified"
    assert payload["oracle_tv"][0] == pytest.approx(7.885e-5, rel=1e-3)
    assert min(payload["bound_nu_side"], payload["bound_mu_side"]) > 7.885e-5


def test_compound_poisson_geometric_target_keeps_a_tiny_ratio():
    # recomputing the ratio as 1 - (1 - lam F_1) left a gap of 2.8e-8 here
    code, text = run(["compound", "poisson", "--lambda", "1e-9", "--severity", "0,1"])
    payload = json.loads(text)
    assert code == 0
    assert payload["anchor"]["ratio_matched"] is True
    assert payload["simplified"] is not None


@pytest.mark.parametrize("argv", [
    ["pb-poisson", "--p", "1e-17"],
    ["pb-binomial", "--p", "1e-17,1e-17"],
    ["pb-binomial", "--p", "1e-9,1e-9"],
], ids=["poisson-1e-17", "binomial-1e-17", "binomial-1e-9"])
def test_bernoulli_sum_references_match_for_small_p(argv):
    # lambda_n = sum p_i/alpha_i is summed directly, not as n (m_n - 1), and the
    # binomial's p is lambda_n / (n + lambda_n), not 1 - 1/m_n: both cancel
    # for small p_i, down to a rate or p of 0 below about 1e-16
    code, text = run(argv)
    payload = json.loads(text)
    assert code == 0
    assert payload["anchor"]["ratio_matched"] is True
    assert payload["dominated"] is True
    details = payload["details"]
    assert details.get("lambda", details.get("target_p")) == pytest.approx(float(argv[-1].split(",")[0]), rel=1e-12)


@pytest.mark.parametrize("p", ["0.99999999,0.5", "0.99999999,0"])
def test_binomial_reference_near_p_one_gives_a_report(p):
    # 1 - p cancels near p = 1, so the target misses the ratio match by a few
    # 1e-9: the report says so in its anchor, and the envelope bounds still hold
    code, text = run(["pb-binomial", "--p", p])
    payload = json.loads(text)
    assert code == 0
    assert payload["anchor"]["ratio_matched"] is False
    assert payload["hypothesis"]["holds"] is True
    assert payload["dominated"] is True


class TestSumGeometricSmallMasses:
    # t = sum p_i/alpha_i is summed from the masses above 0, not as
    # n (m_n - 1), and the geometric reference is built from t itself
    def test_reference_matches_the_ratio(self):
        code, text = run(["sum-geometric", "--p", "1e-9,0"])
        payload = json.loads(text)
        assert code == 0
        assert payload["anchor"]["ratio_matched"] is True
        assert payload["details"]["m_minus_one_times_n"] == pytest.approx(1e-9, rel=1e-15)

    def test_mass_below_rounding_of_one_still_gets_a_bound(self):
        code, text = run(["sum-geometric", "--p", "1e-17,0"])
        payload = json.loads(text)
        assert code == 0
        assert payload["bound_nu_side"] is not None
        assert payload["dominated"] is True
        assert payload["stated_bound"] >= payload["oracle_tv"][1]


# input checks that no other test reaches: each row pins the error's class and message
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: emit({"a": 1}, "xml"), InvalidDistributionError, "unknown format 'xml'", id="format"),
    pytest.param(lambda: emit({"a": object()}, "json"), TypeError, "cannot render <class 'object'>", id="render"),
    pytest.param(lambda: _finite("abc"), argparse.ArgumentTypeError, "malformed number 'abc'", id="number"),
    pytest.param(lambda: _run_expapprox(argparse.Namespace(density="expquad")), InvalidDistributionError,
                 "only builtin:<name> densities are supported", id="density"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
