import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from tvbounds.cli import run


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
    # must reproduce it byte for byte
    @pytest.mark.parametrize("subcommand, n, size, digest", [
        ("pb-binomial", 300, 6175, "a824440dd0b774e1162c022afc6b3ea0de390d25182cb44ace8b7991f3933211"),
        ("pb-poisson", 20, 813, "cb37428a7bd8f666aebff0abac16f71ff9b002f8fb2388476ac17728d6c035ef"),
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
    assert report["details"] == {"anchor_outside_target_support": 0}
    assert report["dominated"] is True


def test_tolerance_option_removed():
    code, _ = run(["pb-poisson", "--p", "0.1", "--tolerance", "1e-9"])
    assert code == 1


def test_ball_anchor_beyond_truncated_reference():
    code, text = run(["iv", "--ball", "20", "--m", "19"])
    assert code == 0
    report = json.loads(text)
    assert report["anchor"]["ratio_gap"] == "inf"
    assert report["dominated"] is True


def test_gamma_anchor_where_both_densities_underflow():
    # the anchor z = 2021.7 lies where both densities are below the float range
    code, text = run(["gamma", "--a", "0.31051296720749755,4.142806729658619",
                      "--b", "6.815607804413838,4.146024315181316", "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["dominated"] is True
    assert float(report["details"]["z"]) == pytest.approx(2021.7317585868677)


def test_gamma_at_shape_1e7():
    # the closed form and the density cross-check part by rounding alone here
    code, text = run(["gamma", "--a", "1e7,1e7", "--b", "2e7,2.00001e7", "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["dominated"] is True


@pytest.mark.parametrize("a, b", [("2,1", "1,1e-310"), ("1,1e-310", "2,1")])
def test_gamma_density_ratio_beyond_float_range(a, b):
    # log R at the anchor is finite, R itself overflows: the bound saturates at 1
    code, text = run(["gamma", "--a", a, "--b", b, "--case", "i"])
    assert code == 0
    report = json.loads(text)
    assert report["bound_nu_side"] == report["bound_mu_side"] == report["simplified"] == 1.0
    assert report["details"]["density_ratio"] == "inf"
    assert report["oracle_tv"] == [0.9999999999, 1.0000000001]
    assert report["dominated"] is True


def test_import_leaves_scipy_unloaded():
    # only tv_bound_continuous, which no subcommand calls, integrates with scipy
    code = """import sys
from tvbounds.cli import run
for argv in (["gamma", "--a", "3,2", "--b", "2,1", "--case", "i"],
             ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "1"],
             ["expapprox", "--density", "builtin:expquad"],
             ["expapprox", "--density", "builtin:exp:2"]):
    assert run(argv)[0] == 0, argv
print(sorted(m for m in ("scipy", "numpy") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"
