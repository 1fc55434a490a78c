import hashlib
import json
import random

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
    # digests of the stdout printed when the pmf was a fold of n-1 convolutions;
    # the direct recursion must reproduce it byte for byte
    @pytest.mark.parametrize("subcommand, n, size, digest", [
        ("pb-binomial", 300, 6220, "3bc1914a3546d0505b7d376331beda0396407f2f1fa8343538a46fd4e9e52989"),
        ("pb-poisson", 20, 858, "035e73fdf5cb210f712cb14735c8f1608243d09e04854d34d22927dbbbe74b95"),
    ])
    def test_stdout_unchanged(self, subcommand, n, size, digest):
        code, text = run([subcommand, "--p", _uniform_draws(n)])
        assert code == 0
        assert len(text.encode()) == size
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tolerance_option_removed():
    code, _ = run(["pb-poisson", "--p", "0.1", "--tolerance", "1e-9"])
    assert code == 1
