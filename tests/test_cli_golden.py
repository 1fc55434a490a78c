"""Golden CLI outputs: every case pins ``(exit code, sha256(stdout))`` of
``cli.run``. A digest may change only where CHANGES.md says why.
"""

import hashlib
import json
import os

import pytest

from tvbounds.cli import SUBCOMMANDS, run

# ``iv --product`` specs, written to a file per test; an argv entry "@name"
# stands for that file's path (the path does not reach stdout)
PRODUCTS = {
    "rare": {"mode": "rare", "factors": [{"cube": [2, 0.1], "scale": 0.5}, {"ball": 3, "scale": 0.2}]},
    "scaled": {"mode": "scaled", "factors": [{"cube": [2, 0.3], "scale": 0.5}, {"box": [0.2, 0.4], "scale": 0.25}]},
    "box": {"mode": "box", "factors": [{"segment": 0.1}, {"segment": 0.2}, {"segment": 0.05}]},
}

# Every case that prints a report was re-pinned when the CLI came to render
# the reports of the application modules: keys moved and no number changed.
# Each report gained "status" (and iv-product and gamma-case-ii a report's
# keys); the pb-* "bound" became "stated_bound", and "bound_secondary",
# "target_p", "rate" (as "lambda") and "p" moved into "details"; matroid
# dropped its top-level "profile", "n", "rank" and "mason", which its reports
# carry; iv moved "V" into "details" and dropped "W" and "m", which "details"
# held; iv-product's "bound", "bound_clamped" and "mode" became
# "stated_bound", "simplified" and "details.mode"; gamma-case-i moved
# "crossings", gamma-case-ii "z" and expapprox "density" into "details", and
# gamma-case-ii's "bound" and "bound_clamped" became "stated_bound" and
# "simplified".  The verify cases print sweeps, not reports, and did not move.
CASES = [
    ("pb-binomial-json", ["pb-binomial", "--p", "0.1,0.2,0.3"],
     0, "f3806a0ccfbc6cf369ca7246687e47623a95023e37baab469ebfd3ae76492321"),
    # re-pinned when the float binomial reference came to be built by its mass
    # ratio: the last digits of the oracle_tv repr moved (0.014167021461792328
    # to 0.01416702146179244)
    ("pb-binomial-csv", ["pb-binomial", "--p", "0.1,0.2,0.3", "--format", "csv"],
     0, "3ad9a2b5ed311747d94c6e00841bf4c6ea403444f7fce0763f655ecae0f96101"),
    # re-pinned when the oracle interval became [t - reference deficit, t +
    # target deficit], clamped to [0, 1], in place of [t, t + both deficits]:
    # each law's missing mass moves the true TV one way only.  Only oracle_tv
    # moved, here and in the cases marked (oracle) below; it moved in the
    # Poisson cases too, whose reference is now built over the target's window
    ("pb-poisson-table", ["pb-poisson", "--p", "0.05,0.1,0.02", "--format", "table"],
     0, "a0cf854b89a7fa8816c6094fee88d28d5eb4784af6a6ad7a1c81c8e10178cbc5"),
    ("pb-poisson-bad-p", ["pb-poisson", "--p", "1.5"],
     1, "5ea65cd39cf515fe9e4f00a24fc3ce8e19ce0d3fcd42fcb728d85a2cf5ca58ac"),
    ("pb-binomial-unknown-option", ["pb-binomial", "--p", "0.1", "--bogus"],
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # (oracle): 2.181166854759e-02 was the floor and is now the top
    ("sum-geometric", ["sum-geometric", "--p", "0.1,0.05"],
     0, "56de827710c4dfe458f5fca9e0a882d7febf7bfafb9f73572eb2b8ec43d4bcf8"),
    ("sum-geometric-point-masses", ["sum-geometric", "--p", "0,0"],
     0, "ec45eaf15540513b08acac88e96b86412c3afff11b48e5134ffde56e4932fdd1"),
    ("sum-geometric-point-masses-csv", ["sum-geometric", "--p", "0,0", "--format", "csv"],
     0, "dd00e15ea71deddda758a17fea7e54d78f2cff9f728406940661246b8eaf9caa"),
    ("sum-geometric-not-applicable", ["sum-geometric", "--p", "0.6,0.6"],
     2, "262ee40b56dcb041d72858c4e82b61463a48f0c3471d03d338d9957b6f016063"),
    # (oracle): the Poisson reference's deficit, below 1e-12, moved from the top
    # of oracle_tv to its floor; the t of matroid-partition-csv and
    # matroid-uniform-table also moved in the last digit
    #
    # Re-pinned, with the iv cases below, when every discrete report's two
    # sides came to be certify's envelope sums in place of closed forms passed
    # in by hand: simplified is now set in both matroid reports, and the
    # Poisson report's stated_bound carries the paper's corollary.  The
    # binomial bound_nu_side and bound_mu_side bytes did not move.
    # matroid-uniform: the simplified bounds 3.872070312500e-01 and
    # 7.096904159124e-01, and stated_bound 2.444598645074e+00, are new
    ("matroid-uniform", ["matroid", "--uniform", "12,6", "--m", "4", "--include-zero"],
     0, "d197181957f7ee27b0d0f8ffe72fa826389651278e84902f961fb26f9dfd36ea"),
    # the simplified bounds 2.689672066093e-01 and 7.765094059241e-01, and
    # stated_bound 3.474461236881e+00, are new
    ("matroid-partition-half", ["matroid", "--partition", "2:1,3:2,2:2", "--m", "1", "--half"],
     0, "f7649040bfbc849373bb259105d3056148c5d127fd32ecb8f2238e2645b9568b"),
    # the simplified bounds 1.167558324607e-01 and 3.385969463718e-01 and
    # stated_bound 5.119373799596e-01 are new; the Poisson bound_mu_side, now
    # the envelope sum, moved to 5.119373799595e-01
    ("matroid-partition-csv", ["matroid", "--partition", "2:2,3:2", "--m", "2", "--half", "--format", "csv"],
     0, "f326028649ddd6f495768024a576b2ddd525a743e7ecc64c137d63b79dfa0bfb"),
    # the simplified bounds 3.593750000000e-01 and 7.697868108646e-01, and
    # stated_bound 3.343799778612e+00, are new
    ("matroid-uniform-table", ["matroid", "--uniform", "6,3", "--m", "1", "--format", "table"],
     0, "d3223538c50fef15e85b09451706275f2fad6aa13265576bc54d6f3d909f4e38"),
    # (oracle): as the matroid cases; iv-ball-table's t moved in the last digit
    # (envelope, as the matroid cases) simplified 3.039899719260e-01 and
    # stated_bound 4.367609081254e-01, the corollary, are new; bound_mu_side,
    # now the envelope sum, moved from the corollary to 4.367609081251e-01
    ("iv-box", ["iv", "--box", "0.5,1,2", "--m", "1"],
     0, "289ac61aac92ba11c1e41a0fe83a1d6f66620eaef89f80c3ad7b8b9e96ce31e0"),
    # (envelope) simplified 2.569704989165e-01 and stated_bound 3.458415830620e-01
    # are new; bound_mu_side moved to 3.458415830617e-01
    ("iv-cube", ["iv", "--cube", "8,0.4", "--m", "3"],
     0, "9bdf656b1201da58cb27340b2b49f610639c550a02a7bfb8d79adecf1c7afe30"),
    # (envelope) simplified 4.460019001555e-01 and stated_bound 8.050603427713e-01
    # are new; bound_mu_side moved to 8.050603427707e-01
    ("iv-ball", ["iv", "--ball", "7", "--m", "2"],
     0, "a6469645ec28a4c147c6d14b27e2d42ea80893d79e50414813a110e618b91dd7"),
    # (envelope) simplified 5.707606693878e-01 and stated_bound 1.329702635995e+00
    # are new; bound_mu_side stays clamped at 1
    ("iv-ball-table", ["iv", "--ball", "5", "--m", "1", "--format", "table"],
     0, "97913662c9cf2e3836dd0777b71bcd545d2253463f6862819d42bbc6bf738d6c"),
    ("iv-product-rare", ["iv", "--product", "@rare"],
     0, "b00105ac4fb9d0753dfa5d9153525ad42bbb0bff711ec3a40c7ceafa07088f3f"),
    ("iv-product-scaled", ["iv", "--product", "@scaled"],
     0, "88daae22512c76931e01b1624de65c0d98d137e6e406cbf7fa3a5eea0cbc5f74"),
    ("iv-product-box", ["iv", "--product", "@box"],
     0, "156b3c0a8e659d8a498761c3e5794b1305d05df0a5526e0e97a180a3210df105"),
    ("iv-bad-side", ["iv", "--box", "1,-1"],
     1, "d94cef2dad932963bf6afed65038dd4270501a342656fc0a606fcadf65ee3047"),
    ("compound-poisson-point-severity", ["compound", "poisson", "--lambda", "0.5", "--severity", "1"],
     0, "e9a7558d20cd9c5e57873670143bdf2612cca9305d985b88b74297ea12a6a0e2"),
    ("compound-poisson-criterion-fails", ["compound", "poisson", "--lambda", "0.5", "--severity", "0.2,0.5,0.3"],
     2, "4493ff60e1e9cbb876f3d045e92fc61a2b4bf386d1d1ca6ca046458a4a2a21ca"),
    # re-pinned when each bound from stored cells came to carry the target's
    # tail deficit (1.5e-13 here): bound_nu_side and simplified moved
    # 2.088393887029e-02 to 2.088393887045e-02, bound_mu_side
    # 2.132938034556e-02 to 2.132938034572e-02; and again (oracle): the
    # geometric reference's deficit moved from the top of oracle_tv to its floor
    ("compound-poisson-csv", ["compound", "poisson", "--lambda", "0.4", "--severity", "0.3,0.65,0.05", "--format", "csv"],
     0, "7e063ac3a3f008ece4fa8f3eaa05a921ef4a691a7aa76d6cfb53fe1d96a4b7c6"),
    # exits 2: its report's certificate fails at 1, so the bound is not applicable.
    # Re-pinned here and in compound-geometric-hypothesis-fails when every
    # discrete report came to be built by certify: a failed relative
    # certificate gives the one not-applicable shape, so anchor is null and
    # details.not_applicable names the failure; nothing else moved
    ("compound-geometric", ["compound", "geometric", "--count-masses", "0.2,0.5,0.3", "--p", "0.2"],
     2, "81a54ace6bb6d7467628137b097d7050241f84ae6b03aab52d5efe7861531a49"),
    ("compound-geometric-f1-zero", ["compound", "geometric", "--count-masses", "0.5,0,0.5", "--p", "0.3"],
     2, "9f0d5243fb76e20cad0a6275fb7fbcf13aee1a74aec8a009021852ebbe593b99"),
    # the aggregate law is not log-concave relative to its geometric target
    ("compound-geometric-hypothesis-fails", ["compound", "geometric", "--count-masses", "0.3,0.5,0.2", "--p", "0.2"],
     2, "54371d2a1126fec9fee80e98aced1a0a9b503cd8293c9f0b86d2f73426959317"),
    ("gamma-case-i", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "i"],
     0, "1fc992273823fa4da1a978b68f00f591eff7a878345b655b3b2fae401ffe01a2"),
    ("gamma-case-ii", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "1"],
     0, "897c60e8d1c1fdf36702ea468ec79f104867400461266babc718d08fbdcee3c6"),
    # re-pinned when the density crossings came to be found by bisection: the
    # crossing moved one ulp, nearer the true root, and the last digits of the
    # oracle_tv repr moved (0.05155629237546822 to 0.05155629237546811, where
    # the true TV minus the 1e-10 pad is 0.05155629237546820, far inside it)
    ("gamma-case-ii-table", ["gamma", "--a", "2,1", "--b", "2,1.1", "--case", "ii", "--z", "1", "--format", "table"],
     0, "fe821184cb1441e59e8ad454b5a5295da6c01564774881e39ea2efb0cf63c8ef"),
    ("gamma-case-ii-needs-z", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii"],
     1, "1fe94946c0ecf1c30aac80162100fc3232f6e7e2a2a01e061867c68df6e62a45"),
    ("expapprox", ["expapprox", "--density", "builtin:expquad"],
     0, "aacd9127f4a9ef0e97df0600080eba7d3870b023cb805016a77c61c96a972af1"),
    # re-pinned when the oracle came to be taken at the one density crossing:
    # exp:2 is its own exponential (f(0) equals the rate), so there is none
    # and oracle_tv is [0.0, 1e-11], where a grid of rounding noise gave
    # [4.440892098500626e-16, 1.000044408920985e-11]
    ("expapprox-csv", ["expapprox", "--density", "builtin:exp:2", "--format", "csv"],
     0, "81a2169cb5603cabb4a1cf0c6b7be60c215b30e350be34787cbe739862f540c5"),
    ("verify-dominance", ["verify", "--suite", "dominance", "--n", "15", "--seed", "7"],
     0, "cd874a15a564a7135fb2be4925612890ec3778bf16d070a516479afde8607f25"),
    ("verify-sums", ["verify", "--suite", "sums", "--n", "15", "--seed", "7"],
     0, "23c8ef07a2ad3d06949f050bb5362bbd8334767160dc790ecfa4d30de9664bd3"),
    # (oracle): worst_slack moved from -6.742e-13 to -5.551e-17
    ("verify-matroids", ["verify", "--suite", "matroids", "--n", "15", "--seed", "7"],
     0, "965545661bab9d256ed301c99399b9161e5da3a1059d9c23b3f7e560a29ffc49"),
]


def _resolve(argv, directory):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = os.path.join(directory, arg[1:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(PRODUCTS[arg[1:]], fh)
            arg = path
        out.append(arg)
    return out


def test_cases_cover_every_subcommand_format_and_exit_code():
    assert {argv[0] for _, argv, _, _ in CASES} == set(SUBCOMMANDS)
    formats = {argv[argv.index("--format") + 1] if "--format" in argv else "json" for _, argv, _, _ in CASES}
    assert formats == {"json", "csv", "table"}
    assert {code for _, _, code, _ in CASES} == {0, 1, 2}


@pytest.mark.parametrize("argv, code, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_output(argv, code, digest, tmp_path):
    got_code, text = run(_resolve(argv, str(tmp_path)))
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest
