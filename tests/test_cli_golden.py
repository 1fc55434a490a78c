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

CASES = [
    ("pb-binomial-json", ["pb-binomial", "--p", "0.1,0.2,0.3"],
     0, "05536709e147f44704c7774e5864bf2a7ac383c72e30433f2f901b40d019aaa1"),
    # re-pinned when the float binomial reference came to be built by its mass
    # ratio: the last digits of the oracle_tv repr moved (0.014167021461792328
    # to 0.01416702146179244)
    ("pb-binomial-csv", ["pb-binomial", "--p", "0.1,0.2,0.3", "--format", "csv"],
     0, "ae5b515e32a0978934601cf2fd5bbb36a14bfd3b7495ed0ad3364b29bb16c156"),
    # re-pinned when the oracle interval became [t - reference deficit, t +
    # target deficit], clamped to [0, 1], in place of [t, t + both deficits]:
    # each law's missing mass moves the true TV one way only.  Only oracle_tv
    # moved, here and in the cases marked (oracle) below; it moved in the
    # Poisson cases too, whose reference is now built over the target's window
    ("pb-poisson-table", ["pb-poisson", "--p", "0.05,0.1,0.02", "--format", "table"],
     0, "17a9092854a0a7e541176543126ca569d11fa74dbe554d691f5d371270e25128"),
    ("pb-poisson-bad-p", ["pb-poisson", "--p", "1.5"],
     1, "5ea65cd39cf515fe9e4f00a24fc3ce8e19ce0d3fcd42fcb728d85a2cf5ca58ac"),
    ("pb-binomial-unknown-option", ["pb-binomial", "--p", "0.1", "--bogus"],
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # (oracle): 2.181166854759e-02 was the floor and is now the top
    ("sum-geometric", ["sum-geometric", "--p", "0.1,0.05"],
     0, "f7c3acd92f47e3599cb38eb6a6cf4e4c6fcb30728bd1d7e1b44a4d39a0de1423"),
    ("sum-geometric-point-masses", ["sum-geometric", "--p", "0,0"],
     0, "24401f816db6961ca6c506eda9b78717e888b8e5afc86828fdbac72f270c5590"),
    ("sum-geometric-point-masses-csv", ["sum-geometric", "--p", "0,0", "--format", "csv"],
     0, "f34de1d2daa06f165d95a581476192a05cc9eedb696a0218cc281f36d49986e0"),
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
     0, "5b91fe0ef53a0cc3fb2c93b3037de5eafe7d4ae4ac7a6eddafdaa81a3d3eb073"),
    # the simplified bounds 2.689672066093e-01 and 7.765094059241e-01, and
    # stated_bound 3.474461236881e+00, are new
    ("matroid-partition-half", ["matroid", "--partition", "2:1,3:2,2:2", "--m", "1", "--half"],
     0, "4d9a1671576bd609e087870349773c402da6c1706d74ac1e68b1d5fa4684900d"),
    # the simplified bounds 1.167558324607e-01 and 3.385969463718e-01 and
    # stated_bound 5.119373799596e-01 are new; the Poisson bound_mu_side, now
    # the envelope sum, moved to 5.119373799595e-01
    ("matroid-partition-csv", ["matroid", "--partition", "2:2,3:2", "--m", "2", "--half", "--format", "csv"],
     0, "eeeda92201eb6182e656bdecfda0d8782b846ba69873a4938b7457afb73e582b"),
    # the simplified bounds 3.593750000000e-01 and 7.697868108646e-01, and
    # stated_bound 3.343799778612e+00, are new
    ("matroid-uniform-table", ["matroid", "--uniform", "6,3", "--m", "1", "--format", "table"],
     0, "ac4e3c74bf8a58d7abf787c7a4b3abd36ed773561bf81dbff3c36af2a4821363"),
    # (oracle): as the matroid cases; iv-ball-table's t moved in the last digit
    # (envelope, as the matroid cases) simplified 3.039899719260e-01 and
    # stated_bound 4.367609081254e-01, the corollary, are new; bound_mu_side,
    # now the envelope sum, moved from the corollary to 4.367609081251e-01
    ("iv-box", ["iv", "--box", "0.5,1,2", "--m", "1"],
     0, "a31674fed272be7143467d5fc642a411106a7c518dec8b113f69117744e56029"),
    # (envelope) simplified 2.569704989165e-01 and stated_bound 3.458415830620e-01
    # are new; bound_mu_side moved to 3.458415830617e-01
    ("iv-cube", ["iv", "--cube", "8,0.4", "--m", "3"],
     0, "35d72d1d8e70742ef12f6beaaa2b40eff43172b7c522d3aaff446f54010d9595"),
    # (envelope) simplified 4.460019001555e-01 and stated_bound 8.050603427713e-01
    # are new; bound_mu_side moved to 8.050603427707e-01
    ("iv-ball", ["iv", "--ball", "7", "--m", "2"],
     0, "f6bcfaa4dfe875c216c518f7762f07a71c4d37f0bd7b70e891ac18542e5c9634"),
    # (envelope) simplified 5.707606693878e-01 and stated_bound 1.329702635995e+00
    # are new; bound_mu_side stays clamped at 1
    ("iv-ball-table", ["iv", "--ball", "5", "--m", "1", "--format", "table"],
     0, "3a58bd9126467d0fd6c82227bc90886fa2cbf89bee4be65a325e0d0b385940a3"),
    ("iv-product-rare", ["iv", "--product", "@rare"],
     0, "61c40147133bb0f2c203f8b4452e2e6ea1802d48a648c5b589d4396d5a451798"),
    ("iv-product-scaled", ["iv", "--product", "@scaled"],
     0, "a2612aa8e5f83caf2657c4f59ccbdd027976119a8e40b1c0b302f4a39ac7f99a"),
    ("iv-product-box", ["iv", "--product", "@box"],
     0, "d949f83fff4850f93cc0ac9a60b43394146149934737873070af58549ad3046e"),
    ("iv-bad-side", ["iv", "--box", "1,-1"],
     1, "d94cef2dad932963bf6afed65038dd4270501a342656fc0a606fcadf65ee3047"),
    ("compound-poisson-point-severity", ["compound", "poisson", "--lambda", "0.5", "--severity", "1"],
     0, "05d8b38eabdbe407dc7266d66cc0c66eb3c2dadc8266ded999e4a2d2dcc4e883"),
    ("compound-poisson-criterion-fails", ["compound", "poisson", "--lambda", "0.5", "--severity", "0.2,0.5,0.3"],
     2, "4493ff60e1e9cbb876f3d045e92fc61a2b4bf386d1d1ca6ca046458a4a2a21ca"),
    # re-pinned when each bound from stored cells came to carry the target's
    # tail deficit (1.5e-13 here): bound_nu_side and simplified moved
    # 2.088393887029e-02 to 2.088393887045e-02, bound_mu_side
    # 2.132938034556e-02 to 2.132938034572e-02; and again (oracle): the
    # geometric reference's deficit moved from the top of oracle_tv to its floor
    ("compound-poisson-csv", ["compound", "poisson", "--lambda", "0.4", "--severity", "0.3,0.65,0.05", "--format", "csv"],
     0, "9fb55a88ecb9a10acf86a593cb3c2e5def046aa4468a47fa4c38b8c843a83876"),
    # exits 2: its report's certificate fails at 1, so the bound is not applicable.
    # Re-pinned here and in compound-geometric-hypothesis-fails when every
    # discrete report came to be built by certify: a failed relative
    # certificate gives the one not-applicable shape, so anchor is null and
    # details.not_applicable names the failure; nothing else moved
    ("compound-geometric", ["compound", "geometric", "--count-masses", "0.2,0.5,0.3", "--p", "0.2"],
     2, "cb933e03017209b89e30eaa3dd840a94479c536cd999e1d24384ece6e61c26f8"),
    ("compound-geometric-f1-zero", ["compound", "geometric", "--count-masses", "0.5,0,0.5", "--p", "0.3"],
     2, "9f0d5243fb76e20cad0a6275fb7fbcf13aee1a74aec8a009021852ebbe593b99"),
    # the aggregate law is not log-concave relative to its geometric target
    ("compound-geometric-hypothesis-fails", ["compound", "geometric", "--count-masses", "0.3,0.5,0.2", "--p", "0.2"],
     2, "7490339293a384018c73475d1c893c476d97a4494c77296cc57792db58e66f25"),
    ("gamma-case-i", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "i"],
     0, "467a472d2fe34a02ce6f39342da591f024e4bb2e786facbdaed6049164abc58b"),
    ("gamma-case-ii", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "1"],
     0, "88126319b892692c03c8da978d46cb74d68e681e8e23fd75de454dfc45a3ebe3"),
    # re-pinned when the density crossings came to be found by bisection: the
    # crossing moved one ulp, nearer the true root, and the last digits of the
    # oracle_tv repr moved (0.05155629237546822 to 0.05155629237546811, where
    # the true TV minus the 1e-10 pad is 0.05155629237546820, far inside it)
    ("gamma-case-ii-table", ["gamma", "--a", "2,1", "--b", "2,1.1", "--case", "ii", "--z", "1", "--format", "table"],
     0, "147696e22beabdeb81977de395f6dd001e3d78bf6d40f7b9d037161a36f56557"),
    ("gamma-case-ii-needs-z", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii"],
     1, "1fe94946c0ecf1c30aac80162100fc3232f6e7e2a2a01e061867c68df6e62a45"),
    ("expapprox", ["expapprox", "--density", "builtin:expquad"],
     0, "ef80b4fd74a364323034e67675f034612b46aee7c827b51b6f6dc1a0804fb4fe"),
    # re-pinned when the oracle came to be taken at the one density crossing:
    # exp:2 is its own exponential (f(0) equals the rate), so there is none
    # and oracle_tv is [0.0, 1e-11], where a grid of rounding noise gave
    # [4.440892098500626e-16, 1.000044408920985e-11]
    ("expapprox-csv", ["expapprox", "--density", "builtin:exp:2", "--format", "csv"],
     0, "bc20d7dc3862139189239a63f6e6c92f97bef25c14421f777ee3fbb286df7300"),
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
