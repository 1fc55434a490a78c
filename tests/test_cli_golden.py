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
    ("pb-binomial-csv", ["pb-binomial", "--p", "0.1,0.2,0.3", "--format", "csv"],
     0, "86333bdab2d0d078e2691f2c52c780e886215ec4a41539ef05b9d804e8d10fdb"),
    ("pb-poisson-table", ["pb-poisson", "--p", "0.05,0.1,0.02", "--format", "table"],
     0, "3c3b277e790c6c38bf449296a2ae5496eaf45a00b0de75011dc985628d38e348"),
    ("pb-poisson-bad-p", ["pb-poisson", "--p", "1.5"],
     1, "5ea65cd39cf515fe9e4f00a24fc3ce8e19ce0d3fcd42fcb728d85a2cf5ca58ac"),
    ("pb-binomial-unknown-option", ["pb-binomial", "--p", "0.1", "--bogus"],
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sum-geometric", ["sum-geometric", "--p", "0.1,0.05"],
     0, "e677e80a0f0bef6088dd3c44af632ee73a5aa5627c20fd84ed90606692378cbb"),
    ("sum-geometric-point-masses", ["sum-geometric", "--p", "0,0"],
     0, "24401f816db6961ca6c506eda9b78717e888b8e5afc86828fdbac72f270c5590"),
    ("sum-geometric-point-masses-csv", ["sum-geometric", "--p", "0,0", "--format", "csv"],
     0, "f34de1d2daa06f165d95a581476192a05cc9eedb696a0218cc281f36d49986e0"),
    ("sum-geometric-not-applicable", ["sum-geometric", "--p", "0.6,0.6"],
     2, "262ee40b56dcb041d72858c4e82b61463a48f0c3471d03d338d9957b6f016063"),
    ("matroid-uniform", ["matroid", "--uniform", "12,6", "--m", "4", "--include-zero"],
     0, "36f481d9cfb6539afd55f6c18e024ae6491e26e0dd3e1f3e52cba26fbe6a3a32"),
    ("matroid-partition-half", ["matroid", "--partition", "2:1,3:2,2:2", "--m", "1", "--half"],
     0, "3ecd290ef8158ef75a8ff7d3187629a4173cbb8f852b4c9b69c689786259ed19"),
    ("matroid-partition-csv", ["matroid", "--partition", "2:2,3:2", "--m", "2", "--half", "--format", "csv"],
     0, "6d968360faf3aa0808d2d7d8d56e295d55970d15b6e37f24c093bb3fcac9d781"),
    ("matroid-uniform-table", ["matroid", "--uniform", "6,3", "--m", "1", "--format", "table"],
     0, "58c6e8a5698c70488cf40afa235d711ac40dc46abb46f789b373f8a90dde0b9f"),
    ("iv-box", ["iv", "--box", "0.5,1,2", "--m", "1"],
     0, "5279420e4f249181d349d251f5dc609773a4c7c017f743f7915a9f4a345cf3bd"),
    ("iv-cube", ["iv", "--cube", "8,0.4", "--m", "3"],
     0, "4aa972e970e60116381bbb81090e917bfb4248fd6eb1ab78ea19481b65145e83"),
    ("iv-ball", ["iv", "--ball", "7", "--m", "2"],
     0, "e71c4ac3df61d0c7b7ec8ebf48dcd684d620147ab10f831963bf900ef4b1755f"),
    ("iv-ball-table", ["iv", "--ball", "5", "--m", "1", "--format", "table"],
     0, "057b4b45effaadc61e4947b4f300d10d756014206e92c09781c960c508db2bb9"),
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
    ("compound-poisson-csv", ["compound", "poisson", "--lambda", "0.4", "--severity", "0.3,0.65,0.05", "--format", "csv"],
     0, "256ecfb8ac2c255c8c242bfc8a1e878b6802354bcae2517da6020b6151886029"),
    ("compound-geometric", ["compound", "geometric", "--count-masses", "0.2,0.5,0.3", "--p", "0.2"],
     0, "10bf6dde836728561976a9d2f1223b21f2320662cf9727c6cb5fec78d355fe07"),
    ("compound-geometric-f1-zero", ["compound", "geometric", "--count-masses", "0.5,0,0.5", "--p", "0.3"],
     2, "9f0d5243fb76e20cad0a6275fb7fbcf13aee1a74aec8a009021852ebbe593b99"),
    ("gamma-case-i", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "i"],
     0, "467a472d2fe34a02ce6f39342da591f024e4bb2e786facbdaed6049164abc58b"),
    ("gamma-case-ii", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii", "--z", "1"],
     0, "88126319b892692c03c8da978d46cb74d68e681e8e23fd75de454dfc45a3ebe3"),
    ("gamma-case-ii-table", ["gamma", "--a", "2,1", "--b", "2,1.1", "--case", "ii", "--z", "1", "--format", "table"],
     0, "4b0ffe089c581d696be4b798ddfc9bf7e57feb4ed51e8d093bb1618dd1f0c270"),
    ("gamma-case-ii-needs-z", ["gamma", "--a", "3,2", "--b", "2,1", "--case", "ii"],
     1, "1fe94946c0ecf1c30aac80162100fc3232f6e7e2a2a01e061867c68df6e62a45"),
    ("expapprox", ["expapprox", "--density", "builtin:expquad"],
     0, "ef80b4fd74a364323034e67675f034612b46aee7c827b51b6f6dc1a0804fb4fe"),
    ("expapprox-csv", ["expapprox", "--density", "builtin:exp:2", "--format", "csv"],
     0, "fc2beb12161c68752edd292dc52314f506bb028454ae8cc5ee63aa25a17ad578"),
    ("verify-dominance", ["verify", "--suite", "dominance", "--n", "15", "--seed", "7"],
     0, "cd874a15a564a7135fb2be4925612890ec3778bf16d070a516479afde8607f25"),
    ("verify-sums", ["verify", "--suite", "sums", "--n", "15", "--seed", "7"],
     0, "23c8ef07a2ad3d06949f050bb5362bbd8334767160dc790ecfa4d30de9664bd3"),
    ("verify-matroids", ["verify", "--suite", "matroids", "--n", "15", "--seed", "7"],
     0, "2836898c86388a0664c501a42b4e1fd2bd3ebcf3218a66ddef472067db0232db"),
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
