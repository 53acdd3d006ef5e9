"""Golden digests of the graph presets' law reports and of two exact
``factorize`` runs.

Each preset is checked at seed 0 with 40 trials, and its report directory
is pinned by one sha256 over the sorted (file name, file sha256) pairs; a
``factorize`` directory (the family and its law 3.6-roundtrip report) is
pinned the same way.  A change that alters report bytes on purpose updates
these pins and says so.
"""

import hashlib

import pytest

from fibretransport.cli import main

GOLDEN = {
    "perm-c3":
        "95d078df0ad063f1b53350dfa49cf0c39459c5ef7f35ebea8dc073ccb10287c0",
    "foliation-2sec":
        "6da8d8366f53e3fff54e8e81c4f8003b7e485acad2862555735b21bd1c85b2bd",
    "parallelization-flat":
        "0586f0b1a4096b160bd234b0e3ea4a8375b1e848a3d6050be131b4bec84aabc4",
    "counterexample:group_breaking":
        "739425690573bcf96e983ae2aa7844bd5dcc4b732ae3feb6f52f157a257431eb",
    "counterexample:nonlocal":
        "80ef1ca9fc6a5834442ca42e8774b6d768e82dd81da2e2825626121d4d013d55",
    "counterexample:non_reparam_invariant":
        "d3ac5cecabe757ceab0b16f9b341e3374658f575a74b517377165101c971d2ea",
    "counterexample:nonlinear":
        "820a20e683ed265e9553b352a6a06a04d793049cbd2ec4697ccef177b39028f7",
    "counterexample:metric_breaking":
        "29d11bbeae68399d747d4614a38a76dfac31340534b21126ead43cc99a39abae",
}


def report_digest(out) -> str:
    pairs = sorted((f.name, hashlib.sha256(f.read_bytes()).hexdigest())
                   for f in out.iterdir())
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_graph_reports_match_their_golden_digest(name, tmp_path, capsys):
    rc = main(["check", "--instance", name, "--seed", "0", "--trials", "40",
               "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == (1 if name.startswith("counterexample:") else 0)
    assert report_digest(tmp_path) == GOLDEN[name]


FACTORIZE_GOLDEN = {
    ("perm-c3", "--path", "zigzag", "--s0", "0.3", "--grid", "7"):
        "2b2fa9b697185183e99bf7e733b64b9647cbc905dfa7cde69725e397c89a50dc",
    ("parallelization-flat", "--path", "figure-eight", "--grid", "5"):
        "0402d13d7974d074d649aeb66197d823842aaec68a81e69aceedb14c6cb95c12",
}


@pytest.mark.parametrize("args", sorted(FACTORIZE_GOLDEN),
                         ids=lambda args: args[0])
def test_factorize_files_match_their_golden_digest(args, tmp_path, capsys):
    rc = main(["factorize", "--instance", *args, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "factorization.json", "law_3.6-roundtrip.json"]
    assert report_digest(tmp_path) == FACTORIZE_GOLDEN[args]
