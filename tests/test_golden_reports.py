"""Golden reports: the JSON of `classify` on the demo gains and on three
abelian gains whose lifts are not 2ev, of `certify` on two graphs with
irrational eigenvalues, and of three exhaustive searches, outside `meta`,
against files in tests/data.

The files hold the reports with `meta` and the input path dropped. Integers,
booleans and other strings are compared exactly; decimal float strings are
rounded to 6 places first, so an eigensolver whose values agree far inside
the 1e-7 clustering tolerance leaves them unchanged.
"""

import json
import os

import pytest

from gaincover.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

# (demo family and arguments, file stem of its gain file)
DEMOS = [
    (["huang", "--n", "3"], "huang_3"),
    (["huang", "--n", "7"], "huang_7"),
    (["cohen-tits", "--n", "4"], "cohen_tits_4"),
    (["butson", "--q", "3"], "butson_3"),
    (["s3k5"], "s3_cover_k5"),
    (["k3n-nonexample", "--n", "2"], "k3n_nonexample_2"),
]


def canonical(x, key=None):
    """x with `meta` and input paths dropped and decimal float strings rounded
    to 6 places; -0 rounds to 0."""
    if isinstance(x, dict):
        return {k: canonical(v, k) for k, v in x.items() if k not in ("meta", "path")}
    if isinstance(x, list):
        return [canonical(v) for v in x]
    if isinstance(x, str):
        try:
            s = f"{float(x):.6f}"
        except ValueError:
            return x
        return "0.000000" if s == "-0.000000" else s
    return x


def golden(name):
    with open(os.path.join(DATA, name + ".json")) as fh:
        return canonical(json.load(fh))


def produced(argv, tmp_path):
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == 0
    return canonical(json.loads(path.read_text()))


@pytest.mark.parametrize("demo, stem", DEMOS, ids=[stem for _, stem in DEMOS])
def test_classify_report_matches_its_golden_file(tmp_path, demo, stem):
    assert main(["demo", *demo, "--out", str(tmp_path),
                 "--json", str(tmp_path / "demo.json")]) == 0
    got = produced(["classify", str(tmp_path / (stem + ".gain"))], tmp_path)
    assert got == golden("classify_" + stem)


# gain files in tests/data, abelian and not 2ev: the random Q5/Z3 and
# K(8,2)/Z4 gains that bench/workloads.py draws at its default seed, and a
# random Q3/Z5 gain, whose single characters have char polys outside Z[x]
MISSES = ["random_q5_z3", "random_kn8_2_z4", "random_q3_z5"]


@pytest.mark.parametrize("stem", MISSES)
def test_abelian_miss_report_matches_its_golden_file(tmp_path, stem):
    got = produced(["classify", os.path.join(DATA, stem + ".gain")], tmp_path)
    assert got == golden("classify_" + stem)


# edge-list files in tests/data: K_{3,5}, irregular, with eigenvalues 0 and
# +-sqrt(15), and the cycle C_13, whose eigenvalues but 2 are six irrational
# values, each of multiplicity 2
CERTIFIED = ["k3_5", "c13"]


@pytest.mark.parametrize("stem", CERTIFIED)
def test_certify_report_matches_its_golden_file(tmp_path, stem):
    got = produced(["certify", os.path.join(DATA, stem + ".edges")], tmp_path)
    assert got == golden("certify_" + stem)


def test_search_report_matches_its_golden_file(tmp_path):
    got = produced(["search", "--base", "k4", "--group", "z2"], tmp_path)
    assert got == golden("search_k4_z2")


# (base, group) of an exhaustive search: the one connected hit of K5/Z2 is a
# (5,2,3) drackn; the octahedron is not complete, and its two connected Z2
# hits are antipodal but not distance-regular, so their drackn is null
DRACKN_SEARCHES = [("k5", "z2"), ("octahedron", "z2")]


@pytest.mark.parametrize("base, group", DRACKN_SEARCHES,
                         ids=[f"{b}_{g}" for b, g in DRACKN_SEARCHES])
def test_drackn_search_report_matches_its_golden_file(tmp_path, base, group):
    got = produced(["search", "--base", base, "--group", group], tmp_path)
    assert got == golden(f"search_{base}_{group}")
