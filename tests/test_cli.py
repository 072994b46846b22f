import json
import math

import numpy as np
import pytest

from gaincover import petersen, write_edge_list, write_gain_file
from gaincover.cli import main, named_graph, parse_group_spec
from gaincover.errors import ParameterError
from gaincover.families import huang_signing


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_named_graph_specs():
    assert named_graph("k5").n == 5
    assert named_graph("K3,3").m == 9
    assert named_graph("c6").n == 6
    assert named_graph("q3").n == 8
    assert named_graph("petersen").n == 10
    assert named_graph("octahedron").n == 6
    assert named_graph("j5,2").n == 10
    assert named_graph("kn7,2").n == 21
    with pytest.raises(ParameterError):
        named_graph("dodecahedron")


def test_group_specs():
    assert parse_group_spec("z2").order == 2
    assert parse_group_spec("z2xz3").orders == (2, 3)
    assert parse_group_spec("cyclic:5").orders == (5,)
    assert parse_group_spec("abelian:2,2").orders == (2, 2)
    assert parse_group_spec("perm:3").degree == 3
    with pytest.raises(ParameterError):
        parse_group_spec("weyl:7")


def test_demo_huang(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    code, out, err = run(["--json", str(jpath), "demo", "huang", "--n", "3",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["two_ev"]["is_two_ev"] is True
    assert abs(float(report["two_ev"]["theta"]) - math.sqrt(3)) < 1e-12
    assert report["two_ev"]["lambda"] == 0 and report["two_ev"]["mu"] == 3
    gain_path = tmp_path / "huang_3.gain"
    assert gain_path.exists()
    # the report's exact polynomial is integer-coefficient
    assert all(isinstance(c, int) for c in report["cover"]["char_poly"])


def test_demo_butson_report(tmp_path, capsys):
    jpath = tmp_path / "b.json"
    code, _, _ = run(["--json", str(jpath), "demo", "butson", "--q", "3",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    arr = report["regularity"]["intersection_array"]
    assert arr == {"b": [3, 2, 2, 1], "c": [1, 1, 2, 3], "d": 4}


def test_demo_k3n_nonexample(tmp_path, capsys):
    jpath = tmp_path / "ne.json"
    code, _, _ = run(["--json", str(jpath), "demo", "k3n-nonexample", "--n", "2",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["two_ev"]["is_two_ev"] is False


def test_demo_k3n_nonexample_rejects_one_vertex_blocks(tmp_path, capsys):
    code, _, err = run(["demo", "k3n-nonexample", "--n", "1", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err == "error: block size must be at least 2\n"
    assert not any(tmp_path.iterdir())


def test_demo_cohen_tits_keeps_the_library_lower_bound(tmp_path, capsys):
    code, _, err = run(["demo", "cohen-tits", "--n", "1", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err == "error: dimension must be at least 2\n"
    assert not any(tmp_path.iterdir())


def test_lift_and_classify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "h.gain"
    gpath.write_text(write_gain_file(huang_signing(2)))
    code, out, _ = run(["lift", str(gpath)], capsys)
    assert code == 0
    assert out.startswith("graph 8\n")
    jpath = tmp_path / "c.json"
    code, _, _ = run(["--json", str(jpath), "classify", str(gpath)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["cover"]["girth"] == 8
    assert report["two_ev"]["is_two_ev"] is True


def test_classify_deterministic(tmp_path, capsys):
    gpath = tmp_path / "h.gain"
    gpath.write_text(write_gain_file(huang_signing(3)))
    reports = []
    for name in ("a.json", "b.json"):
        jpath = tmp_path / name
        assert run(["--json", str(jpath), "classify", str(gpath)], capsys)[0] == 0
        r = json.loads(jpath.read_text())
        r.pop("meta")
        reports.append(r)
    assert reports[0] == reports[1]


def test_certify_petersen(tmp_path, capsys):
    gpath = tmp_path / "p.edges"
    gpath.write_text(write_edge_list(petersen()))
    jpath = tmp_path / "p.json"
    code, _, _ = run(["--json", str(jpath), "certify", str(gpath),
                      "--checks", "drg,srg"], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["regularity"]["intersection_array"]["b"] == [3, 2]
    assert report["regularity"]["intersection_array_braces"] == "{3,2;1,1}"
    assert report["regularity"]["srg"] == [10, 3, 0, 1]
    assert "antipodal" not in report["regularity"]


def test_search_json(tmp_path, capsys):
    jpath = tmp_path / "s.json"
    code, _, _ = run(["--json", str(jpath), "search", "--base", "k4",
                      "--group", "z2"], capsys)
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["sampled"] == 8
    assert payload["two_ev"] == 2
    assert payload["connected_two_ev"] == 1


def test_search_reports_the_assignments_decided(capsys, monkeypatch):
    from gaincover import search
    from gaincover.search import SearchSpec

    spec = SearchSpec(named_graph("k4"), parse_group_spec("z2xz2"))
    code, out, _ = run(["search", "--base", "k4", "--group", "z2xz2"], capsys)
    assert code == 0 and json.loads(out)["sampled"] == spec.exhaustive_size() == 64
    # the count is of rows the kernel decided, not the planned total
    rows = search.assignment_rows
    monkeypatch.setattr(search, "assignment_rows", lambda s: (b[:3] for b in rows(s)))
    code, out, _ = run(["search", "--base", "k4", "--group", "z2xz2"], capsys)
    assert code == 0 and json.loads(out)["sampled"] == 3


def test_verify_drackn_alias(tmp_path, capsys):
    jpath = tmp_path / "v.json"
    code, _, _ = run(["--json", str(jpath), "verify", "6.2",
                      "--n", "4", "--r", "2"], capsys)
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload == {"sampled": 8, "two_ev": 2, "connected_two_ev": 1,
                       "verified": 1, "failures": []}


def test_verify_srg_cover_cli(tmp_path, capsys):
    from gaincover.families import butson_gain, fourier_butson
    gpath = tmp_path / "b3.gain"
    gpath.write_text(write_gain_file(butson_gain(fourier_butson(3))))
    jpath = tmp_path / "v.json"
    code, _, _ = run(["--json", str(jpath), "verify", "srg-cover",
                      "--gain", str(gpath)], capsys)
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["theorem_checks"]["intersection-array-formula"] == "pass"


def test_usage_errors_exit_1(capsys):
    assert run(["certify", "/nonexistent/file"], capsys)[0] == 1
    assert run(["search", "--base", "nope", "--group", "z2"], capsys)[0] == 1
    assert run(["verify", "q.e.d."], capsys)[0] == 1


def test_falsification_exit_2(tmp_path, capsys, monkeypatch):
    from gaincover import cli
    from gaincover.errors import FalsificationError

    def boom(*a, **k):
        raise FalsificationError("some-property", "witness found")

    monkeypatch.setattr(cli, "verify_drackn", boom)
    code, _, err = run(["verify", "drackn", "--n", "4", "--r", "2"], capsys)
    assert code == 2
    assert "FALSIFIED" in err


def test_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    from gaincover import cli
    from gaincover.errors import NumericError

    def boom(*a, **k):
        raise NumericError("did not converge")

    monkeypatch.setattr(cli, "verify_drackn", boom)
    code, _, err = run(["verify", "6.2", "--n", "4", "--r", "2"], capsys)
    assert code == 3
    assert "numeric" in err


def test_lapack_failure_through_classify_exit_3(tmp_path, capsys, monkeypatch):
    # a real numeric path: the report's spectrum reaches LAPACK, which fails
    def no_convergence(*a, **k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    gpath = tmp_path / "huang_3.gain"
    gpath.write_text(write_gain_file(huang_signing(3)))
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, _, err = run(["classify", str(gpath)], capsys)
    assert code == 3
    assert "numeric failure" in err


def test_budget_refusal_exit_1(tmp_path, capsys):
    code, _, err = run(["--budget", "3", "search", "--base", "petersen",
                        "--group", "z2"], capsys)
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e400", "abc"])
def test_bad_tolerance_exit_1(tmp_path, capsys, tol):
    epath = tmp_path / "p.txt"
    epath.write_text(write_edge_list(petersen()))
    for argv in (["--tol", tol, "verify", "walk-regularity", "--bases", "k4",
                  "--groups", "z2", "--samples", "3", "--out", str(tmp_path)],
                 ["certify", str(epath), "--tol", tol]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == ("error: argument --tol: tolerance must be finite and positive, "
                       f"got {tol!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]


@pytest.mark.parametrize("argv", [
    ["--budget", "-5", "search", "--base", "k4", "--group", "z2", "--mode", "random"],
    ["search", "--base", "k4", "--group", "z2", "--budget", "-1"],
    ["verify", "walk-regularity", "--bases", "k4", "--groups", "z2", "--samples", "-3"],
])
def test_negative_budget_exit_1(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: budget must be non-negative")


def test_gain_file_canonical_through_cli(tmp_path, capsys):
    # parse -> write is byte-identical even from a scrambled input file
    scrambled = ("# hand-written\n"
                 "gainfile 1\n"
                 "group cyclic 2\n"
                 "vertices 4\n"
                 "edge 3 0 1\n"
                 "edge 0 1 0\n"
                 "edge 1 2 1\n"
                 "edge 2 3 0\n")
    from gaincover import parse_gain_file
    f = parse_gain_file(scrambled)
    canon = write_gain_file(f)
    assert write_gain_file(parse_gain_file(canon)) == canon
    assert "edge 0 3 1" in canon  # reoriented to min->max (Z2: self-inverse)


@pytest.mark.parametrize("command", ["classify", "search", "srg-cover", "walk-regularity"])
def test_disconnected_base_exit_1(tmp_path, capsys, command):
    from gaincover import GainGraph, Graph, GroupSpec
    base = Graph(4, [(0, 1), (2, 3)])  # two disjoint edges, 1-regular
    gpath = tmp_path / "two_k2.gain"
    gpath.write_text(write_gain_file(GainGraph(base, GroupSpec.cyclic(2),
                                               {e: (0,) for e in base.edges})))
    epath = tmp_path / "two_k2.txt"
    epath.write_text(write_edge_list(base))
    argv = {"classify": ["classify", str(gpath)],
            "search": ["search", "--base", f"@{epath}", "--group", "z2"],
            "srg-cover": ["verify", "srg-cover", "--gain", str(gpath)],
            "walk-regularity": ["verify", "walk-regularity", "--bases", f"@{epath}",
                                "--groups", "z2", "--samples", "2"]}[command]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and "connected" in err


def test_zero_vertex_gain_file_exit_1(tmp_path, capsys):
    gpath = tmp_path / "empty.gain"
    gpath.write_text("gainfile 1\ngroup cyclic 2\nvertices 0\n")
    code, _, err = run(["classify", str(gpath)], capsys)
    assert code == 1
    assert err == "error: line 3: vertex count must be positive\n"


def test_zero_vertex_edge_list_exit_1(tmp_path, capsys):
    epath = tmp_path / "empty.txt"
    epath.write_text("graph 0\n")
    code, _, err = run(["certify", str(epath)], capsys)
    assert code == 1
    assert err == "error: line 1: vertex count must be positive\n"


@pytest.mark.parametrize("name, text, argv, message", [
    ("group.gain", "gainfile 1\ngroup cyclic 99999999999999999999\nvertices 2\nedge 0 1 2\n",
     ["classify"], "line 2: bad group line: 99999999999999999999 sheets exceed the limit"),
    ("vertices.gain", "gainfile 1\ngroup cyclic 2\nvertices 40000\n",
     ["classify"], "line 3: vertex count exceeds the limit"),
    ("cover.gain", "gainfile 1\ngroup cyclic 100\nvertices 100\n",
     ["lift"], "a cover of 100 x 100 vertices exceeds the limit"),
    ("graph.txt", "graph 40000\n", ["certify"], "line 1: vertex count exceeds the limit"),
    (None, None, ["search", "--base", "k3", "--group", "z100000000000", "--mode", "random",
                  "--budget", "1"], "100000000000 sheets exceed the limit"),
])
def test_input_beyond_the_vertex_limit_exit_1(tmp_path, capsys, name, text, argv, message):
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_duplicate_edge_in_edge_list_exit_1(tmp_path, capsys):
    epath = tmp_path / "dup.txt"
    epath.write_text("graph 3\nedge 0 1\nedge 1 0\nedge 1 2\n")
    code, _, err = run(["certify", str(epath)], capsys)
    assert code == 1
    assert err == "error: line 3: duplicate edge (1,0)\n"
