import importlib.util
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gaincover import (cli, parse_gain_file, petersen, regularity, search, spectral,
                       write_edge_list, write_gain_file)
from gaincover.cli import main, named_graph, parse_group_spec
from gaincover.errors import FalsificationError, ParameterError
from gaincover.families import butson_gain, fourier_butson, huang_signing

from conftest import command_parsers, plant_audit_failures


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
    code, out, err = run(["demo", "huang", "--n", "3", "--out", str(tmp_path),
                          "--json", str(jpath)], capsys)
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
    code, _, _ = run(["demo", "butson", "--q", "3", "--out", str(tmp_path),
                      "--json", str(jpath)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    arr = report["regularity"]["intersection_array"]
    assert arr == {"b": [3, 2, 2, 1], "c": [1, 1, 2, 3], "d": 4}


def test_demo_k3n_nonexample(tmp_path, capsys):
    jpath = tmp_path / "ne.json"
    code, _, _ = run(["demo", "k3n-nonexample", "--n", "2", "--out", str(tmp_path),
                      "--json", str(jpath)], capsys)
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


DEMO_BUILDERS = ("huang_signing", "cohen_tits_signing", "fourier_butson", "butson_gain",
                 "k3n_nonexample")


class Built(Exception):
    pass


def _patch_demo_builders(monkeypatch, build):
    for name in DEMO_BUILDERS:
        monkeypatch.setattr(cli, name, build)


@pytest.mark.parametrize("argv", [["huang", "--n", "12"], ["cohen-tits", "--n", "12"],
                                  ["huang", "--n", "99999999999"], ["butson", "--q", "46"],
                                  ["k3n-nonexample", "--n", "683"]])
def test_demo_beyond_the_vertex_limit_is_refused_unbuilt(tmp_path, capsys, monkeypatch,
                                                         argv):
    def unbuildable(*args):
        raise AssertionError(f"built the demo family of {argv}")

    _patch_demo_builders(monkeypatch, unbuildable)
    out = tmp_path / "out"
    code, stdout, err = run(["demo", *argv, "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert err == "error: over the limit of 4096 vertices\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["huang", "--n", "11"], ["cohen-tits", "--n", "11"],
                                  ["butson", "--q", "45"], ["k3n-nonexample", "--n", "682"]])
def test_demo_at_the_vertex_limit_reaches_its_builder(tmp_path, monkeypatch, argv):
    def built(*args):
        raise Built

    _patch_demo_builders(monkeypatch, built)
    with pytest.raises(Built):
        main(["demo", *argv, "--out", str(tmp_path)])


def test_lift_and_classify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "h.gain"
    gpath.write_text(write_gain_file(huang_signing(2)))
    code, out, _ = run(["lift", str(gpath)], capsys)
    assert code == 0
    assert out.startswith("graph 8\n")
    jpath = tmp_path / "c.json"
    code, _, _ = run(["classify", str(gpath), "--json", str(jpath)], capsys)
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
        assert run(["classify", str(gpath), "--json", str(jpath)], capsys)[0] == 0
        r = json.loads(jpath.read_text())
        r.pop("meta")
        reports.append(r)
    assert reports[0] == reports[1]


def test_certify_petersen(tmp_path, capsys):
    gpath = tmp_path / "p.edges"
    gpath.write_text(write_edge_list(petersen()))
    jpath = tmp_path / "p.json"
    code, _, _ = run(["certify", str(gpath), "--checks", "drg,srg",
                      "--json", str(jpath)], capsys)
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["regularity"]["intersection_array"]["b"] == [3, 2]
    assert report["regularity"]["intersection_array_braces"] == "{3,2;1,1}"
    assert report["regularity"]["srg"] == [10, 3, 0, 1]
    assert "antipodal" not in report["regularity"]


def test_search_json(tmp_path, capsys):
    jpath = tmp_path / "s.json"
    code, _, _ = run(["search", "--base", "k4", "--group", "z2",
                      "--json", str(jpath)], capsys)
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
    code, _, _ = run(["verify", "6.2", "--n", "4", "--r", "2",
                      "--json", str(jpath)], capsys)
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload == {"sampled": 8, "two_ev": 2, "connected_two_ev": 1,
                       "verified": 1, "failures": []}


def test_verify_srg_cover_cli(tmp_path, capsys):
    from gaincover.families import butson_gain, fourier_butson
    gpath = tmp_path / "b3.gain"
    gpath.write_text(write_gain_file(butson_gain(fourier_butson(3))))
    jpath = tmp_path / "v.json"
    code, _, _ = run(["verify", "srg-cover", "--gain", str(gpath),
                      "--json", str(jpath)], capsys)
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["theorem_checks"]["intersection-array-formula"] == "pass"


def test_usage_errors_exit_1(capsys):
    assert run(["certify", "/nonexistent/file"], capsys)[0] == 1
    assert run(["search", "--base", "nope", "--group", "z2"], capsys)[0] == 1
    assert run(["verify", "q.e.d."], capsys)[0] == 1


# the flags of each command path, demo family and verify property; each is
# read by that command, and the top-level parser takes none but --help
ACCEPTED_FLAGS = {
    (): set(),
    ("demo",): set(),
    ("demo", "huang"): {"--n", "--out", "--json"},
    ("demo", "cohen-tits"): {"--n", "--out", "--json"},
    ("demo", "butson"): {"--q", "--out", "--json"},
    ("demo", "s3k5"): {"--out", "--json"},
    ("demo", "k3n-nonexample"): {"--n", "--out", "--json"},
    ("lift",): {"--out"},
    ("classify",): {"--json"},
    ("certify",): {"--checks", "--json"},
    ("search",): {"--base", "--group", "--mode", "--budget", "--seed", "--json"},
    ("verify",): set(),
    ("verify", "walk-regularity"): {"--bases", "--groups", "--samples", "--seed", "--json",
                                    "--out"},
    ("verify", "drackn"): {"--n", "--r", "--budget", "--json", "--out"},
    ("verify", "srg-cover"): {"--gain", "--json", "--out"},
    ("verify", "bipartite"): {"--m", "--n", "--r", "--budget", "--json", "--out"},
}


def test_each_command_accepts_only_the_flags_it_reads():
    parser = cli.build_parser()
    accepted = {path: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                for path, p in command_parsers(parser)}
    assert accepted == ACCEPTED_FLAGS
    assert sum(map(len, accepted.values())) == 44
    # each numeric alias names its property's parser
    verify = dict(command_parsers(parser))[("verify",)]
    props = next(a for a in verify._actions if a.dest == "property").choices
    for alias, name in [("5.1", "walk-regularity"), ("6.2", "drackn"), ("6.4", "srg-cover"),
                        ("6.5", "bipartite")]:
        assert props[alias] is props[name]


# argv with flags that its command does not read: each exits 1 before it runs
@pytest.mark.parametrize("argv", [
    ["verify", "walk-regularity", "--budget", "5", "--samples", "3"],
    ["verify", "drackn", "--samples", "9", "--gain", "nofile", "--bases", "zz"],
    ["demo", "s3k5", "--n", "99", "--q", "7", "--seed", "4", "--budget", "1"],
    ["lift", "g.gain", "--json", "x"],
    ["--json", "a.json", "search", "--base", "k4", "--group", "z2", "--json", "b.json"],
    ["verify", "srg-cover", "--gain", "b3.gain", "--n", "5"],
])
def test_flag_the_command_does_not_read_exit_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gain").write_text(write_gain_file(huang_signing(2)))
    (tmp_path / "b3.gain").write_text(write_gain_file(butson_gain(fourier_butson(3))))
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b3.gain", "g.gain"]


def _load_bench_workloads(monkeypatch):
    """bench/workloads.py, imported from its file for the current test."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["search-exhaustive", "walkreg-random", "classify-large"])
def test_benchmark_traffic_passes_its_checks(tmp_path, capsys, monkeypatch, workload):
    # every full-size call the benchmark makes parses, exits 0 and prints JSON
    # that satisfies the invariants the benchmark checks
    workloads = _load_bench_workloads(monkeypatch)
    invocations = workloads.build(workload, workloads.DEFAULT_SEED, str(tmp_path))
    assert invocations
    for inv in invocations:
        code, out, err = run(inv.argv, capsys)
        assert code == 0, (inv.label, err)
        assert inv.check(json.loads(out)) == [], inv.label


def test_falsification_exit_2(tmp_path, capsys, monkeypatch):
    f = huang_signing(3)

    def boom(*a, **k):
        raise FalsificationError("some-property", "witness found", f)

    monkeypatch.setattr(cli, "verify_drackn", boom)
    # with no --out the reproducer goes into the current directory
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["verify", "drackn", "--n", "4", "--r", "2"], capsys)
    assert code == 2
    path = os.path.join(".", "falsification_some-property.gain")
    assert err == f"FALSIFIED some-property: witness found (reproducer: {path})\n"
    assert parse_gain_file((tmp_path / path).read_text()) == f


def _no_certificate_field(field):
    """Force every regularity certificate the harnesses take to lack field."""
    return lambda mp: mp.setattr(search, "regularity_certificate",
                                 lambda g, cert=None: SimpleNamespace(**{field: None}))


def test_falsification_writes_its_reproducer_into_a_new_directory(tmp_path, capsys,
                                                                  monkeypatch):
    # every connected 2ev lift then lacks drackn parameters, which the
    # drackn check reports as a falsification
    _no_certificate_field("drackn")(monkeypatch)
    out = tmp_path / "a" / "b"
    code, _, err = run(["verify", "drackn", "--n", "4", "--r", "2", "--out", str(out)],
                       capsys)
    assert code == 2
    assert "FALSIFIED" in err
    assert os.listdir(out) == ["falsification_drackn-cover-of-complete-graph.gain"]


def test_falsification_stands_when_its_reproducer_cannot_be_written(tmp_path, capsys,
                                                                    monkeypatch):
    _no_certificate_field("drackn")(monkeypatch)
    # --out names an existing file, so no directory can be made there
    out = tmp_path / "taken"
    out.write_text("")
    code, stdout, err = run(["verify", "drackn", "--n", "4", "--r", "2", "--out", str(out)],
                            capsys)
    assert code == 2 and stdout == ""
    assert err == ("FALSIFIED drackn-cover-of-complete-graph: connected 2ev cover of a "
                   "complete graph is not a drackn (reproducer not written: "
                   f"[Errno 17] File exists: '{out}')\n")
    assert out.read_text() == ""


# property: (argv, the harness it calls, how one of its checks is forced to
# fail, and the theorem and detail that failure raises)
FORCED_FALSIFICATIONS = {
    "walk-regularity": (
        ["verify", "walk-regularity", "--bases", "k4", "--groups", "z3",
         "--samples", "50", "--seed", "2"], "verify_walk_regularity",
        lambda mp: plant_audit_failures(mp, [3]),
        "block-decomposition", "character spectra deviate from lift spectrum by 0.125"),
    "drackn": (
        ["verify", "drackn", "--n", "4", "--r", "2"], "verify_drackn",
        _no_certificate_field("drackn"),
        "drackn-cover-of-complete-graph",
        "connected 2ev cover of a complete graph is not a drackn"),
    "bipartite": (
        ["verify", "bipartite", "--m", "2", "--n", "2", "--r", "2"], "verify_bipartite_cover",
        lambda mp: mp.setattr(regularity, "is_distance_regular", lambda *args: None),
        "bipartite-drg-cover", "lift is not distance-regular of diameter 4"),
    "srg-cover": (
        ["verify", "srg-cover", "--gain", "butson_3.gain"], "verify_srg_cover",
        _no_certificate_field("drg"),
        "srg-cover-drg-equivalence", "distance-regular=False but a=0, lambda=0"),
}


@pytest.mark.parametrize("prop", FORCED_FALSIFICATIONS)
def test_each_verify_property_falsified_at_the_cli(tmp_path, capsys, monkeypatch, prop):
    argv, harness, force, theorem, detail = FORCED_FALSIFICATIONS[prop]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "butson_3.gain").write_text(write_gain_file(butson_gain(fourier_butson(3))))
    force(monkeypatch)
    raised = []
    real = getattr(cli, harness)

    def recording(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except FalsificationError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, harness, recording)
    out = tmp_path / "out"
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    path = os.path.join(str(out), f"falsification_{theorem}.gain")
    assert err == f"FALSIFIED {theorem}: {detail} (reproducer: {path})\n"
    [exc] = raised
    assert (exc.theorem, exc.detail) == (theorem, detail)
    assert os.listdir(out) == [os.path.basename(path)]
    with open(path) as fh:
        assert parse_gain_file(fh.read()) == exc.gain


def test_main_builds_one_parser_for_every_call(capsys, monkeypatch):
    from gaincover import cli

    parsers = []
    real = cli._Parser.parse_args

    def recording(self, argv=None):
        parsers.append(self)
        return real(self, argv)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    argv = ["verify", "drackn", "--n", "4", "--r", "2"]
    first = run(argv, capsys)
    assert first[0] == 0
    # a usage error part way through parsing leaves nothing behind
    assert run(["verify", "drackn", "--n", "four"], capsys)[0] == 1
    assert run(argv, capsys) == first
    assert len(parsers) == 3 and all(p is parsers[0] for p in parsers)


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
    code, _, err = run(["search", "--base", "petersen", "--group", "z2",
                        "--budget", "3"], capsys)
    assert code == 1
    assert "budget" in err
    # 2^14365 assignments: the refusal states the count as a power, which in
    # decimal would pass Python's 4300-digit limit
    code, out, err = run(["search", "--base", "k171", "--group", "z2"], capsys)
    assert code == 1 and out == ""
    assert err == "error: exhaustive search needs 2^14365 assignments, budget is 1048576\n"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e400", "abc"])
def test_bad_tolerance_exit_1(tmp_path, capsys, tol):
    # the tolerance is the fixed spectral.TOL: --tol, whatever its value, is
    # refused before and after the subcommand, and nothing is written
    epath = tmp_path / "p.txt"
    epath.write_text(write_edge_list(petersen()))
    for argv in (["--tol", tol, "verify", "walk-regularity", "--bases", "k4",
                  "--groups", "z2", "--samples", "3", "--out", str(tmp_path)],
                 ["certify", str(epath), "--tol", tol]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]


def test_wrong_block_decomposition_falsified_at_the_cli(tmp_path, capsys, monkeypatch):
    # character spectra scaled by 1.2 miss a lift of K4 by 0.6, far past the
    # audit's real bound
    real = spectral._character_stack
    monkeypatch.setattr(spectral, "_character_stack", lambda *args: 1.2 * real(*args))
    code, stdout, err = run(["verify", "walk-regularity", "--bases", "k4+c6", "--groups",
                             "z3", "--samples", "5", "--out", str(tmp_path)], capsys)
    assert code == 2 and stdout == ""
    path = os.path.join(str(tmp_path), "falsification_block-decomposition.gain")
    assert err == ("FALSIFIED block-decomposition: character spectra deviate from lift "
                   f"spectrum by 0.6 (reproducer: {path})\n")


@pytest.mark.parametrize("argv", [
    ["search", "--base", "k4", "--group", "z2", "--mode", "random", "--budget", "-5"],
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


@pytest.mark.parametrize("spec", ["q24", "q13", "q99999999999", "kn5000,2", "kn4097,1",
                                  "j100,50", "j99999999999,99999999999", "c4097",
                                  "k2049,2048", "k4097"])
def test_base_spec_beyond_the_vertex_limit_is_refused_unbuilt(capsys, monkeypatch, spec):
    from gaincover import cli

    def unbuildable(*args):
        raise AssertionError(f"built a base of spec {spec!r}")

    for name in ("complete_graph", "complete_bipartite", "cycle", "hypercube", "johnson",
                 "kneser"):
        monkeypatch.setattr(cli, name, unbuildable)
    code, out, err = run(["search", "--base", spec, "--group", "z2", "--mode", "random",
                          "--budget", "1"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: bad graph spec {spec!r}: over the limit of 4096 vertices\n"


def test_base_spec_at_the_vertex_limit_is_built():
    assert named_graph("q12").n == named_graph("c4096").n == 4096
    assert named_graph("j4096,4096").n == 1


def test_duplicate_edge_in_edge_list_exit_1(tmp_path, capsys):
    epath = tmp_path / "dup.txt"
    epath.write_text("graph 3\nedge 0 1\nedge 1 0\nedge 1 2\n")
    code, _, err = run(["certify", str(epath)], capsys)
    assert code == 1
    assert err == "error: line 3: duplicate edge (1,0)\n"
