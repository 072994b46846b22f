import ast
import importlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import gaincover
from gaincover.cli import build_parser

from conftest import command_parsers


def test_every_exported_name_resolves():
    assert len(set(gaincover.__all__)) == len(gaincover.__all__)
    for name in gaincover.__all__:
        assert getattr(gaincover, name) is not None, name


def test_readme_library_table_names_exist():
    # every snake_case name that README's library table gives a module, bare
    # with an underscore or called as name(...), is an attribute of it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `gaincover\.(\w+)` \|(.*)\|$", readme, re.M)
    assert len(rows) >= 7
    named, missing = 0, []
    for mod, contents in rows:
        module = importlib.import_module(f"gaincover.{mod}")
        for token in re.findall(r"`([^`]+)`", contents):
            m = re.fullmatch(r"([a-z][a-z0-9_]*)(\(.*\))?", token)
            if m and ("_" in m[1] or m[2]):
                named += 1
                if not hasattr(module, m[1]):
                    missing.append(f"gaincover.{mod}.{m[1]}")
    assert named and missing == []


# per-layer metrics whose function was renamed or deleted before this check
STRANDED_BENCHMARK_NAMES = {"gains.components", "graphs.connected_components",
                            "intpoly.integer_roots", "regularity.drackn_parameters",
                            "search.enumerate_gains", "spectral.jacobi_eigenvalues"}


def test_every_benchmark_layer_names_a_function_in_src():
    # the benchmark's tracer skips a function that no longer resolves, so a
    # metric of a renamed one would read 0 without a word; only the names
    # already stranded may be missing, and a benchmark that drops them passes
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {".".join(m["name"].split(".")[:2]) for m in bench["per_layer"] if "." in m["name"]}
    assert "intpoly.squarefree_part" in names and "regularity.is_walk_regular" in names
    missing = set()
    for name in names:
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"gaincover.{mod}"), fn, None)):
            missing.add(name)
    assert missing <= STRANDED_BENCHMARK_NAMES


def test_readme_cli_flags_match_the_parser():
    # every --flag in README's CLI section is an option of the parser or of a
    # subcommand at any depth, and every such option but --help is named there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {o for _, p in command_parsers(build_parser()) for a in p._actions
               for o in a.option_strings if o.startswith("--")}
    assert named == options - {"--help"}


def test_every_private_definition_is_used_elsewhere_in_src():
    # a top-level _private function or class that no other code in src/
    # names, outside its own body, is a leftover feeder of a replaced route
    defined, used = set(), set()
    for path in Path(gaincover.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_"):
                defined.add(owner)
            used |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {owner}
    assert len(defined) > 50
    assert sorted(defined - used) == []


def test_column_count_hints_resolve_without_importing_fractions():
    hints = typing.get_type_hints(gaincover.regularity.ColumnCountCertificate)
    assert set(hints) == {"t", "s", "integral"}
    # no command reads column counts, so importing the CLI does not load fractions
    src = str(Path(gaincover.__file__).parents[1])
    probe = "import sys, gaincover.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "False\n"
