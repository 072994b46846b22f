import importlib
import re
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


def test_readme_cli_flags_match_the_parser():
    # every --flag in README's CLI section is an option of the parser or of a
    # subcommand at any depth, and every such option but --help is named there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {o for _, p in command_parsers(build_parser()) for a in p._actions
               for o in a.option_strings if o.startswith("--")}
    assert named == options - {"--help"}
