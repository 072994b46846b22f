"""Command-line surface and JSON reporting.

Subcommands: demo, lift, classify, certify, search, verify. Exit codes:
0 success / all properties verified, 1 usage or input error, 2 a verified
property was falsified (its witness gain written as a reproducer file into
verify --out, or the current directory), 3 numeric failure.

Reports carry exact integer polynomial coefficients next to clustered numeric
spectra; floats are serialized as 17-significant-digit decimal strings so
consumers never reparse binary floats. Everything outside the "meta" key is
reproducible from the input file and seed alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (BudgetError, DisconnectedError, FalsificationError,
                     NumericError, ParameterError, ParseError)
from .families import (butson_gain, cohen_tits_signing, fourier_butson,
                       huang_signing, k3n_nonexample, s3_cover_k5)
from .gains import GainGraph, GroupSpec, parse_gain_file, write_gain_file
from .graphs import (MAX_VERTICES, Graph, complete_bipartite, complete_graph, cycle,
                     girth, hypercube, is_connected, johnson, kneser, octahedron,
                     parse_edge_list, petersen, write_edge_list)
from .regularity import regularity_certificate
from .search import (DEFAULT_BUDGET, EXHAUSTIVE, RANDOM, SearchSpec, run_search,
                     verify_bipartite_cover, verify_drackn, verify_srg_cover,
                     verify_walk_regularity)
from .spectral import char_poly, classify_two_ev, hermitian_spectrum

# family name -> (gain builder of the parsed arguments, file stem); a builder
# whose cover, sized from its arguments, passes MAX_VERTICES is not called
DEMO_FAMILIES = {
    "huang": lambda a: (_bounded(huang_signing, _pow2(a.n + 1), a.n), f"huang_{a.n}"),
    "cohen-tits": lambda a: (_bounded(cohen_tits_signing, _pow2(a.n + 1), a.n),
                             f"cohen_tits_{a.n}"),
    "butson": lambda a: (_bounded(lambda q: butson_gain(fourier_butson(q)),
                                  2 * max(a.q, 0) ** 2, a.q), f"butson_{a.q}"),
    "s3k5": lambda a: (s3_cover_k5(), "s3_cover_k5"),
    "k3n-nonexample": lambda a: (_bounded(k3n_nonexample, 6 * a.n, a.n),
                                 f"k3n_nonexample_{a.n}"),
}

VERIFY_ALIASES = {
    "walk-regularity": "walk-regularity", "5.1": "walk-regularity",
    "drackn": "drackn", "6.2": "drackn",
    "srg-cover": "srg-cover", "6.4": "srg-cover",
    "bipartite": "bipartite", "6.5": "bipartite",
}


def _fmt(x):
    return format(float(x), ".17g")


def _spectrum_json(spec):
    return [[_fmt(v), int(m)] for v, m in spec]


def graph_report(g: Graph, p):
    """Report of g, whose characteristic polynomial is p."""
    spec = hermitian_spectrum(g.adjacency(dtype=float))
    return {
        "n": g.n,
        "m": g.m,
        "regular": g.degrees[0] if g.n and g.is_regular() else None,
        "girth": girth(g),
        "connected": is_connected(g),
        "char_poly": [int(c) for c in p.coeffs],
        "spectrum": _spectrum_json(spec),
    }


def gain_report(f: GainGraph):
    t0 = time.perf_counter()
    cert = classify_two_ev(f)
    reg = regularity_certificate(f.cover, cert)
    p_base = char_poly(f.base)
    report = {
        "tool": {"name": "gaincover", "version": __version__},
        "input": {"kind": "gain", "group": f.group.describe(),
                  "vertices": f.base.n, "edges": f.base.m},
        "base": graph_report(f.base, p_base),
        # the cover's char poly is the base's times the one on W
        "cover": graph_report(f.cover.graph, p_base * cert.new_poly)
                 | {"fibers": f.cover.r},
        "two_ev": cert.as_dict(),
        "regularity": reg.as_dict(),
        "meta": {"elapsed_s": round(time.perf_counter() - t0, 6)},
    }
    return report


def _subsets(n, k):
    """Size of kneser(n, k) and johnson(n, k), which list the C(n, k)
    k-subsets of an n-set: the larger of n and C(n, k), the latter taken only
    for n within MAX_VERTICES."""
    return n if n > MAX_VERTICES else max(n, math.comb(n, k))


def _bounded(build, count, *args):
    """build(*args) once count, the size of its graph, is within MAX_VERTICES."""
    if count > MAX_VERTICES:
        raise ParameterError(f"over the limit of {MAX_VERTICES} vertices")
    return build(*args)


def _pow2(e):
    """2**e, with e capped where 2**e first exceeds MAX_VERTICES: the size of
    the e-cube, and of a Z2 cover of the (e-1)-cube."""
    return 2 ** min(e, MAX_VERTICES.bit_length())


def named_graph(spec: str) -> Graph:
    """Builtin base names for the CLI: k5, k3,3, c6, q3, j5,2, kn7,2,
    petersen, octahedron, or @path to an edge-list file.

    A spec of more than graphs.MAX_VERTICES vertices raises ParameterError
    before its graph is built."""
    s = spec.strip().lower()
    if s.startswith("@"):
        with open(spec.strip()[1:]) as fh:
            return parse_edge_list(fh.read())
    try:
        if s == "petersen":
            return petersen()
        if s == "octahedron":
            return octahedron()
        if s.startswith("kn"):
            n, k = (int(x) for x in s[2:].split(","))
            return _bounded(kneser, _subsets(n, k), n, k)
        if s.startswith("k") and "," in s:
            m, n = (int(x) for x in s[1:].split(","))
            return _bounded(complete_bipartite, m + n, m, n)
        if s.startswith("k"):
            n = int(s[1:])
            return _bounded(complete_graph, n, n)
        if s.startswith("c"):
            n = int(s[1:])
            return _bounded(cycle, n, n)
        if s.startswith("q"):
            n = int(s[1:])
            return _bounded(hypercube, _pow2(n), n)
        if s.startswith("j"):
            n, k = (int(x) for x in s[1:].split(","))
            return _bounded(johnson, _subsets(n, k), n, k)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad graph spec {spec!r}: {exc}") from None
    raise ParameterError(f"unknown graph spec {spec!r}")


def parse_group_spec(spec: str) -> GroupSpec:
    """z2, z3, z2xz2, cyclic:4, abelian:2,3, perm:3."""
    s = spec.strip().lower()
    try:
        if s.startswith("cyclic:"):
            return GroupSpec.cyclic(int(s.split(":", 1)[1]))
        if s.startswith("abelian:"):
            return GroupSpec.abelian(*(int(x) for x in s.split(":", 1)[1].split(",")))
        if s.startswith("perm:"):
            return GroupSpec.permutation(int(s.split(":", 1)[1]))
        if s.startswith("z"):
            orders = [int(x) for x in s[1:].split("xz")]
            return GroupSpec.abelian(*orders)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad group spec {spec!r}: {exc}") from None
    raise ParameterError(f"unknown group spec {spec!r}")


def _emit(payload, json_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def write_reproducer(theorem, gain, directory):
    """Write gain as falsification_<theorem slug>.gain in directory, creating
    the directory first; returns the file's path."""
    slug = theorem.replace(".", "_").replace(" ", "-")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(str(directory), f"falsification_{slug}.gain")
    with open(path, "w", newline="\n") as fh:
        fh.write(write_gain_file(gain))
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_demo(args):
    fam = args.family
    f, name = DEMO_FAMILIES[fam](args)
    os.makedirs(args.out, exist_ok=True)
    gain_path = os.path.join(args.out, name + ".gain")
    with open(gain_path, "w", newline="\n") as fh:
        fh.write(write_gain_file(f))
    report = gain_report(f)
    report["input"]["family"] = fam
    report["input"]["gain_file"] = gain_path
    _emit(report, args.json or os.path.join(args.out, name + ".json"))
    print(f"wrote {gain_path}", file=sys.stderr)
    return 0


def cmd_lift(args):
    with open(args.gainfile) as fh:
        f = parse_gain_file(fh.read())
    text = write_edge_list(f.cover.graph)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_classify(args):
    with open(args.gainfile) as fh:
        f = parse_gain_file(fh.read())
    report = gain_report(f)
    report["input"]["path"] = args.gainfile
    _emit(report, args.json)
    return 0


def cmd_certify(args):
    with open(args.graphfile) as fh:
        g = parse_edge_list(fh.read())
    checks = set(args.checks.split(",")) if args.checks else {"walk", "drg", "srg",
                                                              "antipodal", "drackn"}
    unknown = checks - {"walk", "drg", "srg", "antipodal", "drackn"}
    if unknown:
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    reg = regularity_certificate(g)
    cert = reg.as_dict()
    keep = {"walk": "walk_regular", "drg": "intersection_array", "srg": "srg",
            "antipodal": "antipodal", "drackn": "drackn"}
    selected = {keep[c]: cert[keep[c]] for c in checks}
    if "antipodal" in checks:
        selected["antipodal_classes"] = cert["antipodal_classes"]
    payload = {
        "tool": {"name": "gaincover", "version": __version__},
        "input": {"kind": "graph", "path": args.graphfile},
        "graph": graph_report(g, char_poly(g)),
        "regularity": selected,
    }
    if reg.drg is not None and "drg" in checks:
        payload["regularity"]["intersection_array_braces"] = str(reg.drg)
    _emit(payload, args.json)
    return 0


def cmd_search(args):
    base = named_graph(args.base)
    group = parse_group_spec(args.group)
    spec = SearchSpec(base=base, group=group, mode=args.mode,
                      budget=args.budget, seed=args.seed)
    summary = run_search(spec)
    payload = {
        "sampled": summary.sampled,
        "two_ev": summary.two_ev,
        "connected_two_ev": summary.connected_two_ev,
        "hits": [
            {
                "gain": write_gain_file(h.gain),
                "two_ev": h.two_ev.as_dict(),
                "regularity": h.regularity.as_dict() if h.regularity else None,
            }
            for h in summary.records
        ],
    }
    _emit(payload, args.json)
    return 0


def cmd_verify(args):
    prop = VERIFY_ALIASES.get(args.property)
    if prop is None:
        raise ParameterError(f"unknown property {args.property!r}; choose from "
                             f"{sorted(set(VERIFY_ALIASES.values()))} (numeric aliases accepted)")
    if prop == "walk-regularity":
        bases = [named_graph(s) for s in args.bases.split("+")]
        groups = [parse_group_spec(s) for s in args.groups.split("+")]
        summary = verify_walk_regularity(bases, groups, budget=args.samples,
                                         seed=args.seed)
        _emit(summary.as_dict(), args.json)
    elif prop == "drackn":
        summary = verify_drackn(args.n, args.r, budget=args.budget)
        _emit(summary.as_dict(), args.json)
    elif prop == "srg-cover":
        if not args.gain:
            raise ParameterError("srg-cover verification takes --gain <file>")
        with open(args.gain) as fh:
            f = parse_gain_file(fh.read())
        rec = verify_srg_cover(f)
        _emit({"theorem_checks": rec.theorem_checks,
               "two_ev": rec.two_ev.as_dict(),
               "regularity": rec.regularity.as_dict() if rec.regularity else None},
              args.json)
    else:
        summary = verify_bipartite_cover(args.m, args.n, args.r, budget=args.budget)
        _emit(summary.as_dict(), args.json)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _add_global_flags(parser, suppress):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=d if suppress else 0,
                        help="random seed")
    parser.add_argument("--budget", type=int, default=d if suppress else DEFAULT_BUDGET,
                        help="assignment budget for searches")
    parser.add_argument("--json", metavar="PATH", default=d if suppress else None,
                        help="write the JSON payload here instead of stdout")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it."""
    p = _Parser(prog="gaincover",
                description="Gain graphs, covering-graph lifts, two-eigenvalue "
                            "classification, and regularity certificates.")
    _add_global_flags(p, suppress=False)
    # the same flags are accepted after the subcommand and override
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", parents=[common],
                       help="emit a built-in family's gain file and report")
    d.add_argument("family", choices=DEMO_FAMILIES)
    d.add_argument("--n", type=int, default=3)
    d.add_argument("--q", type=int, default=3)
    d.add_argument("--out", default=".", help="output directory")
    d.set_defaults(func=cmd_demo)

    l = sub.add_parser("lift", parents=[common], help="lift a gain file to its cover edge list")
    l.add_argument("gainfile")
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_lift)

    c = sub.add_parser("classify", parents=[common], help="two-eigenvalue classification of a gain file")
    c.add_argument("gainfile")
    c.set_defaults(func=cmd_classify)

    y = sub.add_parser("certify", parents=[common], help="regularity certificates for an edge-list graph")
    y.add_argument("graphfile")
    y.add_argument("--checks", default=None,
                   help="comma subset of walk,drg,srg,antipodal,drackn (default all)")
    y.set_defaults(func=cmd_certify)

    s = sub.add_parser("search", parents=[common], help="enumerate gains and report 2ev hits")
    s.add_argument("--base", required=True, help="k5 | k3,3 | c6 | q3 | petersen | "
                                                 "octahedron | j5,2 | kn7,2 | @file")
    s.add_argument("--group", required=True, help="z2 | z2xz2 | cyclic:4 | abelian:2,3")
    s.add_argument("--mode", choices=(EXHAUSTIVE, RANDOM), default=EXHAUSTIVE)
    s.set_defaults(func=cmd_search)

    v = sub.add_parser("verify", parents=[common], help="machine-check a structure property")
    v.add_argument("property", help="walk-regularity|drackn|srg-cover|bipartite "
                                    "(numeric aliases 5.1, 6.2, 6.4, 6.5 accepted)")
    v.add_argument("--n", type=int, default=4)
    v.add_argument("--m", type=int, default=2)
    v.add_argument("--r", type=int, default=2)
    v.add_argument("--bases", default="k4+k5+k3,3+c6+q3",
                   help="'+'-joined graph specs (walk-regularity)")
    v.add_argument("--groups", default="z2+z3+z4+z2xz2",
                   help="'+'-joined group specs (walk-regularity)")
    v.add_argument("--samples", type=int, default=200,
                   help="random samples per base/group pair (walk-regularity)")
    v.add_argument("--gain", default=None, help="gain file (srg-cover)")
    v.add_argument("--out", default=None, help="directory for reproducer dumps")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FalsificationError as exc:
        # only verify raises this; a reproducer that cannot be written leaves
        # the falsification standing and names why
        try:
            where = f"reproducer: {write_reproducer(exc.theorem, exc.gain, args.out or '.')}"
        except OSError as err:
            where = f"reproducer not written: {err}"
        print(f"FALSIFIED {exc.theorem}: {exc.detail} ({where})", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, ParseError, BudgetError, DisconnectedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
