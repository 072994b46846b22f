"""Command-line surface and JSON reporting.

Subcommands: demo, lift, classify, certify, search, verify. Exit codes:
0 success / all properties verified, 1 usage or input error, 2 a verified
property was falsified (reproducer gain file written), 3 numeric failure.

Reports carry exact integer polynomial coefficients next to clustered numeric
spectra; floats are serialized as 17-significant-digit decimal strings so
consumers never reparse binary floats. Everything outside the "meta" key is
reproducible from the input file, seed, and tolerance alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import (BudgetError, DisconnectedError, FalsificationError,
                     NumericError, ParameterError, ParseError)
from .families import (butson_gain, cohen_tits_signing, fourier_butson,
                       huang_signing, k3n_nonexample, s3_cover_k5)
from .gains import GainGraph, GroupSpec, parse_gain_file, write_gain_file
from .graphs import (Graph, complete_bipartite, complete_graph, cycle, girth,
                     hypercube, is_connected, johnson, kneser, octahedron,
                     parse_edge_list, petersen, write_edge_list)
from .regularity import regularity_certificate
from .search import (EXHAUSTIVE, RANDOM, SearchSpec, run_search,
                     verify_bipartite_cover, verify_drackn, verify_srg_cover,
                     verify_walk_regularity)
from .spectral import char_poly, check_tol, classify_two_ev, hermitian_spectrum

DEMO_FAMILIES = ("huang", "cohen-tits", "butson", "s3k5", "k3n-nonexample")

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


def graph_report(g: Graph, tol):
    p = char_poly(g)
    spec = hermitian_spectrum(g.adjacency(dtype=float), tol)
    return {
        "n": g.n,
        "m": g.m,
        "regular": g.degrees[0] if g.n and g.is_regular() else None,
        "girth": girth(g),
        "connected": is_connected(g),
        "char_poly": [int(c) for c in p.coeffs],
        "spectrum": _spectrum_json(spec),
    }


def gain_report(f: GainGraph, tol):
    t0 = time.perf_counter()
    cert = classify_two_ev(f)
    reg = regularity_certificate(f.cover, cert)
    report = {
        "tool": {"name": "gaincover", "version": __version__},
        "input": {"kind": "gain", "group": f.group.describe(),
                  "vertices": f.base.n, "edges": f.base.m},
        "base": graph_report(f.base, tol),
        "cover": graph_report(f.cover.graph, tol) | {"fibers": f.cover.r},
        "two_ev": cert.as_dict(),
        "regularity": reg.as_dict(),
        "meta": {"elapsed_s": round(time.perf_counter() - t0, 6)},
    }
    return report


def named_graph(spec: str) -> Graph:
    """Builtin base names for the CLI: k5, k3,3, c6, q3, j5,2, kn7,2,
    petersen, octahedron, or @path to an edge-list file."""
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
            n, k = s[2:].split(",")
            return kneser(int(n), int(k))
        if s.startswith("k") and "," in s:
            m, n = s[1:].split(",")
            return complete_bipartite(int(m), int(n))
        if s.startswith("k"):
            return complete_graph(int(s[1:]))
        if s.startswith("c"):
            return cycle(int(s[1:]))
        if s.startswith("q"):
            return hypercube(int(s[1:]))
        if s.startswith("j"):
            n, k = s[1:].split(",")
            return johnson(int(n), int(k))
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_demo(args):
    import os
    fam = args.family
    if fam == "huang":
        f = huang_signing(args.n)
        name = f"huang_{args.n}"
    elif fam == "cohen-tits":
        f = cohen_tits_signing(args.n)
        name = f"cohen_tits_{args.n}"
    elif fam == "butson":
        f = butson_gain(fourier_butson(args.q))
        name = f"butson_{args.q}"
    elif fam == "s3k5":
        f = s3_cover_k5()
        name = "s3_cover_k5"
    elif fam == "k3n-nonexample":
        f = k3n_nonexample(args.n)
        name = f"k3n_nonexample_{args.n}"
    else:
        raise ParameterError(f"unknown family {fam!r}")
    os.makedirs(args.out, exist_ok=True)
    gain_path = os.path.join(args.out, name + ".gain")
    with open(gain_path, "w", newline="\n") as fh:
        fh.write(write_gain_file(f))
    report = gain_report(f, args.tol)
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
    report = gain_report(f, args.tol)
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
        "graph": graph_report(g, args.tol),
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
    rep_dir = args.out or "."
    if prop == "walk-regularity":
        bases = [named_graph(s) for s in args.bases.split("+")]
        groups = [parse_group_spec(s) for s in args.groups.split("+")]
        summary = verify_walk_regularity(bases, groups, budget=args.samples,
                                         seed=args.seed, tol=args.tol,
                                         reproducer_dir=rep_dir)
        _emit(summary.as_dict(), args.json)
    elif prop == "drackn":
        summary = verify_drackn(args.n, args.r, budget=args.budget,
                                reproducer_dir=rep_dir)
        _emit(summary.as_dict(), args.json)
    elif prop == "srg-cover":
        if not args.gain:
            raise ParameterError("srg-cover verification takes --gain <file>")
        with open(args.gain) as fh:
            f = parse_gain_file(fh.read())
        rec = verify_srg_cover(f, reproducer_dir=rep_dir)
        _emit({"theorem_checks": rec.theorem_checks,
               "two_ev": rec.two_ev.as_dict(),
               "regularity": rec.regularity.as_dict() if rec.regularity else None},
              args.json)
    else:
        summary = verify_bipartite_cover(args.m, args.n, args.r,
                                         budget=args.budget, reproducer_dir=rep_dir)
        _emit(summary.as_dict(), args.json)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _tolerance(text):
    try:
        tol = float(text)
        check_tol(tol)
    except (ValueError, ParameterError):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}") from None
    return tol


def _add_global_flags(parser, suppress):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--tol", type=_tolerance,
                        default=d if suppress else 1e-7,
                        help="eigenvalue clustering tolerance (relative; default 1e-7)")
    parser.add_argument("--seed", type=int, default=d if suppress else 0,
                        help="random seed")
    parser.add_argument("--budget", type=int, default=d if suppress else 1 << 20,
                        help="assignment budget for searches")
    parser.add_argument("--json", metavar="PATH", default=d if suppress else None,
                        help="write the JSON payload here instead of stdout")


def build_parser():
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
        print(f"FALSIFIED {exc.theorem}: {exc.detail}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, ParseError, BudgetError, DisconnectedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
