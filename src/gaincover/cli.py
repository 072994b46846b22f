"""Command-line surface and JSON reporting.

Subcommands: demo, lift, classify, certify, search, verify; demo takes a
family and verify a property as a subcommand of its own. Each command, family
and property accepts only the flags it reads, after its name; any other flag
is a usage error. Exit codes:
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
from .gains import CoverGraph, GainGraph, GroupSpec, parse_gain_file, write_gain_file
from .graphs import (MAX_VERTICES, Graph, complete_bipartite, complete_graph, cycle,
                     girth, hypercube, is_connected, johnson, kneser, octahedron,
                     parse_edge_list, petersen, write_edge_list)
from .regularity import regularity_certificate
from .search import (DEFAULT_BUDGET, EXHAUSTIVE, RANDOM, SearchSpec, run_search,
                     verify_bipartite_cover, verify_drackn, verify_srg_cover,
                     verify_walk_regularity)
from .spectral import char_poly, classify_two_ev, cover_spectrum, graph_spectrum

# family name -> (its size flag or None, gain builder of that flag's value,
# file stem); a builder whose cover, sized from the value, passes MAX_VERTICES
# is not called
DEMO_FAMILIES = {
    "huang": ("--n", lambda n: (_bounded(huang_signing, _pow2(n + 1), n), f"huang_{n}")),
    "cohen-tits": ("--n", lambda n: (_bounded(cohen_tits_signing, _pow2(n + 1), n),
                                     f"cohen_tits_{n}")),
    "butson": ("--q", lambda q: (butson_gain(_bounded(fourier_butson, 2 * max(q, 0) ** 2, q)),
                                 f"butson_{q}")),
    "s3k5": (None, lambda _: (s3_cover_k5(), "s3_cover_k5")),
    "k3n-nonexample": ("--n", lambda n: (_bounded(k3n_nonexample, 6 * n, n),
                                         f"k3n_nonexample_{n}")),
}


def _fmt(x):
    return format(float(x), ".17g")


def _spectrum_json(spec):
    return [[_fmt(v), int(m)] for v, m in spec]


def graph_report(x, p, spec):
    """Report of x, a graph or a lift, whose characteristic polynomial is p
    and whose clustered spectrum is spec."""
    g = x.graph if isinstance(x, CoverGraph) else x
    return {
        "n": g.n,
        "m": g.m,
        "regular": g.degrees[0] if g.n and g.is_regular() else None,
        "girth": girth(x),
        "connected": is_connected(x),
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
        "base": graph_report(f.base, p_base, graph_spectrum(f.base)),
        # the cover's char poly is the base's times the one on W; for abelian
        # gains its spectrum is the base's and its character blocks'
        "cover": graph_report(f.cover, p_base * cert.new_poly, cover_spectrum(f))
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
    size, build = DEMO_FAMILIES[fam]
    f, name = build(size and getattr(args, size[2:]))
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
    keep = {"walk": "walk_regular", "drg": "intersection_array", "srg": "srg",
            "antipodal": "antipodal", "drackn": "drackn"}
    checks = set(args.checks.split(",")) if args.checks else set(keep)
    unknown = checks - keep.keys()
    if unknown:
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    reg = regularity_certificate(g)
    cert = reg.as_dict()
    selected = {keep[c]: cert[keep[c]] for c in checks}
    if "antipodal" in checks:
        selected["antipodal_classes"] = cert["antipodal_classes"]
    payload = {
        "tool": {"name": "gaincover", "version": __version__},
        "input": {"kind": "graph", "path": args.graphfile},
        "graph": graph_report(g, char_poly(g), graph_spectrum(g)),
        "regularity": selected,
    }
    if reg.drg is not None and "drg" in checks:
        payload["regularity"]["intersection_array_braces"] = str(reg.drg)
    _emit(payload, args.json)
    return 0


def cmd_search(args):
    summary = run_search(SearchSpec(base=named_graph(args.base),
                                    group=parse_group_spec(args.group), mode=args.mode,
                                    budget=args.budget, seed=args.seed))
    payload = {
        "sampled": summary.sampled,
        "two_ev": summary.two_ev,
        "connected_two_ev": summary.connected_two_ev,
        "hits": [{"gain": write_gain_file(h.gain), "two_ev": h.two_ev.as_dict(),
                  "regularity": h.regularity.as_dict()} for h in summary.records],
    }
    _emit(payload, args.json)
    return 0


def cmd_verify(args):
    _emit(args.harness(args), args.json)
    return 0


def _verify_walk(args):
    bases = [named_graph(s) for s in args.bases.split("+")]
    groups = [parse_group_spec(s) for s in args.groups.split("+")]
    return verify_walk_regularity(bases, groups, budget=args.samples, seed=args.seed).as_dict()


def _verify_srg(args):
    with open(args.gain) as fh:
        rec = verify_srg_cover(parse_gain_file(fh.read()))
    return {"theorem_checks": rec.theorem_checks, "two_ev": rec.two_ev.as_dict(),
            "regularity": rec.regularity.as_dict() if rec.regularity else None}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise ParameterError and which, with its
    subparsers, takes each flag only as spelt, never a prefix of it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParameterError(message)


# the flags that several commands read; each is declared after its command
SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="random seed"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET, help="assignment budget for searches"),
    "--json": dict(metavar="PATH", help="write the JSON payload here instead of stdout"),
}


def _with(parser, *flags):
    """parser, with the named SHARED_FLAGS and --json added."""
    for flag in (*flags, "--json"):
        parser.add_argument(flag, **SHARED_FLAGS[flag])
    return parser


def _property(props, name, alias, harness, claim, *flags):
    """The verify property name, also called alias, which states claim and
    takes flags: it emits harness(args), and a falsification writes its
    reproducer into --out."""
    v = _with(props.add_parser(name, aliases=[alias], help=claim), *flags)
    v.add_argument("--out", help="directory for reproducer dumps")
    v.set_defaults(func=cmd_verify, harness=harness)
    return v


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it. Each
    command, demo family and verify property takes only the flags it reads."""
    p = _Parser(prog="gaincover",
                description="Gain graphs, covering-graph lifts, two-eigenvalue "
                            "classification, and regularity certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="emit a built-in family's gain file and report")
    families = d.add_subparsers(dest="family", required=True)
    for fam, (size, _) in DEMO_FAMILIES.items():
        f = _with(families.add_parser(fam))
        if size:
            f.add_argument(size, type=int, default=3)
        f.add_argument("--out", default=".", help="output directory")
    d.set_defaults(func=cmd_demo)

    l = sub.add_parser("lift", help="lift a gain file to its cover edge list")
    l.add_argument("gainfile")
    l.add_argument("--out")
    l.set_defaults(func=cmd_lift)

    c = _with(sub.add_parser("classify", help="two-eigenvalue classification of a gain file"))
    c.add_argument("gainfile")
    c.set_defaults(func=cmd_classify)

    y = _with(sub.add_parser("certify", help="regularity certificates for an edge-list graph"))
    y.add_argument("graphfile")
    y.add_argument("--checks", help="comma subset of walk,drg,srg,antipodal,drackn "
                                    "(default all)")
    y.set_defaults(func=cmd_certify)

    s = _with(sub.add_parser("search", help="enumerate gains and report 2ev hits"),
              "--seed", "--budget")
    s.add_argument("--base", required=True, help="k5 | k3,3 | c6 | q3 | petersen | "
                                                 "octahedron | j5,2 | kn7,2 | @file")
    s.add_argument("--group", required=True, help="z2 | z2xz2 | cyclic:4 | abelian:2,3")
    s.add_argument("--mode", choices=(EXHAUSTIVE, RANDOM), default=EXHAUSTIVE)
    s.set_defaults(func=cmd_search)

    v = sub.add_parser("verify", help="machine-check a structure property")
    props = v.add_subparsers(dest="property", required=True)
    w = _property(props, "walk-regularity", "5.1", _verify_walk,
                  "2ev covers of walk-regular bases are walk-regular", "--seed")
    w.add_argument("--bases", default="k4+k5+k3,3+c6+q3", help="'+'-joined graph specs")
    w.add_argument("--groups", default="z2+z3+z4+z2xz2", help="'+'-joined group specs")
    w.add_argument("--samples", type=int, default=200,
                   help="random samples per base/group pair")
    k = _property(props, "drackn", "6.2",
                  lambda a: verify_drackn(a.n, a.r, budget=a.budget).as_dict(),
                  "connected cyclic 2ev covers of K_n are drackns", "--budget")
    k.add_argument("--n", type=int, default=4)
    k.add_argument("--r", type=int, default=2)
    g = _property(props, "srg-cover", "6.4", _verify_srg,
                  "a 2ev cover of an SRG is distance-regular iff a = lambda")
    g.add_argument("--gain", required=True, help="gain file")
    b = _property(props, "bipartite", "6.5",
                  lambda a: verify_bipartite_cover(a.m, a.n, a.r, budget=a.budget).as_dict(),
                  "connected cyclic 2ev covers of K_{m,n} are bipartite drgs", "--budget")
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--n", type=int, default=4)
    b.add_argument("--r", type=int, default=2)
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
