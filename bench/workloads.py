"""The three benchmark workloads, as lists of `gaincover` CLI invocations.

Each workload is one pass: a fixed list of argv lists that the worker feeds
to `gaincover.cli.main` in one fresh interpreter. Every invocation carries
the invariants its JSON output must satisfy on any seed, and the number of
gain assignments it classifies (the numerator of `assignments_per_s`).

Building a workload imports `gaincover` and, for `classify-large`, writes
gain files, so it is part of the measured set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20240817
WORKLOADS = ("search-exhaustive", "walkreg-random", "classify-large")

# (base, group, assignments, 2ev hits, connected 2ev hits). The hit counts
# are facts about the exhaustive space, so they hold on every seed.
SEARCH_CASES = (
    ("k5", "z3", 729, 1, 0),
    ("k6", "z2", 1024, 14, 13),
    ("octahedron", "z2", 128, 2, 2),
    ("k4,4", "z2", 512, 6, 6),
    ("petersen", "z2", 64, 0, 0),
    ("k3,3", "z3", 81, 2, 2),
    ("k4", "z2xz2", 64, 1, 0),
)
SEARCH_CASES_TINY = (("k4", "z2", 8, 2, 1),)

# The criterion-10 base and group set of the acceptance suite.
WALKREG_BASES = "k4+k5+k3,3+c6+q3"
WALKREG_GROUPS = "z2+z3+z4+z2xz2"
WALKREG_SAMPLES = 20
WALKREG_TINY = ("k4", "z2", 4)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass."""

    label: str
    argv: list
    assignments: int
    seeded: bool  # its output depends on the workload seed
    check: Callable[[dict], list]  # returns the violated invariants


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _search_check(sampled, hits, connected):
    def check(out):
        problems = []
        _expect(problems, "sampled", out.get("sampled"), sampled)
        _expect(problems, "two_ev", out.get("two_ev"), hits)
        _expect(problems, "connected_two_ev", out.get("connected_two_ev"), connected)
        _expect(problems, "len(hits)", len(out.get("hits", ())), hits)
        return problems
    return check


def _walkreg_check(sampled):
    def check(out):
        problems = []
        _expect(problems, "sampled", out.get("sampled"), sampled)
        _expect(problems, "failures", out.get("failures"), [])
        _expect(problems, "verified", out.get("verified"), out.get("two_ev"))
        return problems
    return check


def _report_check(base_n, r):
    """Shape of any classify report: sizes, fibers, full spectra."""
    def check(out):
        problems = []
        _expect(problems, "base.n", out["base"]["n"], base_n)
        _expect(problems, "cover.n", out["cover"]["n"], base_n * r)
        _expect(problems, "cover.fibers", out["cover"]["fibers"], r)
        for part in ("base", "cover"):
            g = out[part]
            _expect(problems, f"{part} char_poly length", len(g["char_poly"]), g["n"] + 1)
            _expect(problems, f"{part} spectrum multiplicities",
                    sum(m for _, m in g["spectrum"]), g["n"])
        return problems
    return check


def _huang_check(n):
    """Huang's signing of Q_n lifts to a 2ev cover: lambda = 0, mu = n,
    and both new eigenvalues +-sqrt(n) have multiplicity 2^(n-1)."""
    shape = _report_check(2 ** n, 2)

    def check(out):
        problems = shape(out)
        cert = out["two_ev"]
        _expect(problems, "is_two_ev", cert["is_two_ev"], True)
        _expect(problems, "lambda", cert["lambda"], 0)
        _expect(problems, "mu", cert["mu"], n)
        _expect(problems, "mult_theta", cert["mult_theta"], 2 ** (n - 1))
        _expect(problems, "mult_tau", cert["mult_tau"], 2 ** (n - 1))
        return problems
    return check


def _search(tiny):
    cases = SEARCH_CASES_TINY if tiny else SEARCH_CASES
    return [Invocation(f"search {b}/{g}",
                       ["search", "--base", b, "--group", g, "--mode", "exhaustive"],
                       size, False, _search_check(size, hits, conn))
            for b, g, size, hits, conn in cases]


def _walkreg(seed, workdir, tiny):
    # One call per base/group pair: every pair draws its covers from the same
    # seed, so the calls classify the same covers as one call over all pairs,
    # and the calibration loop between them follows the host's speed closely.
    if tiny:
        bases, groups, samples = WALKREG_TINY
    else:
        bases, groups, samples = WALKREG_BASES, WALKREG_GROUPS, WALKREG_SAMPLES
    return [Invocation(f"verify walk-regularity {base} {group} x{samples}",
                       ["verify", "walk-regularity", "--bases", base, "--groups", group,
                        "--samples", str(samples), "--seed", str(seed), "--out", workdir],
                       samples, True, _walkreg_check(samples))
            for base in bases.split("+") for group in groups.split("+")]


def _classify(seed, workdir, tiny):
    from gaincover import families, graphs
    from gaincover.gains import GainGraph, GroupSpec, write_gain_file

    rng = random.Random(seed)

    def random_gain(base, r):
        group = GroupSpec.cyclic(r)
        return GainGraph(base, group,
                         {e: (rng.randrange(r),) for e in base.sorted_edges()})

    # A ladder of cover sizes; Huang's covers are fixed, the others are drawn
    # from the seed in this order.
    if tiny:
        ladder = [("huang-q3-z2", families.huang_signing(3), False, _huang_check(3)),
                  ("random-q3-z3", random_gain(graphs.hypercube(3), 3), True,
                   _report_check(8, 3))]
    else:
        ladder = [("huang-q5-z2", families.huang_signing(5), False, _huang_check(5)),
                  ("random-q5-z3", random_gain(graphs.hypercube(5), 3), True,
                   _report_check(32, 3)),
                  ("random-kn8,2-z4", random_gain(graphs.kneser(8, 2), 4), True,
                   _report_check(28, 4)),
                  ("huang-q6-z2", families.huang_signing(6), False, _huang_check(6))]
    out = []
    for name, gain, seeded, check in ladder:
        path = os.path.join(workdir, name + ".gain")
        with open(path, "w", newline="\n") as fh:
            fh.write(write_gain_file(gain))
        out.append(Invocation(f"classify {name}", ["classify", path], 1, seeded, check))
    return out


def build(workload, seed, workdir, tiny=False):
    """The invocations of one pass of `workload`."""
    if workload == "search-exhaustive":
        return _search(tiny)
    if workload == "walkreg-random":
        return _walkreg(seed, workdir, tiny)
    if workload == "classify-large":
        return _classify(seed, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _canonical(x, key=None):
    """JSON value with `meta` dropped, input paths reduced to their file
    name, and decimal float strings rounded to 6 places.

    Integers, booleans and other strings are kept exactly. The rounding keeps
    the digest of a numeric spectrum stable under a change of eigensolver
    whose values agree far inside the 1e-7 clustering tolerance.
    """
    if isinstance(x, dict):
        return {k: _canonical(v, k) for k, v in x.items() if k != "meta"}
    if isinstance(x, list):
        return [_canonical(v) for v in x]
    if isinstance(x, str):
        if key == "path":
            return os.path.basename(x)
        try:
            s = f"{float(x):.6f}"
        except ValueError:
            return x
        return "0.000000" if s == "-0.000000" else s
    return x


def digest(out):
    """SHA-256 of the canonical form of a CLI JSON payload."""
    text = json.dumps(_canonical(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
