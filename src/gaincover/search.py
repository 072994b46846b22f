"""Exhaustive and randomized search over normalized gain assignments, plus
machine-checked property harnesses for the structure theorems.

Enumeration fixes a spanning tree to the identity (every cover is reachable
from such a normalized gain), so the search space is |G|^(m-n+1) over the
co-tree edges instead of |G|^m. Any falsification of a theorem property
aborts with the offending gain attached: a genuine counterexample would mean
an implementation bug, so it must stop the run, not get logged and skipped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import BudgetError, FalsificationError, ParameterError
from .gains import GainGraph, GroupSpec, lift, write_gain_file
from .graphs import Graph, bfs_tree, complete_bipartite, complete_graph
from .regularity import (RegularityCertificate, drackn_parameters,
                         is_distance_regular, is_walk_regular,
                         regularity_certificate, srg_parameters)
from .spectral import (DEFAULT_TOL, TwoEvCertificate, char_poly,
                       character_block_check, classify_two_ev, fiber_two_ev)

EXHAUSTIVE = "exhaustive"
RANDOM = "random"


@dataclass(frozen=True)
class SearchSpec:
    """One search task: assignments of abelian gains to the co-tree edges.

    Exhaustive mode refuses to run when |G|^(m-n+1) exceeds the budget;
    random mode draws exactly `budget` independent assignments from `seed`.
    """

    base: Graph
    group: GroupSpec
    mode: str = EXHAUSTIVE
    budget: int = 1 << 20
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ParameterError(f"unknown search mode {self.mode!r}")
        if not self.group.is_abelian:
            raise ParameterError("searches enumerate abelian gain groups only")
        if self.budget < 0:
            raise ParameterError(f"budget must be non-negative, got {self.budget}")

    def spanning_tree(self):
        return bfs_tree(self.base, 0)

    def cotree_edges(self):
        tree = set(self.spanning_tree())
        return tuple(e for e in self.base.sorted_edges() if e not in tree)

    def exhaustive_size(self):
        return self.group.order ** len(self.cotree_edges())


@dataclass
class VerificationRecord:
    """One classified gain with its certificates and per-theorem outcomes.

    theorem_checks values are 'pass', 'fail', or 'not-applicable'; 'fail' only
    appears when the hypotheses held and the conclusion did not, and always
    rides along with a raised FalsificationError.
    """

    gain: GainGraph
    two_ev: TwoEvCertificate
    regularity: RegularityCertificate | None = None
    theorem_checks: dict = field(default_factory=dict)


@dataclass
class VerifySummary:
    sampled: int = 0
    two_ev: int = 0
    connected_two_ev: int = 0
    verified: int = 0
    failures: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def as_dict(self):
        return {
            "sampled": self.sampled,
            "two_ev": self.two_ev,
            "connected_two_ev": self.connected_two_ev,
            "verified": self.verified,
            "failures": list(self.failures),
        }


def enumerate_gains(spec: SearchSpec):
    """Stream of gain graphs: tree edges identity, co-tree edges assigned.

    Exhaustive order is lexicographic in (co-tree edge order, group element
    order); random mode is reproducible from the seed.
    """
    tree = spec.spanning_tree()
    cotree = spec.cotree_edges()
    ident = spec.group.identity()
    fixed = {e: ident for e in tree}

    if spec.mode == EXHAUSTIVE:
        total = spec.exhaustive_size()
        if total > spec.budget:
            raise BudgetError(f"exhaustive search needs {total} assignments, "
                              f"budget is {spec.budget}")
        elements = spec.group.elements()
        for combo in itertools.product(elements, repeat=len(cotree)):
            gains = dict(fixed)
            gains.update(zip(cotree, combo))
            yield GainGraph(spec.base, spec.group, gains)
    else:
        rng = random.Random(spec.seed)
        orders = spec.group.orders
        for _ in range(spec.budget):
            gains = dict(fixed)
            for e in cotree:
                gains[e] = tuple(rng.randrange(r) for r in orders)
            yield GainGraph(spec.base, spec.group, gains)


def search_two_ev(spec: SearchSpec):
    """Classify every enumerated gain; return records for the 2ev hits only."""
    hits = []
    for f in enumerate_gains(spec):
        cover = lift(f)
        cert = fiber_two_ev(f, cover)
        if cert is not None:
            reg = regularity_certificate(cover, cert)
            hits.append(VerificationRecord(gain=f, two_ev=cert, regularity=reg))
    return hits


def _fail(theorem, detail, gain, reproducer_dir=None, summary=None):
    if summary is not None:
        summary.failures.append(detail)
    if reproducer_dir is not None:
        path = write_reproducer(theorem, gain, reproducer_dir)
        detail = f"{detail} (reproducer: {path})"
    raise FalsificationError(theorem, detail, gain)


def write_reproducer(theorem, gain, directory):
    import os
    slug = theorem.replace(".", "_").replace(" ", "-")
    path = os.path.join(str(directory), f"falsification_{slug}.gain")
    with open(path, "w", newline="\n") as fh:
        fh.write(write_gain_file(gain))
    return path


# ---------------------------------------------------------------------------
# theorem harnesses


def verify_walk_regularity(bases, groups, budget=200, seed=0, tol=DEFAULT_TOL,
                           reproducer_dir=None) -> VerifySummary:
    """Walk-regular bases stay walk-regular in every 2ev cover (cyclic and
    abelian alike); also checks the character block decomposition of every
    sampled lift against its spectrum.
    """
    for base in bases:
        if not is_walk_regular(base):
            raise ParameterError("every base must be walk-regular")
    summary = VerifySummary()
    for base in bases:
        for group in groups:
            spec = SearchSpec(base=base, group=group, mode=RANDOM,
                              budget=budget, seed=seed)
            for f in enumerate_gains(spec):
                cover = lift(f)
                summary.sampled += 1
                ok, dev = character_block_check(f, tol, cover)
                if not ok:
                    _fail("block-decomposition",
                          f"character spectra deviate from lift spectrum by {dev:.3g}",
                          f, reproducer_dir, summary)
                cert = fiber_two_ev(f, cover)
                if cert is None:
                    continue
                summary.two_ev += 1
                if cert.cover_connected:
                    summary.connected_two_ev += 1
                if not is_walk_regular(cover.graph):
                    _fail("walk-regularity-of-2ev-covers",
                          "2ev cover of a walk-regular base is not walk regular",
                          f, reproducer_dir, summary)
                summary.verified += 1
    return summary


def _verify_exhaustive(base, r, budget, theorem, key, check, reproducer_dir):
    """Classify every normalized Z_r gain on base and run `check(cover, cert)`
    on each connected 2ev lift. check returns a failure detail, or a false
    value when the theorem holds; a failure aborts with a reproducer.
    Disconnected 2ev lifts are recorded as not-applicable under `key`."""
    spec = SearchSpec(base=base, group=GroupSpec.cyclic(r), mode=EXHAUSTIVE,
                      budget=budget if budget is not None else r ** base.m)
    summary = VerifySummary()
    for f in enumerate_gains(spec):
        cover = lift(f)
        cert = fiber_two_ev(f, cover)
        summary.sampled += 1
        if cert is None:
            continue
        summary.two_ev += 1
        rec = VerificationRecord(gain=f, two_ev=cert)
        summary.records.append(rec)
        if not cert.cover_connected:
            rec.theorem_checks[key] = "not-applicable"
            continue
        summary.connected_two_ev += 1
        problem = check(cover, cert)
        if problem:
            rec.theorem_checks[key] = "fail"
            _fail(theorem, problem, f, reproducer_dir, summary)
        rec.theorem_checks[key] = "pass"
        rec.regularity = regularity_certificate(cover, cert)
        summary.verified += 1
    return summary


def verify_drackn(n, r, budget=None, reproducer_dir=None) -> VerifySummary:
    """Every connected 2ev cyclic cover of a complete graph must be a
    distance-regular antipodal cover of it, with consistent parameters."""

    def check(cover, cert):
        if drackn_parameters(cover, cert) is None:
            return "connected 2ev cover of a complete graph is not a drackn"

    return _verify_exhaustive(complete_graph(n), r, budget, "drackn-cover-of-complete-graph",
                              "drackn", check, reproducer_dir)


def _expected_srg_cover_array(srg, r):
    k, a, c = srg.k, srg.a, srg.c
    s, rem = divmod(c, r)
    if rem:
        return None
    return ((k, k - a - 1, c - s, 1), (1, s, k - a - 1, k))


def verify_srg_cover(f: GainGraph, reproducer_dir=None) -> VerificationRecord:
    """Distance-regularity of a connected 2ev cyclic cover over a strongly
    regular base holds iff a = lambda; when it holds, the intersection array
    is forced exactly. Gains whose hypotheses fail (non-SRG base, non-cyclic
    group, not 2ev, disconnected cover) are recorded as not-applicable."""
    cyclic = f.group.is_abelian and len(f.group.orders) == 1
    srg = srg_parameters(f.base) if cyclic else None
    cover = lift(f)
    cert = classify_two_ev(f, cover)
    rec = VerificationRecord(gain=f, two_ev=cert)
    if srg is None or not cert.is_two_ev or not cert.cover_connected:
        rec.theorem_checks["drg-iff-a-equals-lambda"] = "not-applicable"
        return rec
    r = f.group.orders[0]
    arr = is_distance_regular(cover.graph)
    drg_holds = arr is not None
    a_equals_lambda = srg.a == cert.lambda_
    if drg_holds != a_equals_lambda:
        rec.theorem_checks["drg-iff-a-equals-lambda"] = "fail"
        _fail("srg-cover-drg-equivalence",
              f"distance-regular={drg_holds} but a={srg.a}, lambda={cert.lambda_}",
              f, reproducer_dir)
    rec.theorem_checks["drg-iff-a-equals-lambda"] = "pass"
    if drg_holds:
        expected = _expected_srg_cover_array(srg, r)
        if expected is None or (arr.b, arr.c) != expected or arr.d != 4:
            rec.theorem_checks["intersection-array-formula"] = "fail"
            _fail("srg-cover-array-formula",
                  f"array {arr} does not match the forced form {expected}",
                  f, reproducer_dir)
        rec.theorem_checks["intersection-array-formula"] = "pass"
    rec.regularity = regularity_certificate(cover, cert)
    return rec


def verify_bipartite_cover(m, n, r, budget=None, reproducer_dir=None) -> VerifySummary:
    """Connected 2ev cyclic covers of complete bipartite graphs force m = n
    and r | n, and the lift is bipartite distance-regular with diameter 4."""

    def check(cover, cert):
        problems = []
        if m != n:
            problems.append(f"sides differ ({m},{n})")
        if n % r != 0:
            problems.append(f"{r} does not divide {n}")
        if not _char_poly_symmetric(cover.graph):
            problems.append("lift spectrum is not symmetric about 0")
        arr = is_distance_regular(cover.graph)
        if arr is None or arr.d != 4:
            problems.append("lift is not distance-regular of diameter 4")
        return "; ".join(problems)

    return _verify_exhaustive(complete_bipartite(m, n), r, budget, "bipartite-drg-cover",
                              "bipartite-drg-cover", check, reproducer_dir)


def _char_poly_symmetric(g: Graph) -> bool:
    """Exact bipartiteness witness: p(-x) = +-p(x), i.e. only coefficients
    with the parity of the degree are nonzero."""
    p = char_poly(g)
    deg = p.degree
    return all(c == 0 for i, c in enumerate(p.coeffs) if (i - deg) % 2)
