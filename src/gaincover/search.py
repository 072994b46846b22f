"""Exhaustive and randomized search over normalized gain assignments, plus
machine-checked property harnesses for the structure theorems.

Enumeration fixes a spanning tree to the identity (every cover is reachable
from such a normalized gain), so the search space is |G|^(m-n+1) over the
co-tree edges instead of |G|^m. Assignments are decided in batches from
their gains (`fiber_two_ev`), and only the 2ev hits are lifted. Any
falsification of a theorem property aborts with the offending gain attached:
a genuine counterexample would mean an implementation bug, so it must stop
the run, not get logged and skipped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, FalsificationError, ParameterError
from .gains import GainGraph, GroupSpec, sheet_table, write_gain_file
from .graphs import Graph, bfs_tree, complete_bipartite, complete_graph
from .regularity import (RegularityCertificate, is_walk_regular,
                         regularity_certificate, srg_parameters)
from .spectral import (DEFAULT_TOL, TwoEvCertificate, batch_rows,
                       character_block_check, check_tol, classify_two_ev,
                       fiber_two_ev, two_ev_certificate)

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


def assignment_rows(spec: SearchSpec):
    """Batches of assignments as int64 arrays of element indices, the input of
    `fiber_two_ev`.

    A row holds one index into spec.group.elements() per edge of
    spec.base.sorted_edges(); tree edges carry the identity, index 0. Exhaustive
    order is lexicographic in (co-tree edge order, group element order); random
    mode is reproducible from the seed. A batch holds at most `batch_rows` rows.
    """
    edges = spec.base.sorted_edges()
    tree = set(spec.spanning_tree())
    cols = [i for i, e in enumerate(edges) if e not in tree]
    step = batch_rows(spec.base.n * spec.group.order)
    if spec.mode == EXHAUSTIVE:
        total = spec.exhaustive_size()
        if total > spec.budget:
            raise BudgetError(f"exhaustive search needs {total} assignments, "
                              f"budget is {spec.budget}")
        combos = itertools.product(range(spec.group.order), repeat=len(cols))
        chunks = iter(lambda: list(itertools.islice(combos, step)), [])
    else:
        rng = random.Random(spec.seed)
        orders = spec.group.orders

        def draw():
            # the index of a residue tuple is its mixed-radix value
            idx = 0
            for r in orders:
                idx = idx * r + rng.randrange(r)
            return idx

        chunks = ([[draw() for _ in cols] for _ in range(min(step, spec.budget - lo))]
                  for lo in range(0, spec.budget, step))
    for chunk in chunks:
        rows = np.zeros((len(chunk), len(edges)), dtype=np.int64)
        rows[:, cols] = chunk
        yield rows


def gain_of_row(spec: SearchSpec, row) -> GainGraph:
    """The gain graph of one row of `assignment_rows`."""
    elements = spec.group.elements()
    return GainGraph(spec.base, spec.group,
                     {e: elements[i] for e, i in zip(spec.base.sorted_edges(), row.tolist())})


def enumerate_gains(spec: SearchSpec):
    """Stream of gain graphs, one per row of `assignment_rows`, in its order."""
    for rows in assignment_rows(spec):
        for row in rows:
            yield gain_of_row(spec, row)


def _decided(spec: SearchSpec):
    """(rows, hit, lam) for each batch of `assignment_rows`, as `fiber_two_ev`
    decides it."""
    table = sheet_table(spec.group, spec.group.elements())
    for rows in assignment_rows(spec):
        yield (rows, *fiber_two_ev(spec.base, table, rows))


def _two_ev_hits(spec: SearchSpec, summary: VerifySummary):
    """Decide every assignment of spec, counting them and the hits in summary;
    yield (gain, certificate) for each 2ev hit, the only ones lifted."""
    for rows, hit, lam in _decided(spec):
        summary.sampled += len(rows)
        for i in np.flatnonzero(hit).tolist():
            f = gain_of_row(spec, rows[i])
            cert = two_ev_certificate(f, int(lam[i]))
            summary.two_ev += 1
            summary.connected_two_ev += cert.cover_connected
            yield f, cert


def run_search(spec: SearchSpec) -> VerifySummary:
    """Decide every assignment of spec; the records are the 2ev hits, each with
    its regularity certificate, and `sampled` counts the assignments decided."""
    summary = VerifySummary()
    for f, cert in _two_ev_hits(spec, summary):
        summary.records.append(VerificationRecord(
            gain=f, two_ev=cert, regularity=regularity_certificate(f.cover, cert)))
    return summary


def search_two_ev(spec: SearchSpec):
    """The 2ev hit records of `run_search`."""
    return run_search(spec).records


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
    sampled lift against its spectrum, so every sample is lifted, not only the
    2ev hits. Raises ParameterError unless tol is finite and positive.
    """
    check_tol(tol)
    for base in bases:
        if not is_walk_regular(base):
            raise ParameterError("every base must be walk-regular")
    summary = VerifySummary()
    for base, group in itertools.product(bases, groups):
        spec = SearchSpec(base=base, group=group, mode=RANDOM, budget=budget, seed=seed)
        for rows, hit, lam in _decided(spec):
            for row, two_ev, lam_b in zip(rows, hit.tolist(), lam.tolist()):
                f = gain_of_row(spec, row)
                summary.sampled += 1
                ok, dev = character_block_check(f, tol)
                if not ok:
                    _fail("block-decomposition",
                          f"character spectra deviate from lift spectrum by {dev:.3g}",
                          f, reproducer_dir, summary)
                if not two_ev:
                    continue
                cert = two_ev_certificate(f, lam_b)
                summary.two_ev += 1
                summary.connected_two_ev += cert.cover_connected
                if not is_walk_regular(f.cover, cert):
                    _fail("walk-regularity-of-2ev-covers",
                          "2ev cover of a walk-regular base is not walk regular",
                          f, reproducer_dir, summary)
                summary.verified += 1
    return summary


def _verify_exhaustive(base, r, budget, theorem, key, check, reproducer_dir):
    """Classify every normalized Z_r gain on base and run `check(f, reg)` on
    each gain f with a connected 2ev lift, with reg the lift's regularity
    certificate. check returns a failure detail, or a false value when the
    theorem holds; a failure aborts with a reproducer. Disconnected 2ev lifts
    are recorded as not-applicable under `key`."""
    spec = SearchSpec(base=base, group=GroupSpec.cyclic(r), mode=EXHAUSTIVE,
                      budget=budget if budget is not None else r ** base.m)
    summary = VerifySummary()
    for f, cert in _two_ev_hits(spec, summary):
        rec = VerificationRecord(gain=f, two_ev=cert)
        summary.records.append(rec)
        if not cert.cover_connected:
            rec.theorem_checks[key] = "not-applicable"
            continue
        rec.regularity = regularity_certificate(f.cover, cert)
        problem = check(f, rec.regularity)
        if problem:
            rec.theorem_checks[key] = "fail"
            _fail(theorem, problem, f, reproducer_dir, summary)
        rec.theorem_checks[key] = "pass"
        summary.verified += 1
    return summary


def verify_drackn(n, r, budget=None, reproducer_dir=None) -> VerifySummary:
    """Every connected 2ev cyclic cover of a complete graph must be a
    distance-regular antipodal cover of it, with consistent parameters."""

    def check(f, reg):
        if reg.drackn is None:
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
    cert = classify_two_ev(f)
    rec = VerificationRecord(gain=f, two_ev=cert)
    if srg is None or not cert.is_two_ev or not cert.cover_connected:
        rec.theorem_checks["drg-iff-a-equals-lambda"] = "not-applicable"
        return rec
    r = f.group.orders[0]
    rec.regularity = regularity_certificate(f.cover, cert)
    arr = rec.regularity.drg
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
    return rec


def verify_bipartite_cover(m, n, r, budget=None, reproducer_dir=None) -> VerifySummary:
    """Connected 2ev cyclic covers of complete bipartite graphs force m = n
    and r | n, and the lift is bipartite distance-regular with diameter 4."""

    def check(f, reg):
        problems = []
        if m != n:
            problems.append(f"sides differ ({m},{n})")
        if n % r != 0:
            problems.append(f"{r} does not divide {n}")
        if not _connected_bipartite(f.cover.graph):
            problems.append("lift is not bipartite")
        if reg.drg is None or reg.drg.d != 4:
            problems.append("lift is not distance-regular of diameter 4")
        return "; ".join(problems)

    return _verify_exhaustive(complete_bipartite(m, n), r, budget, "bipartite-drg-cover",
                              "bipartite-drg-cover", check, reproducer_dir)


def _connected_bipartite(g: Graph) -> bool:
    """Bipartiteness of a connected graph: no edge joins two vertices at the
    same distance from vertex 0 (read off `Graph.distance_table`)."""
    dist = g.distance_table.dist[0]
    return all(dist[u] != dist[v] for u, v in g.edges)
