"""Exhaustive and randomized search over normalized gain assignments, plus
machine-checked property harnesses for the structure theorems.

Enumeration fixes a spanning tree to the identity (every cover is reachable
from such a normalized gain), so the search space is |G|^(m-n+1) over the
co-tree edges instead of |G|^m. Assignments are decided in batches from
their gains (`fiber_two_ev`, on the n(r-1)-square matrices of the lifts'
adjacency on the fiber-sum-zero space, sized to them), and only the 2ev hits
are lifted; the walk-regularity harness audits each batch's block
decomposition from the gains too (`character_block_check`, which batches its
nr-square lift stacks itself), so it lifts only its hits as well. A
harness only decides: any falsification of a theorem property raises
FalsificationError with the offending gain attached. A genuine counterexample
would mean an implementation bug, so it must stop the run, not get logged and
skipped; the CLI writes the gain out as a reproducer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, FalsificationError, ParameterError
from .gains import CoverGraph, GainGraph, GroupSpec
from .graphs import Graph, bfs_tree, complete_bipartite, complete_graph
from .regularity import (RegularityCertificate, is_walk_regular,
                         regularity_certificate, srg_parameters)
from .spectral import (TwoEvCertificate, batch_rows, character_block_check,
                       classify_two_ev, fiber_two_ev, two_ev_certificate)

EXHAUSTIVE = "exhaustive"
RANDOM = "random"
DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class SearchSpec:
    """One search task: assignments of abelian gains to the co-tree edges.

    Exhaustive mode refuses to run when |G|^(m-n+1) exceeds the budget;
    random mode draws exactly `budget` independent assignments from `seed`.
    """

    base: Graph
    group: GroupSpec
    mode: str = EXHAUSTIVE
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ParameterError(f"unknown search mode {self.mode!r}")
        if not self.group.is_abelian:
            raise ParameterError("searches enumerate abelian gain groups only")
        if self.budget < 0:
            raise ParameterError(f"budget must be non-negative, got {self.budget}")

    def spanning_tree(self):
        return bfs_tree(self.base)

    def cotree_edges(self):
        tree = set(self.spanning_tree())
        return tuple(e for e in self.base.sorted_edges() if e not in tree)

    def exhaustive_size(self):
        return self.group.order ** len(self.cotree_edges())


@dataclass
class VerificationRecord:
    """One classified gain with its certificates and per-theorem outcomes.

    theorem_checks values are 'pass' or 'not-applicable'. When the hypotheses
    hold and the conclusion does not, the harness raises FalsificationError
    and no record is returned.
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
    records: list = field(default_factory=list)

    def as_dict(self):
        return {
            "sampled": self.sampled,
            "two_ev": self.two_ev,
            "connected_two_ev": self.connected_two_ev,
            "verified": self.verified,
            # a returned summary falsified nothing
            "failures": [],
        }


def assignment_rows(spec: SearchSpec):
    """Batches of assignments as int64 arrays of element indices, the input of
    `fiber_two_ev`.

    A row holds one index into spec.group.elements() per edge of
    spec.base.sorted_edges(); tree edges carry the identity, index 0. Exhaustive
    order is lexicographic in (co-tree edge order, group element order); random
    mode is reproducible from the seed. A batch holds at most `batch_rows(d)`
    rows, d = n(r-1) the dimension of the matrices `fiber_two_ev` squares.
    """
    edges = spec.base.sorted_edges()
    cotree = set(spec.cotree_edges())
    cols = [i for i, e in enumerate(edges) if e in cotree]
    step = batch_rows(spec.base.n * (spec.group.order - 1))
    if spec.mode == EXHAUSTIVE:
        total = spec.exhaustive_size()
        if total > spec.budget:
            # as a power: the count in decimal can pass Python's 4300-digit limit
            raise BudgetError(f"exhaustive search needs {spec.group.order}^{len(cols)} "
                              f"assignments, budget is {spec.budget}")
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
    """The gain graph of one row of `assignment_rows`, whose `GainGraph.row`
    is that row on the group's sheet table, so that its lift reads the row."""
    elements = spec.group.elements()
    gains = {e: elements[i] for e, i in zip(spec.base.sorted_edges(), row.tolist())}
    return GainGraph._checked(spec.base, spec.group, gains, (spec.group.translations, row[None]))


def _decided(spec: SearchSpec, table):
    """(rows, hit, lam) for each batch of `assignment_rows`, as `fiber_two_ev`
    decides it on table, the sheet table of spec.group.elements()."""
    for rows in assignment_rows(spec):
        yield (rows, *fiber_two_ev(spec.base, table, rows))


def _count_hit(summary: VerifySummary, f: GainGraph, lam) -> TwoEvCertificate:
    """The 2ev certificate of the hit f with fiber eigenvalue lam, counted in
    summary."""
    cert = two_ev_certificate(f, int(lam))
    summary.two_ev += 1
    summary.connected_two_ev += cert.cover_connected
    return cert


def _two_ev_hits(spec: SearchSpec, summary: VerifySummary):
    """Decide every assignment of spec, counting them and the hits in summary;
    yield (gain, certificate) for each 2ev hit, the only ones lifted."""
    table = spec.group.translations  # every element's sheet table: the group is abelian
    for rows, hit, lam in _decided(spec, table):
        summary.sampled += len(rows)
        for i in np.flatnonzero(hit).tolist():
            f = gain_of_row(spec, rows[i])
            yield f, _count_hit(summary, f, lam[i])


def run_search(spec: SearchSpec) -> VerifySummary:
    """Decide every assignment of spec; the records are the 2ev hits, each with
    its regularity certificate, and `sampled` counts the assignments decided."""
    summary = VerifySummary()
    for f, cert in _two_ev_hits(spec, summary):
        summary.records.append(VerificationRecord(
            gain=f, two_ev=cert, regularity=regularity_certificate(f.cover, cert)))
    return summary


# ---------------------------------------------------------------------------
# theorem harnesses


def verify_walk_regularity(bases, groups, budget=200, seed=0) -> VerifySummary:
    """Walk-regular bases stay walk-regular in every 2ev cover (cyclic and
    abelian alike); also audits every sample's character block decomposition
    against its spectrum. Both are decided per batch from the gains, by
    `fiber_two_ev` and `character_block_check`; only the 2ev hits and the
    audit failures are built as gain graphs, and only the hits are lifted.
    Within a sample the audit's failure comes first.
    """
    for base in bases:
        if not is_walk_regular(base):
            raise ParameterError("every base must be walk-regular")
    summary = VerifySummary()
    for base, group in itertools.product(bases, groups):
        spec = SearchSpec(base=base, group=group, mode=RANDOM, budget=budget, seed=seed)
        table = spec.group.translations
        for rows, hit, lam in _decided(spec, table):
            ok, dev = character_block_check(base, group, table, rows)
            summary.sampled += len(rows)
            for i in np.flatnonzero(~ok | hit).tolist():
                f = gain_of_row(spec, rows[i])
                if not ok[i]:
                    raise FalsificationError(
                        "block-decomposition",
                        f"character spectra deviate from lift spectrum by {dev[i]:.3g}", f)
                if not is_walk_regular(f.cover, _count_hit(summary, f, lam[i])):
                    raise FalsificationError(
                        "walk-regularity-of-2ev-covers",
                        "2ev cover of a walk-regular base is not walk regular", f)
                summary.verified += 1
    return summary


def _verify_exhaustive(base, r, budget, theorem, key, check):
    """Classify every normalized Z_r gain on base and run `check(rec)` on the
    record of each gain f with a connected 2ev lift, which carries f, its 2ev
    certificate and its lift's regularity certificate. check returns a failure
    detail, or a false value when the theorem holds; a failure raises
    FalsificationError(theorem, detail, f).
    Disconnected 2ev lifts are recorded as not-applicable under `key`.
    Refuses with BudgetError when the enumeration exceeds budget."""
    spec = SearchSpec(base=base, group=GroupSpec.cyclic(r), mode=EXHAUSTIVE,
                      budget=budget)
    summary = VerifySummary()
    for f, cert in _two_ev_hits(spec, summary):
        rec = VerificationRecord(gain=f, two_ev=cert)
        summary.records.append(rec)
        if not cert.cover_connected:
            rec.theorem_checks[key] = "not-applicable"
            continue
        rec.regularity = regularity_certificate(f.cover, cert)
        problem = check(rec)
        if problem:
            raise FalsificationError(theorem, problem, f)
        rec.theorem_checks[key] = "pass"
        summary.verified += 1
    return summary


def verify_drackn(n, r, budget=DEFAULT_BUDGET) -> VerifySummary:
    """Every connected 2ev cyclic cover of a complete graph must be a
    distance-regular antipodal cover of it (a drackn) whose antipodal classes
    are the fibers, with r * c2 = n - 2 - lambda."""

    def check(rec):
        reg = rec.regularity
        if reg.drackn is None:
            return "connected 2ev cover of a complete graph is not a drackn"
        if reg.antipodal_classes != rec.gain.cover.fibers():
            return "antipodal classes of the drackn are not the fibers"
        c2, lam = reg.drackn[2], rec.two_ev.lambda_
        if r * c2 != n - 2 - lam:
            return f"r * c2 = {r * c2} but n - 2 - lambda = {n - 2 - lam}"

    return _verify_exhaustive(complete_graph(n), r, budget, "drackn-cover-of-complete-graph",
                              "drackn", check)


def _expected_srg_cover_array(srg, r):
    k, a, c = srg.k, srg.a, srg.c
    s, rem = divmod(c, r)
    if rem:
        return None
    return ((k, k - a - 1, c - s, 1), (1, s, k - a - 1, k))


def verify_srg_cover(f: GainGraph) -> VerificationRecord:
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
        raise FalsificationError(
            "srg-cover-drg-equivalence",
            f"distance-regular={drg_holds} but a={srg.a}, lambda={cert.lambda_}", f)
    rec.theorem_checks["drg-iff-a-equals-lambda"] = "pass"
    if drg_holds:
        expected = _expected_srg_cover_array(srg, r)
        if expected is None or (arr.b, arr.c) != expected or arr.d != 4:
            raise FalsificationError(
                "srg-cover-array-formula",
                f"array {arr} does not match the forced form {expected}", f)
        rec.theorem_checks["intersection-array-formula"] = "pass"
    return rec


def verify_bipartite_cover(m, n, r, budget=DEFAULT_BUDGET) -> VerifySummary:
    """Connected 2ev cyclic covers of complete bipartite graphs force m = n
    and r | n, and the lift is bipartite distance-regular with diameter 4."""

    def check(rec):
        problems = []
        if m != n:
            problems.append(f"sides differ ({m},{n})")
        if n % r != 0:
            problems.append(f"{r} does not divide {n}")
        if not _connected_bipartite(rec.gain.cover):
            problems.append("lift is not bipartite")
        if rec.regularity.drg is None or rec.regularity.drg.d != 4:
            problems.append("lift is not distance-regular of diameter 4")
        return "; ".join(problems)

    return _verify_exhaustive(complete_bipartite(m, n), r, budget, "bipartite-drg-cover",
                              "bipartite-drg-cover", check)


def _connected_bipartite(x) -> bool:
    """Whether no edge of x, a connected graph or lift, is level from vertex 0."""
    dist = x.distance_table.dist[0]
    u, v = (x.graph if isinstance(x, CoverGraph) else x).edge_array.T
    return bool((dist[u] != dist[v]).all())
