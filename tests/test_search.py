import dataclasses
import os
import sys

import numpy as np
import pytest

from gaincover import (GainGraph, GroupSpec, char_poly, complete_bipartite,
                       complete_graph, cycle, hypercube, lift, octahedron,
                       parse_gain_file, petersen, write_gain_file)
from gaincover import spectral
from gaincover.errors import BudgetError, FalsificationError, ParameterError
from gaincover import cli, gains, graphs, regularity, search
from gaincover.families import butson_gain, fourier_butson, huang_signing, k3n_nonexample
from gaincover.regularity import two_ev_divisibility_obstruction
from gaincover.search import (EXHAUSTIVE, RANDOM, SearchSpec, run_search,
                              verify_bipartite_cover, verify_drackn, verify_srg_cover,
                              verify_walk_regularity)

from conftest import (edge_lift, intersection_array, lift_fiber_two_ev,
                      plant_audit_failures, spec_gains)

# the seven search cases of the benchmark's search-exhaustive workload
BENCH_SEARCHES = ((complete_graph(5), GroupSpec.cyclic(3)),
                  (complete_graph(6), GroupSpec.cyclic(2)),
                  (octahedron(), GroupSpec.cyclic(2)),
                  (complete_bipartite(4, 4), GroupSpec.cyclic(2)),
                  (petersen(), GroupSpec.cyclic(2)),
                  (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
                  (complete_graph(4), GroupSpec.abelian(2, 2)))


def test_exhaustive_counts():
    assert len(spec_gains(SearchSpec(complete_graph(4), GroupSpec.cyclic(2)))) == 8
    assert len(spec_gains(SearchSpec(petersen(), GroupSpec.cyclic(2)))) == 64
    assert len(spec_gains(SearchSpec(complete_graph(5), GroupSpec.cyclic(2)))) == 64
    assert SearchSpec(complete_graph(4), GroupSpec.cyclic(3)).exhaustive_size() == 27


def test_exhaustive_is_duplicate_free_and_tree_fixed():
    spec = SearchSpec(complete_graph(4), GroupSpec.cyclic(3))
    seen = set()
    tree = set(spec.spanning_tree())
    for f in spec_gains(spec):
        key = tuple(sorted(f.gains.items()))
        assert key not in seen
        seen.add(key)
        assert all(f.gains[e] == (0,) for e in tree)
    assert len(seen) == 27


def test_budget_refusal():
    spec = SearchSpec(petersen(), GroupSpec.cyclic(2), budget=10)
    with pytest.raises(BudgetError):
        spec_gains(spec)


def test_negative_budget_rejected():
    for mode in (EXHAUSTIVE, RANDOM):
        with pytest.raises(ParameterError, match="non-negative"):
            SearchSpec(complete_graph(4), GroupSpec.cyclic(2), mode=mode, budget=-1)
    assert spec_gains(SearchSpec(complete_graph(4), GroupSpec.cyclic(2),
                                 mode=RANDOM, budget=0)) == []


def test_random_mode_reproducible():
    def stream(seed):
        spec = SearchSpec(petersen(), GroupSpec.abelian(2, 2), mode=RANDOM,
                          budget=20, seed=seed)
        return [tuple(sorted(f.gains.items())) for f in spec_gains(spec)]

    assert stream(42) == stream(42)
    assert stream(42) != stream(43)


def test_search_requires_abelian():
    with pytest.raises(ParameterError):
        SearchSpec(complete_graph(4), GroupSpec.permutation(3))


def test_petersen_has_no_two_ev_signings():
    hits = run_search(SearchSpec(petersen(), GroupSpec.cyclic(2))).records
    assert hits == []
    assert two_ev_divisibility_obstruction(petersen(), 2)


def test_k4_search_finds_cube_cover():
    hits = run_search(SearchSpec(complete_graph(4), GroupSpec.cyclic(2))).records
    assert len(hits) == 2  # the balanced double plus the cube cover
    connected = [h for h in hits if h.two_ev.cover_connected]
    assert len(connected) == 1
    assert char_poly(lift(connected[0].gain).graph) == char_poly(hypercube(3))
    assert connected[0].regularity.drackn == (4, 2, 2)


def test_connected_two_ev_hits_have_mu_equal_valency():
    for group in (GroupSpec.cyclic(2), GroupSpec.cyclic(3)):
        for rec in run_search(SearchSpec(complete_graph(4), group)).records:
            if rec.two_ev.cover_connected:
                assert rec.two_ev.mu == 3


def test_exhaustive_order_is_lexicographic():
    spec = SearchSpec(complete_graph(4), GroupSpec.cyclic(3))
    cotree = spec.cotree_edges()
    streams = [tuple(f.gains[e] for e in cotree) for f in spec_gains(spec)]
    assert streams == sorted(streams)


def test_verify_drackn_k4_k5():
    s = verify_drackn(4, 2)
    assert s.as_dict() == {"sampled": 8, "two_ev": 2, "connected_two_ev": 1,
                           "verified": 1, "failures": []}
    s = verify_drackn(5, 2)
    assert s.sampled == 64 and s.verified == s.connected_two_ev
    s = verify_drackn(4, 3)
    assert s.sampled == 27
    # every connected hit carries (n, r, t) with the counted t
    for rec in s.records:
        if rec.theorem_checks.get("drackn") == "pass":
            assert rec.regularity.drackn[0] == 4 and rec.regularity.drackn[1] == 3


def test_k5_connected_hit_is_the_crown_graph():
    # the unique connected 2ev double of K5 is K_{5,5} minus a perfect
    # matching, an antipodal (5,2,3) cover; build the crown independently
    from gaincover import Graph
    crown = Graph(10, [(i, 5 + j) for i in range(5) for j in range(5) if i != j])
    s = verify_drackn(5, 2)
    passed = [r for r in s.records if r.theorem_checks.get("drackn") == "pass"]
    assert len(passed) == 1
    rec = passed[0]
    assert rec.regularity.drackn == (5, 2, 3)
    assert rec.two_ev.lambda_ == -3
    assert (3 - rec.two_ev.lambda_) // 2 == 3  # t = (a - lambda)/r with a = 3
    assert char_poly(lift(rec.gain).graph) == char_poly(crown)


def test_verify_walk_regularity_small():
    s = verify_walk_regularity([complete_graph(4)], [GroupSpec.cyclic(2)],
                               budget=40, seed=3)
    assert s.sampled == 40
    assert s.verified == s.two_ev > 0


def test_verify_walk_regularity_rejects_irregular_base():
    from gaincover import Graph
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ParameterError):
        verify_walk_regularity([path], [GroupSpec.cyclic(2)], budget=5)


def test_verify_srg_cover_butson3():
    rec = verify_srg_cover(butson_gain(fourier_butson(3)))
    assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "pass"
    assert rec.theorem_checks["intersection-array-formula"] == "pass"
    assert rec.regularity.drg.d == 4


def test_verify_srg_cover_not_applicable():
    # the signed K6 non-example is not 2ev, so the equivalence has no bite
    f = k3n_nonexample(2)
    rec = verify_srg_cover(f)
    assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "not-applicable"


def test_verify_srg_cover_non_srg_base_not_applicable():
    bad = GainGraph(cycle(5), GroupSpec.cyclic(2),
                    {e: (0,) for e in cycle(5).edges})
    rec = verify_srg_cover(bad)
    assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "not-applicable"


def test_octahedron_equivalence_audit():
    hits = run_search(SearchSpec(octahedron(), GroupSpec.cyclic(2))).records
    assert all(h.two_ev.cover_connected for h in hits)
    assert len(hits) > 0
    a = 2  # common neighbors of adjacent octahedron vertices
    for h in hits:
        rec = verify_srg_cover(h.gain)
        assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "pass"
        drg = rec.regularity.drg if rec.regularity else None
        assert (drg is not None) == (h.two_ev.lambda_ == a)


def test_k33_z3_hits_all_pass_srg_equivalence():
    # complete bipartite bases force lambda = 0 = a, so every connected 2ev
    # hit must sit on the distance-regular side with the forced array
    from gaincover import complete_bipartite
    hits = run_search(SearchSpec(complete_bipartite(3, 3), GroupSpec.cyclic(3))).records
    connected = [h for h in hits if h.two_ev.cover_connected]
    assert connected
    for h in connected:
        assert h.two_ev.lambda_ == 0
        rec = verify_srg_cover(h.gain)
        assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "pass"
        assert rec.theorem_checks["intersection-array-formula"] == "pass"
        assert (rec.regularity.drg.b, rec.regularity.drg.c) == ((3, 2, 2, 1), (1, 1, 2, 3))


def test_verify_bipartite_cover():
    s = verify_bipartite_cover(2, 2, 2)
    assert s.sampled == 2 and s.two_ev == 1 and s.verified == 1
    s = verify_bipartite_cover(2, 3, 2)
    assert s.connected_two_ev == 0
    s = verify_bipartite_cover(3, 3, 2)
    assert s.connected_two_ev == 0


def char_poly_parity_bipartite(g):
    """Bipartiteness witness from the exact spectrum (test-local oracle): the
    spectrum is symmetric about 0, i.e. only the coefficients of the char poly
    with the parity of its degree are nonzero."""
    p = char_poly(g)
    return all(c == 0 for i, c in enumerate(p.coeffs) if (i - p.degree) % 2)


def test_bipartite_table_read_matches_the_char_poly_parity():
    verdicts = {}
    for base, r in [(complete_bipartite(2, 2), 2), (complete_bipartite(3, 3), 3),
                    (complete_bipartite(4, 4), 2), (octahedron(), 2), (complete_graph(6), 2)]:
        hits = run_search(SearchSpec(base, GroupSpec.cyclic(r))).records
        lifts = [lift(rec.gain).graph for rec in hits if rec.two_ev.cover_connected]
        got = [search._connected_bipartite(g) for g in lifts]
        assert got == [char_poly_parity_bipartite(g) for g in lifts]
        verdicts[base.n, base.m] = got
    # every connected hit over K_{m,m} is bipartite; over the octahedron none
    # is, and over K6 only the crown graph K_{6,6} minus a perfect matching
    assert verdicts == {(4, 4): [True], (6, 9): [True] * 2, (8, 16): [True] * 6,
                        (6, 12): [False] * 2, (6, 15): [False] * 12 + [True]}
    assert not search._connected_bipartite(cycle(5))
    assert search._connected_bipartite(cycle(6))


def test_verify_bipartite_reports_a_non_bipartite_lift(monkeypatch):
    monkeypatch.setattr(search, "_connected_bipartite", lambda g: False)
    with pytest.raises(FalsificationError) as info:
        verify_bipartite_cover(2, 2, 2)
    assert info.value.detail == "lift is not bipartite"


def test_no_verdict_takes_the_char_poly_of_a_lift(monkeypatch):
    # the char polys taken, cache cleared, are of bases only: a graph's by
    # either route, and an integer matrix's
    sizes = []
    real_graph, real_matrix = spectral._char_poly_and_distinct, spectral.char_poly_int_matrix

    def recording_graph(g):
        sizes.append(g.n)
        return real_graph(g)

    def recording_matrix(a):
        sizes.append(len(a))
        return real_matrix(a)

    monkeypatch.setattr(spectral, "_char_poly_and_distinct", recording_graph)
    monkeypatch.setattr(spectral, "char_poly_int_matrix", recording_matrix)

    def largest(run):
        real_graph.cache_clear()
        sizes.clear()
        run()
        return max(sizes, default=0)

    for base, group in BENCH_SEARCHES:
        assert largest(lambda: run_search(SearchSpec(base, group))) <= base.n
    assert largest(lambda: verify_bipartite_cover(4, 4, 2)) <= 8
    assert largest(lambda: verify_drackn(6, 2)) <= 6
    bases = [complete_graph(4), cycle(6), complete_bipartite(3, 3)]
    groups = [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.abelian(2, 2)]
    summary = verify_walk_regularity(bases, groups, budget=8, seed=1)
    assert summary.two_ev > 0
    assert largest(lambda: verify_walk_regularity(bases, groups, budget=8, seed=1)) <= 6
    f = butson_gain(fourier_butson(3))
    cert = spectral.classify_two_ev(f)
    assert cert.is_two_ev and cert.cover_connected
    assert largest(lambda: regularity.regularity_certificate(f.cover, cert)) <= f.base.n


@pytest.mark.parametrize("run_harness, patched, theorem, key, detail", [
    (lambda: verify_drackn(4, 2), "is_distance_regular",
     "drackn-cover-of-complete-graph", "drackn",
     "connected 2ev cover of a complete graph is not a drackn"),
    (lambda: verify_bipartite_cover(2, 2, 2), "is_distance_regular",
     "bipartite-drg-cover", "bipartite-drg-cover",
     "lift is not distance-regular of diameter 4"),
])
def test_exhaustive_harness_failure_path(monkeypatch, run_harness, patched, theorem, key,
                                         detail):
    # force the per-theorem check to fail on the one connected 2ev hit, which
    # the raised error carries as its witness
    monkeypatch.setattr(regularity, patched, lambda *args: None)
    with pytest.raises(FalsificationError) as info:
        run_harness()
    assert (info.value.theorem, info.value.detail) == (theorem, detail)
    monkeypatch.undo()
    passed = [rec.gain for rec in run_harness().records if rec.theorem_checks == {key: "pass"}]
    assert passed == [info.value.gain]


@pytest.mark.parametrize("field, value, detail", [
    ("antipodal_classes", ((0, 2), (1, 3), (4, 6), (5, 7)),
     "antipodal classes of the drackn are not the fibers"),
    ("drackn", (4, 2, 1), "r * c2 = 2 but n - 2 - lambda = 4"),
])
def test_drackn_cover_conditions_each_falsify(monkeypatch, field, value, detail):
    # the one connected 2ev double of K4 is Q3, a (4, 2, 2) drackn whose
    # classes are the fibers and whose lambda is -2; plant one wrong fact
    [witness] = [rec.gain for rec in verify_drackn(4, 2).records
                 if rec.theorem_checks == {"drackn": "pass"}]
    real = search.regularity_certificate

    def planted(g, cert=None):
        return dataclasses.replace(real(g, cert), **{field: value})

    monkeypatch.setattr(search, "regularity_certificate", planted)
    with pytest.raises(FalsificationError) as info:
        verify_drackn(4, 2)
    assert (info.value.theorem, info.value.detail) == ("drackn-cover-of-complete-graph", detail)
    assert info.value.gain == witness


def test_exhaustive_harnesses_default_to_the_search_budget(monkeypatch):
    # K8 over Z3 has 3^21 normalized assignments: refused before any is decided
    decided = []
    monkeypatch.setattr(search, "fiber_two_ev", lambda *args: decided.append(args))
    with pytest.raises(BudgetError, match=r"needs 3\^21 assignments, budget is 1048576"):
        verify_drackn(8, 3)
    with pytest.raises(BudgetError, match="budget is 1048576"):
        verify_bipartite_cover(7, 7, 2)
    assert decided == []


def test_falsification_reproducer(tmp_path):
    f = butson_gain(fourier_butson(2))
    path = cli.write_reproducer("some-property", f, tmp_path)
    assert os.path.exists(path)
    with open(path) as fh:
        assert parse_gain_file(fh.read()) == f
    err = FalsificationError("some-property", "details here", gain=f)
    assert err.theorem == "some-property"
    assert err.gain is f


# ---------------------------------------------------------------------------
# batched decisions: batch boundaries, lifts of hits only, the census


def _records(hits):
    return [(h.gain, h.two_ev, h.regularity) for h in hits]


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_batch_size_does_not_change_the_hits(monkeypatch, rows):
    cases = [(complete_graph(6), GroupSpec.cyclic(2)), (complete_graph(5), GroupSpec.cyclic(3)),
             (complete_graph(4), GroupSpec.abelian(2, 2)),
             (complete_bipartite(3, 3), GroupSpec.cyclic(3))]
    want = [_records(run_search(SearchSpec(b, g)).records) for b, g in cases]
    walk = verify_walk_regularity([complete_graph(4)], [GroupSpec.cyclic(3)], budget=50, seed=2)
    drackn = verify_drackn(5, 2)
    for (base, group), hits in zip(cases, want):
        # a batch's stack is d-square, d = n(r-1), the dimension of A on W
        monkeypatch.setattr(spectral, "BATCH_ENTRIES", rows * (base.n * (group.order - 1)) ** 2)
        spec = SearchSpec(base, group)
        assert {len(b) for b in search.assignment_rows(spec)} <= {rows, spec.exhaustive_size() % rows}
        assert _records(run_search(spec).records) == hits
        # the kernel batches a longer input itself
        table = gains.sheet_table(group, group.elements())
        all_rows = np.concatenate(list(search.assignment_rows(spec)))
        hit, lam = spectral.fiber_two_ev(base, table, all_rows)
        assert int(hit.sum()) == len(hits)
    monkeypatch.setattr(spectral, "BATCH_ENTRIES", rows * 5 ** 2)
    patched = verify_drackn(5, 2)
    assert patched.as_dict() == drackn.as_dict()
    assert [r.two_ev for r in patched.records] == [r.two_ev for r in drackn.records]
    monkeypatch.setattr(spectral, "BATCH_ENTRIES", rows * 8 ** 2)
    assert verify_walk_regularity([complete_graph(4)], [GroupSpec.cyclic(3)], budget=50,
                                  seed=2).as_dict() == walk.as_dict()


def test_batches_stay_within_the_entry_cap():
    for base, group in [(complete_graph(6), GroupSpec.cyclic(3)), (petersen(), GroupSpec.cyclic(2)),
                        (hypercube(3), GroupSpec.cyclic(2))]:
        n = base.n * (group.order - 1)  # the dimension of the kernel's stack
        spec = SearchSpec(base, group, mode=RANDOM, budget=1000)
        for rows in search.assignment_rows(spec):
            assert len(rows) * n * n <= spectral.BATCH_ENTRIES


@pytest.fixture
def built_lifts(monkeypatch):
    """The gain graphs lifted while the test runs."""
    lifted = []
    real = gains.lift

    def counting_lift(f):
        lifted.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("gaincover") and getattr(module, "lift", None) is real:
            monkeypatch.setattr(module, "lift", counting_lift)
    return lifted


def test_search_lifts_only_the_hits(built_lifts):
    summary = run_search(SearchSpec(complete_graph(6), GroupSpec.cyclic(2)))
    assert summary.sampled == 1024 and summary.two_ev == 14
    assert built_lifts == [h.gain for h in summary.records]
    built_lifts.clear()
    s = verify_drackn(5, 2)
    assert len(built_lifts) == s.two_ev == 2


def test_a_report_and_a_harness_lift_their_gain_once(built_lifts):
    # the certificate, the regularity verdicts and the report all read
    # GainGraph.cover
    f = huang_signing(4)
    report = cli.gain_report(f)
    assert report["two_ev"]["is_two_ev"] and report["cover"]["n"] == 32
    assert built_lifts == [f]
    built_lifts.clear()
    g = butson_gain(fourier_butson(3))
    rec = verify_srg_cover(g)
    assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "pass"
    assert built_lifts == [g]


# the bases and groups of acceptance criterion 10
WALKREG_BASES = (complete_graph(4), complete_graph(5), complete_bipartite(3, 3), cycle(6),
                 hypercube(3))
WALKREG_GROUPS = (GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4),
                  GroupSpec.abelian(2, 2))


def test_walk_regularity_harness_lifts_only_its_hits(built_lifts, monkeypatch):
    made = []
    real = search.gain_of_row

    def counting_gain_of_row(spec, row):
        made.append(real(spec, row))
        return made[-1]

    monkeypatch.setattr(search, "gain_of_row", counting_gain_of_row)
    summary = verify_walk_regularity(WALKREG_BASES, WALKREG_GROUPS, budget=20, seed=1)
    assert summary.sampled == 400 and summary.verified == summary.two_ev > 0
    # a gain graph is made for each hit and no other sample, and lifted once
    assert built_lifts == made and len(made) == summary.two_ev
    monkeypatch.undo()
    hits = [f for base in WALKREG_BASES for group in WALKREG_GROUPS
            for f in spec_gains(SearchSpec(base, group, mode=RANDOM, budget=20, seed=1))
            if lift_fiber_two_ev(f, edge_lift(f)) is not None]
    assert made == hits


def test_walk_regularity_harness_solves_two_stacks_per_batch(monkeypatch):
    # 20 base/group pairs of one batch each: per batch, one stack per kind of
    # character class present and one lift stack, not eigensolves per sample.
    # The bases' own eigenvalues are solved first, so that the count does not
    # depend on what earlier tests left in their cache.
    for base in WALKREG_BASES:
        spectral._adjacency_eigenvalues(base)
    solved = []
    real = spectral._eigvalsh
    monkeypatch.setattr(spectral, "_eigvalsh", lambda a: solved.append(a.shape) or real(a))
    summary = verify_walk_regularity(WALKREG_BASES, WALKREG_GROUPS, budget=20, seed=1)
    assert summary.sampled == 400
    # Z2 and Z2xZ2 have real characters only, Z3 one conjugate pair, Z4 both
    assert len(solved) == len(WALKREG_BASES) * (2 + 2 + 3 + 2) == 45
    assert all(shape[0] == 20 for shape in solved)


def test_walk_regularity_audits_the_printed_spectrum(monkeypatch):
    # every audited row's union of character spectra is the spectrum that
    # `classify` prints for its gain graph, `cover_spectrum`'s, exactly
    audited = []
    real = spectral._class_eigenvalues

    def recording(base, group, gains):
        audited.append((base, group, gains, real(base, group, gains)))
        return audited[-1][-1]

    monkeypatch.setattr(spectral, "_class_eigenvalues", recording)
    verify_walk_regularity(WALKREG_BASES, WALKREG_GROUPS, budget=20, seed=1)
    monkeypatch.undo()
    assert len(audited) == len(WALKREG_BASES) * len(WALKREG_GROUPS)
    for base, group, gains, new in audited:
        spec = SearchSpec(base, group, mode=RANDOM, budget=20, seed=1)
        assert len(gains) == len(new) == 20
        for row, vals in zip(gains, new):
            union = np.concatenate([spectral._adjacency_eigenvalues(base), vals])
            assert (spectral.cluster_values(union, max(base.degrees))
                    == spectral.cover_spectrum(search.gain_of_row(spec, row)))


def test_walk_regularity_reports_the_first_audit_failure(monkeypatch):
    spec = SearchSpec(complete_graph(4), GroupSpec.cyclic(3), mode=RANDOM, budget=50, seed=2)
    audited = plant_audit_failures(monkeypatch, [3, 5])
    with pytest.raises(FalsificationError) as info:
        verify_walk_regularity([spec.base], [spec.group], budget=50, seed=2)
    assert info.value.theorem == "block-decomposition"
    assert info.value.gain == search.gain_of_row(spec, audited[0][3])
    assert info.value.detail == "character spectra deviate from lift spectrum by 0.125"


@pytest.mark.parametrize("after, theorem", [(1, "walk-regularity-of-2ev-covers"),
                                            (0, "block-decomposition")])
def test_walk_regularity_failures_come_in_row_order(monkeypatch, after, theorem):
    # a 2ev row failing walk-regularity is reported before an audit failure
    # later in its batch; on the same row, the audit's failure comes first
    spec = SearchSpec(complete_graph(4), GroupSpec.cyclic(3), mode=RANDOM, budget=50, seed=2)
    table = gains.sheet_table(spec.group, spec.group.elements())
    rows = next(search.assignment_rows(spec))
    first = int(np.flatnonzero(spectral.fiber_two_ev(spec.base, table, rows)[0])[0])
    assert first + 1 < len(rows)
    plant_audit_failures(monkeypatch, [first + after])
    monkeypatch.setattr(search, "is_walk_regular", lambda x, cert=None: cert is None)
    with pytest.raises(FalsificationError) as info:
        verify_walk_regularity([spec.base], [spec.group], budget=50, seed=2)
    assert info.value.theorem == theorem
    assert info.value.gain == search.gain_of_row(spec, rows[first])


@pytest.fixture
def built_tables(monkeypatch):
    """(vertices, source rows) of each distance table built while the test
    runs."""
    built = []
    real = graphs.distances

    def counting_distances(g, *args):
        table = real(g, *args)
        built.append(table.dist.shape[::-1])
        return table

    for name, module in list(sys.modules.items()):
        if name.startswith("gaincover") and getattr(module, "distances", None) is real:
            monkeypatch.setattr(module, "distances", counting_distances)
    return built


def test_each_hit_builds_one_distance_table(built_tables):
    # every question asked of a lift's distances, its connectivity included,
    # reads one table per graph: 13 connected hits and 1 disconnected one
    s = verify_drackn(6, 2)
    assert s.connected_two_ev == s.verified == 13
    assert len(built_tables) == s.two_ev == 14


def test_a_report_builds_one_distance_table_per_graph(built_tables):
    # girth, connectivity and the regularity verdicts of the base and the
    # cover all read the two tables
    # the cover's, from its 16 sheet-0 vertices
    report = cli.gain_report(huang_signing(4))
    assert report["cover"]["girth"] == 6
    assert built_tables == [(16, 16), (32, 16)]


def test_a_lift_takes_one_distance_row_per_fiber(built_tables, tmp_path):
    # classify of Huang Q6 and a search over K6 read each lift's distances
    # from its n sheet-0 rows, never from all N of its vertices
    path = tmp_path / "huang6.gain"
    path.write_text(write_gain_file(huang_signing(6)))
    assert cli.main(["classify", str(path), "--json", str(tmp_path / "out.json")]) == 0
    assert built_tables == [(64, 64), (128, 64)]
    built_tables.clear()
    assert cli.main(["search", "--base", "k6", "--group", "z2",
                     "--json", str(tmp_path / "hits.json")]) == 0
    assert built_tables == [(12, 6)] * 14


def test_run_search_counts_the_assignments_it_decided():
    spec = SearchSpec(complete_graph(4), GroupSpec.abelian(2, 2))
    summary = run_search(spec)
    assert summary.sampled == spec.exhaustive_size() == 64
    assert (summary.two_ev, summary.connected_two_ev) == (1, 0)
    assert summary.records == run_search(spec).records
    assert run_search(SearchSpec(petersen(), GroupSpec.cyclic(3), mode=RANDOM,
                                 budget=37)).sampled == 37


@pytest.mark.parametrize("n, r, certs", [
    # recorded from the brute-force search that lifted every assignment
    (6, 3, [(4, False)]),
    (7, 2, [(5, False), (-5, True)]),
])
def test_complete_graph_census(n, r, certs):
    spec = SearchSpec(complete_graph(n), GroupSpec.cyclic(r))
    summary = run_search(spec)
    assert summary.sampled == spec.exhaustive_size() == r ** ((n - 1) * (n - 2) // 2)
    assert [(h.two_ev.lambda_, h.two_ev.cover_connected) for h in summary.records] == certs
    for h in summary.records:
        assert h.two_ev.mu == n - 1
        if h.two_ev.cover_connected:
            drg = h.regularity.drg
            assert (drg.b, drg.c) == intersection_array(lift(h.gain).graph)
            assert h.regularity.drackn == (n, r, (n - 2 - h.two_ev.lambda_) // r)


def test_a_spec_past_the_vertex_limit_is_refused_before_any_row(monkeypatch):
    # a cover of 3 x 2000 vertices would square 5997-square float64 stacks
    decided = []
    monkeypatch.setattr(search, "fiber_two_ev", lambda *args: decided.append(args))
    message = "a cover of 3 x 2000 vertices exceeds the limit of 4096"
    with pytest.raises(ParameterError, match=message):
        run_search(SearchSpec(complete_graph(3), GroupSpec.cyclic(2000), mode=RANDOM, budget=1))
    with pytest.raises(ParameterError, match=message):
        verify_drackn(3, 2000)
    with pytest.raises(ParameterError, match="a cover of 5 x 1000 vertices"):
        verify_bipartite_cover(2, 3, 1000)
    # every pair's spec is made before the first pair's rows are decided
    with pytest.raises(ParameterError, match="a cover of 4 x 2000 vertices"):
        verify_walk_regularity([complete_graph(4), complete_graph(3)],
                               [GroupSpec.cyclic(2), GroupSpec.cyclic(2000)], budget=1)
    assert decided == []
    # a cover of exactly MAX_VERTICES is allowed
    assert SearchSpec(complete_graph(4), GroupSpec.cyclic(1024), mode=RANDOM, budget=0)


@pytest.fixture
def counted(monkeypatch):
    """counted(module, name): the first argument of each call that the
    function `name` of module gets while the test runs, wherever a gaincover
    module binds it."""
    def count(home, name):
        calls, real = [], getattr(home, name)

        def counting(x, *args):
            calls.append(x)
            return real(x, *args)

        for key, module in list(sys.modules.items()):
            if key.startswith("gaincover") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
        return calls
    return count


def test_a_search_counts_each_lifts_eigenvalues_once(counted, tmp_path):
    calls = counted(regularity, "_distinct_counts")
    assert cli.main(["search", "--base", "k6", "--group", "z2",
                     "--json", str(tmp_path / "hits.json")]) == 0
    # each of the 14 hits' lifts, once: its regularity takes one range for
    # the walk and the distance check
    assert len(calls) == len({id(c) for c in calls}) == 14


def test_a_record_takes_its_regularity_only_where_a_check_reads_it(counted, tmp_path):
    calls = counted(regularity, "regularity_certificate")
    out = str(tmp_path / "out.json")
    assert cli.main(["verify", "walk-regularity", "--samples", "20", "--json", out]) == 0
    assert calls == []
    assert cli.main(["verify", "drackn", "--n", "5", "--r", "2", "--json", out]) == 0
    # one connected hit of two: the disconnected one takes no certificate
    summary = verify_drackn(5, 2)
    assert (summary.two_ev, summary.connected_two_ev) == (2, 1)
    assert len(calls) == 2
    [connected] = [rec for rec in summary.records if rec.two_ev.cover_connected]
    assert calls == [connected.gain.cover] * 2
    # srg-cover reads its record's regularity twice, for the verdict and the
    # payload, and takes it once; a gain the theorem does not apply to, none
    calls.clear()
    for f in (butson_gain(fourier_butson(3)), k3n_nonexample(2)):
        path = tmp_path / "f.gain"
        path.write_text(write_gain_file(f))
        assert cli.main(["verify", "srg-cover", "--gain", str(path), "--json", out]) == 0
    assert len(calls) == 1


def test_the_walk_harness_keeps_no_records():
    summary = verify_walk_regularity(WALKREG_BASES, WALKREG_GROUPS, budget=20, seed=1)
    assert summary.verified == summary.two_ev > 0
    assert summary.records == []
