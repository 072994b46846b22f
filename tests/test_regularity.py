import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaincover import (GainGraph, Graph, GroupSpec, TwoEvCertificate, classify_two_ev,
                       complete_bipartite, complete_graph, cycle, folded_cube,
                       hypercube, identity_gains, intpoly, is_antipodal,
                       is_distance_regular, is_walk_regular, johnson, kneser,
                       lemma_column_counts, lift, line_graph, octahedron,
                       petersen, regularity, srg_parameters)
from gaincover.errors import (ContractViolation, DisconnectedError,
                              InternalConsistencyError, ParameterError)
from gaincover.families import (butson_gain, cohen_tits_cover, cohen_tits_signing,
                                fourier_butson, huang_signing, k3n_nonexample, s3_cover_k5)
from gaincover.regularity import (IntersectionArray, SrgParams, _verify_counts,
                                  regularity_certificate,
                                  two_ev_divisibility_obstruction)
from gaincover.search import SearchSpec, run_search, verify_drackn
from gaincover.spectral import distinct_eigenvalue_count

from conftest import (bfs_components, brute_force_walk_regular, distance_partition,
                      intersection_array, is_equitable, klein_gf4_gain,
                      partition_distance_regular, random_graph, spec_gains)

try:
    import networkx as nx
except ImportError:  # the cross-checks then use the two test-local oracles
    nx = None


def q3_over_k4_gain():
    return GainGraph(complete_graph(4), GroupSpec.cyclic(2),
                     {(0, 1): (0,), (0, 2): (0,), (0, 3): (0,),
                      (1, 2): (1,), (1, 3): (1,), (2, 3): (1,)})


def generalized_petersen_8_3():
    """Independent construction of the 16-vertex girth-6 double cover of the
    3-cube: outer 8-cycle, spokes, inner edges skipping 3."""
    edges = []
    for i in range(8):
        edges.append((i, (i + 1) % 8))        # outer
        edges.append((i, 8 + i))              # spokes
        edges.append((8 + i, 8 + (i + 3) % 8))  # inner
    return Graph(16, edges)


# ---------------------------------------------------------------------------
# walk regularity


def test_walk_regular_examples():
    assert is_walk_regular(cycle(5))
    assert not is_walk_regular(Graph(3, [(0, 1), (1, 2)]))  # path
    assert is_walk_regular(cohen_tits_cover(4).graph)
    assert is_walk_regular(petersen())


def test_walk_regularity_checks_the_last_power_the_bound_allows():
    # C3 + C4 has the 4 distinct eigenvalues 2, 0, -1, -2, so powers up to A^3
    # are checked, and A^3 is the first whose diagonal is not constant: 2 at
    # the triangle's vertices, 0 on the square
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert distinct_eigenvalue_count(g) == 4
    assert not is_walk_regular(g) and not brute_force_walk_regular(g)
    # through a lift's certificate: the one-sheet lift of the path P3 adds no
    # new eigenvalue, so the bound is 3 + 0 - 1 = 2, and the diagonal of A^2
    # (the degrees) is the first that is not constant
    f = identity_gains(Graph(3, [(0, 1), (1, 2)]), GroupSpec.permutation(1))
    cert = classify_two_ev(f)
    assert (distinct_eigenvalue_count(f.base), cert.new_distinct) == (3, 0)
    assert not check_certificate_bound(f.cover, cert)


def test_walk_regular_agrees_with_brute_force(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.8]))
        assert is_walk_regular(g) == brute_force_walk_regular(g)


def cycle_complement(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 2, n)
                     if (u, v) != (0, n - 1)])


def check_certificate_bound(cover, cert):
    """The walk-regularity verdict bounded by the certificate equals the bare
    graph's and the brute-force oracle's, and the bound holds."""
    got = is_walk_regular(cover, cert)
    assert got == is_walk_regular(cover.graph) == brute_force_walk_regular(cover.graph)
    assert (distinct_eigenvalue_count(cover.graph)
            <= distinct_eigenvalue_count(cover.base) + cert.new_distinct)
    return got


def test_walk_regular_certificate_bound_matches_the_oracles(rng):
    cases = [(complete_graph(5), GroupSpec.cyclic(2)), (complete_graph(6), GroupSpec.cyclic(2)),
             (complete_bipartite(4, 4), GroupSpec.cyclic(2)),
             (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
             (octahedron(), GroupSpec.cyclic(2)), (complete_graph(4), GroupSpec.abelian(2, 2))]
    hits = [rec for base, group in cases for rec in run_search(SearchSpec(base, group)).records]
    assert len(hits) == 2 + 14 + 6 + 2 + 2 + 1
    gains = [rec.gain for rec in hits]
    gains += [s3_cover_k5()] + [huang_signing(n) for n in (3, 4, 5)]
    for base, r in [(petersen(), 3), (hypercube(3), 3), (complete_bipartite(3, 3), 4),
                    (kneser(7, 2), 2)]:
        for _ in range(3):
            gains.append(GainGraph(base, GroupSpec.cyclic(r),
                                   {e: (rng.randrange(r),) for e in base.sorted_edges()}))
    verdicts = []
    for f in gains:
        cert = classify_two_ev(f)
        verdicts.append((cert.is_two_ev, check_certificate_bound(f.cover, cert)))
    # every 2ev lift of a walk-regular base is walk-regular; the drawn gains
    # all miss, and most of their lifts are not walk-regular
    assert all(walk for two_ev, walk in verdicts[:-12])
    assert [two_ev for two_ev, _ in verdicts[-12:]] == [False] * 12
    assert sum(not walk for _, walk in verdicts[-12:]) >= 10


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_walk_regular_certificate_bound_property(data):
    base = data.draw(st.sampled_from([complete_graph(4), cycle(5), cycle(6), hypercube(3),
                                      complete_bipartite(2, 3), petersen(), octahedron(),
                                      Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])]))
    group = data.draw(st.sampled_from([GroupSpec.cyclic(2), GroupSpec.cyclic(3),
                                       GroupSpec.abelian(2, 2)]))
    elements = group.elements()
    f = GainGraph(base, group, {e: data.draw(st.sampled_from(elements))
                                for e in base.sorted_edges()})
    check_certificate_bound(f.cover, classify_two_ev(f))


def test_walk_regular_switches_to_exact_integers(monkeypatch):
    # 27-regular with 16 distinct eigenvalues: a diagonal entry of A^15 may
    # reach 27^14 > 2^66, past any one prime p with 27 p < 2^53, so the
    # powers are taken modulo more than one prime
    g = cycle_complement(30)
    top = distinct_eigenvalue_count(g) - 1
    assert (max(g.degrees), top) == (27, 15)
    real, primes = regularity._prime_stream, []

    def recording(limit, bound, e=1):
        for p in real(limit, bound, e):
            primes.append(p)
            yield p

    monkeypatch.setattr(regularity, "_prime_stream", recording)
    assert is_walk_regular(g) and brute_force_walk_regular(g)
    assert len(primes) > 1 and primes[0] < 27 ** 14 < math.prod(primes)
    # through a lift's certificate bound: two disjoint copies, 16 + 16 - 1 powers
    f = identity_gains(g, GroupSpec.cyclic(2))
    cert = classify_two_ev(f)
    assert cert.new_distinct == 16
    assert check_certificate_bound(f.cover, cert)


def test_walk_regular_checks_every_prime(monkeypatch):
    # the diagonal of A^2 of K_{1,3} holds the degrees 3, 1, 1, 1, constant
    # mod 2: the product of the primes must pass 3, and mod 3 tells them apart.
    # The exact distinct counts are cached first, so that only the walk
    # check's `_prime_stream` draws on the small primes. It draws the fewest
    # whose product passes Delta^(top-1): 3 for K_{1,3} and Petersen, 9 for Q3
    for g in (complete_bipartite(1, 3), petersen(), hypercube(3)):
        distinct_eigenvalue_count(g)
    drawn = []

    def small(limit, i, e=1):
        drawn.append((2, 3, 5, 7, 11)[i])
        return drawn[-1]

    monkeypatch.setattr(intpoly, "_prime", small)
    assert not is_walk_regular(complete_bipartite(1, 3))
    assert drawn == [2, 3]
    assert is_walk_regular(petersen()) and is_walk_regular(hypercube(3))
    assert drawn == [2, 3] + [2, 3] + [2, 3, 5]


# ---------------------------------------------------------------------------
# partitions


def test_distance_partition_examples():
    assert tuple(len(c) for c in distance_partition(complete_graph(4), 2)) == (1, 3)
    assert tuple(len(c) for c in distance_partition(hypercube(3), 0)) == (1, 3, 3, 1)
    ct3 = cohen_tits_cover(3).graph
    for v in range(ct3.n):
        assert tuple(len(c) for c in distance_partition(ct3, v)) == (1, 3, 6, 5, 1)
    # cross-check against the independently built generalized Petersen graph
    gp = generalized_petersen_8_3()
    from gaincover import char_poly, girth
    assert char_poly(gp) == char_poly(ct3)
    assert girth(gp) == girth(ct3) == 6
    assert tuple(len(c) for c in distance_partition(gp, 0)) == (1, 3, 6, 5, 1)


def test_distance_partition_requires_connected():
    with pytest.raises(DisconnectedError):
        distance_partition(Graph(4, [(0, 1), (2, 3)]), 0)


def test_equitable_singletons_give_adjacency():
    g = petersen()
    quotient = is_equitable(g, [(v,) for v in range(g.n)])
    adj = g.adjacency()
    assert quotient is not None
    for i in range(g.n):
        for j in range(g.n):
            assert quotient[i][j] == adj[i, j]


def test_equitable_bipartition_k33():
    g = complete_bipartite(3, 3)
    assert is_equitable(g, [(0, 1, 2), (3, 4, 5)]) == ((0, 3), (3, 0))
    # unbalanced split of K4 is not equitable
    assert is_equitable(complete_graph(4), [(0,), (1, 2, 3)]) == ((0, 3), (1, 2))
    assert is_equitable(Graph(3, [(0, 1)]), [(0, 2), (1,)]) is None


def test_equitable_validates_partition():
    with pytest.raises(ParameterError):
        is_equitable(complete_graph(3), [(0, 1)])
    with pytest.raises(ParameterError):
        is_equitable(complete_graph(3), [(0, 1, 2), (0,)])


def test_petersen_distance_partition_quotient():
    g = petersen()
    q = is_equitable(g, distance_partition(g, 0))
    assert q == ((0, 3, 0), (1, 0, 2), (0, 1, 2))


# ---------------------------------------------------------------------------
# distance-regularity and strong regularity


def test_distance_regular_petersen():
    arr = is_distance_regular(petersen())
    assert arr is not None
    assert (arr.b, arr.c, arr.d) == ((3, 2), (1, 1), 2)
    assert str(arr) == "{3,2;1,1}"


def test_distance_regular_cycle8():
    arr = is_distance_regular(cycle(8))
    assert (arr.b, arr.c, arr.d) == ((2, 1, 1, 1), (1, 1, 1, 2), 4)


def test_cohen_tits_not_distance_regular():
    assert is_distance_regular(cohen_tits_cover(3).graph) is None


def test_intersection_array_oracle_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [cohen_tits_cover(n).graph for n in range(2, 7)]
    graphs += [lift(butson_gain(fourier_butson(q))).graph for q in (2, 3, 4)]
    graphs += [lift(klein_gf4_gain()).graph, petersen(), hypercube(4)]
    for g in graphs:
        h = nx.Graph(list(g.edges))
        want = (tuple(map(tuple, nx.intersection_array(h)))
                if nx.is_distance_regular(h) else None)
        assert intersection_array(g) == want
        arr = is_distance_regular(g)
        assert (None if arr is None else (arr.b, arr.c)) == want


def circulant(n, jumps):
    """Cayley graph of Z_n with connection set +-jumps."""
    return Graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def checked_array(g: Graph):
    """(b, c) of `is_distance_regular(g)`, or None, after checking it against
    the equitable-partition oracle, the BFS oracle and networkx (if installed);
    all three must raise or agree."""
    if len(bfs_components(g)) > 1:
        with pytest.raises(DisconnectedError):
            is_distance_regular(g)
        with pytest.raises(DisconnectedError):
            partition_distance_regular(g)
        return None
    arr = is_distance_regular(g)
    got = None if arr is None else (arr.b, arr.c)
    assert got == partition_distance_regular(g)
    if g.n <= 1:
        assert got is None  # the BFS oracle gives ((), ()) for one vertex
        return got
    assert got == intersection_array(g)
    if nx is not None:
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        want = (tuple(map(tuple, nx.intersection_array(h)))
                if nx.is_distance_regular(h) else None)
        assert got == want
    return got


def test_distance_regular_matches_the_oracles(rng):
    named = [cycle(n) for n in range(3, 11)]
    named += [hypercube(n) for n in range(1, 6)]
    named += [folded_cube(n) for n in range(3, 7)]
    named += [kneser(7, 2), kneser(7, 3), johnson(6, 3)]
    named += [petersen(), octahedron()]
    arrays = [checked_array(g) for g in named]
    assert None not in arrays
    assert checked_array(line_graph(petersen())) == ((4, 2, 1), (1, 1, 4))
    # the Cohen-Tits covers are distance-regular at n = 2 and 4 only
    arrays = [checked_array(cohen_tits_cover(n).graph) for n in range(2, 7)]
    assert [a is not None for a in arrays] == [True, False, True, False, False]

    lifts = [checked_array(lift(f).graph)
             for f in spec_gains(SearchSpec(complete_graph(5), GroupSpec.cyclic(2)))]
    assert len(lifts) == 64
    assert lifts.count(((4, 3, 1), (1, 3, 4))) == 1

    drawn = [random_graph(rng, rng.randint(1, 10), rng.choice([0.3, 0.5, 0.8]))
             for _ in range(100)]
    for _ in range(100):
        n = rng.randint(3, 16)
        drawn.append(circulant(n, [j for j in range(1, n // 2 + 1) if rng.random() < 0.4]))
    arrays = [checked_array(g) for g in drawn]
    assert sum(a is not None for a in arrays) >= 30


def graphs_and_circulants():
    edge_lists = st.integers(1, 9).flatmap(lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=n * (n - 1) // 2).map(lambda es: Graph(n, es)))
    circulants = st.integers(3, 14).flatmap(lambda n: st.sets(
        st.integers(1, n // 2)).map(lambda js: circulant(n, js)))
    return st.one_of(edge_lists, circulants)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(graphs_and_circulants())
def test_distance_regular_matches_the_oracles_property(g):
    checked_array(g)


def test_distance_regular_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        is_distance_regular(Graph(4, [(0, 1), (2, 3)]))
    # non-regular connected graph is simply not DRG
    assert is_distance_regular(Graph(3, [(0, 1), (1, 2)])) is None


def test_srg_parameters():
    assert srg_parameters(petersen()) == SrgParams(10, 3, 0, 1)
    for n in (2, 3, 4):
        assert srg_parameters(complete_bipartite(n, n)) == SrgParams(2 * n, n, 0, n)
    assert srg_parameters(complete_graph(5)) is None
    assert srg_parameters(octahedron()) == SrgParams(6, 4, 2, 4)


def test_srg_feasibility_enforced():
    with pytest.raises(ParameterError):
        SrgParams(10, 3, 1, 1)


def test_intersection_array_validation():
    with pytest.raises(ParameterError):
        IntersectionArray((3, 2), (2, 1), 2)  # c_1 must be 1
    with pytest.raises(ParameterError):
        IntersectionArray((3, 4), (1, 1), 2)  # b_1 + c_1 > k


# ---------------------------------------------------------------------------
# antipodality


def test_antipodal_hypercube():
    flag, classes = is_antipodal(hypercube(3))
    assert flag
    assert len(classes) == 4 and all(len(c) == 2 for c in classes)
    assert all(u ^ v == 7 for u, v in classes)


def test_antipodal_petersen_false():
    flag, classes = is_antipodal(petersen())
    assert not flag and classes is None


def test_antipodal_complete_graph_singletons():
    flag, classes = is_antipodal(complete_graph(5))
    assert flag and classes == tuple((v,) for v in range(5))


def test_antipodal_requires_connected():
    with pytest.raises(DisconnectedError):
        is_antipodal(Graph(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# antipodal covers of complete graphs


def test_drackn_q3_over_k4():
    f = q3_over_k4_gain()
    cert = classify_two_ev(f)
    assert regularity_certificate(f.cover, cert).drackn == (4, 2, 2)


def test_drackn_absent_for_disconnected_double():
    f = identity_gains(complete_graph(4), GroupSpec.cyclic(2))
    cert = classify_two_ev(f)
    assert cert.is_two_ev and not cert.cover_connected
    assert regularity_certificate(f.cover, cert).drackn is None


def test_drackn_of_graph():
    assert regularity_certificate(hypercube(3)).drackn == (4, 2, 2)
    assert regularity_certificate(petersen()).drackn is None
    assert regularity_certificate(cycle(8)).drackn is None


def counted_drackn(g: Graph):
    """(n, r, t) of a distance-regular antipodal cover of K_n, counted from the
    edge list alone (test-local oracle for the consequences
    `regularity_certificate` reads off diameter-3 antipodal
    distance-regularity).

    t is c2 of the `intersection_array` oracle. Asserts that every distance-2
    pair has exactly t common neighbours, that the antipodal classes
    {u} + {v : d(u, v) = 3} are n classes of one size r >= 2, that no edge lies
    inside a class, and that every two classes are joined by an edge.
    """
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    _, c = intersection_array(g)
    assert len(c) == 3
    t = c[1]
    dist = []
    for u in range(g.n):
        d = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x] - d.keys():
                d[y] = d[x] + 1
                queue.append(y)
        dist.append(d)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dist[u][v] == 2:
                assert len(adj[u] & adj[v]) == t
    classes = {frozenset([u, *(v for v in range(g.n) if dist[u][v] == 3)])
               for u in range(g.n)}
    assert sorted(v for cls in classes for v in cls) == list(range(g.n))
    sizes = {len(cls) for cls in classes}
    assert len(sizes) == 1
    r = sizes.pop()
    assert r >= 2
    class_of = {v: cls for cls in classes for v in cls}
    assert all(class_of[u] != class_of[v] for u, v in g.edges)
    n = len(classes)
    joined = {frozenset((class_of[u], class_of[v])) for u, v in g.edges}
    assert len(joined) == n * (n - 1) // 2
    return n, r, t


def census_drackns():
    """The connected hits of the K5/Z2, K6/Z2 and K7/Z2 censuses."""
    hits = []
    for n in (5, 6, 7):
        summary = run_search(SearchSpec(complete_graph(n), GroupSpec.cyclic(2)))
        hits.extend(h for h in summary.records if h.two_ev.cover_connected)
    return hits


def test_drackn_of_graph_matches_the_counted_parameters():
    named = [(hypercube(3), (4, 2, 2)), (cycle(6), (3, 2, 1)),
             (lift(s3_cover_k5()).graph, (5, 3, 1))]
    for g, want in named:
        assert counted_drackn(g) == regularity_certificate(g).drackn == want
    found = []
    for h in census_drackns():
        g = lift(h.gain).graph
        assert counted_drackn(g) == regularity_certificate(g).drackn == h.regularity.drackn
        found.append(h.regularity.drackn)
    assert sorted(found) == [(5, 2, 3)] + [(6, 2, 2)] * 12 + [(6, 2, 4), (7, 2, 5)]


def test_lift_certificate_is_its_graphs():
    # the certificate of a lift with its 2ev certificate states the same facts
    # as the certificate of the lift's bare graph, on complete bases and others
    pairs = [(h.gain, h.two_ev) for h in census_drackns()]
    for base, r in [(octahedron(), 2), (complete_bipartite(4, 4), 2),
                    (complete_bipartite(3, 3), 3), (hypercube(3), 2)]:
        summary = run_search(SearchSpec(base, GroupSpec.cyclic(r)))
        pairs.extend((h.gain, h.two_ev) for h in summary.records if h.two_ev.cover_connected)
    f = s3_cover_k5()
    pairs.append((f, classify_two_ev(f)))
    assert len(pairs) == 15 + 2 + 6 + 2 + 1 + 1
    for f, cert in pairs:
        assert cert.is_two_ev and cert.cover_connected
        want = regularity_certificate(f.cover.graph).as_dict()
        assert regularity_certificate(f.cover, cert).as_dict() == want


@st.composite
def abelian_lifts(draw):
    """A random abelian gain graph on a small base; a balanced one, whose lift
    is disconnected, one time in four."""
    base = draw(st.sampled_from([complete_graph(3), complete_graph(4), cycle(5), cycle(6),
                                 complete_bipartite(2, 3), hypercube(3), octahedron(),
                                 petersen(), Graph(4, [(0, 1), (1, 2), (2, 3)]),
                                 Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])]))
    group = draw(st.sampled_from([GroupSpec.cyclic(r) for r in (2, 3, 4, 5)]
                                 + [GroupSpec.abelian(2, 2), GroupSpec.abelian(2, 3)]))
    elements = group.elements()
    balanced = draw(st.integers(0, 3)) == 0
    return GainGraph(base, group, {e: elements[0] if balanced else draw(st.sampled_from(elements))
                                   for e in base.sorted_edges()})


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(abelian_lifts())
def test_the_fiber_rows_state_what_the_whole_lift_does(f):
    # a lift's n sheet-0 rows give the connectivity, girth, diameter,
    # intersection array, antipodal classes and walk regularity that the
    # same lift gives as a bare graph, every vertex a source
    cover, cert = f.cover, classify_two_ev(f)
    g = cover.graph
    rows, table = cover.distance_table, g.distance_table
    assert rows.dist.shape == (f.base.n, g.n)
    assert (rows.dist == table.dist[::cover.r]).all()
    assert ((rows.is_connected(), rows.girth, rows.diameter())
            == (table.is_connected(), table.girth, table.diameter()))
    assert is_walk_regular(cover, cert) == is_walk_regular(g)
    if not rows.is_connected():
        with pytest.raises(DisconnectedError):
            is_distance_regular(cover, cert)
        with pytest.raises(DisconnectedError):
            is_antipodal(cover)
        return
    assert is_distance_regular(cover, cert) == is_distance_regular(g)
    assert is_antipodal(cover) == is_antipodal(g)


def test_the_fiber_rows_property_sees_every_kind_of_lift():
    # the drawn lifts include disconnected ones, distance-regular ones and
    # antipodal ones that are not distance-regular
    seen = set()

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(abelian_lifts())
    def record(f):
        cover = f.cover
        if not cover.distance_table.is_connected():
            seen.add("disconnected")
            return
        drg = is_distance_regular(cover, classify_two_ev(f)) is not None
        seen.add("drg" if drg else "antipodal" if is_antipodal(cover)[0] else "other")

    record()
    assert seen == {"disconnected", "drg", "antipodal", "other"}


def test_a_permutation_lift_takes_every_vertex_as_a_source():
    cover = s3_cover_k5().cover
    assert cover.distance_table.dist.shape == (cover.graph.n, cover.graph.n)


@pytest.mark.parametrize("name, counted, array", [
    ("huang 3", False, None), ("huang 5", False, None), ("huang 7", False, None),
    ("butson 8", False, None), ("cohen-tits 4", True, "{4,3,3,1;1,1,3,4}"),
    ("k3n 3", True, None)])
def test_the_eigenvalue_count_decides_before_the_intersection_numbers(name, counted, array):
    # a distance-regular graph of diameter d has d + 1 distinct eigenvalues;
    # a lift whose certified count leaves that out is refused before the
    # counting step, which begins with the regularity check
    family, n = name.split()
    f = {"huang": huang_signing, "butson": lambda q: butson_gain(fourier_butson(q)),
         "cohen-tits": cohen_tits_signing, "k3n": k3n_nonexample}[family](int(n))
    cover, cert = f.cover, classify_two_ev(f)
    assert cover.distance_table.is_connected()
    calls, is_regular = [], cover.graph.is_regular
    object.__setattr__(cover.graph, "is_regular", lambda: calls.append(1) or is_regular())
    arr = is_distance_regular(cover, cert)
    assert bool(calls) == counted
    assert (arr and str(arr)) == array


# ---------------------------------------------------------------------------
# column counts


def test_lemma_counts_q3_over_k4():
    cert = lemma_column_counts(q3_over_k4_gain())
    assert cert.t == Fraction(2) and cert.s is None
    assert cert.integral


def test_lemma_counts_butson_k22():
    cert = lemma_column_counts(butson_gain(fourier_butson(2)))
    assert cert.t == Fraction(0) and cert.s == Fraction(1)
    assert cert.integral


def test_lemma_counts_petersen_obstruction():
    assert two_ev_divisibility_obstruction(petersen(), 2)
    assert not two_ev_divisibility_obstruction(complete_bipartite(3, 3), 3)


@pytest.mark.parametrize("r", [1, 0, -2])
def test_divisibility_obstruction_needs_an_order_of_at_least_2(r):
    with pytest.raises(ParameterError):
        two_ev_divisibility_obstruction(petersen(), r)


def test_lemma_counts_requires_normalized_anchor():
    f = GainGraph(complete_graph(4), GroupSpec.cyclic(2),
                  {(0, 1): (1,), (0, 2): (0,), (0, 3): (0,),
                   (1, 2): (1,), (1, 3): (1,), (2, 3): (1,)})
    with pytest.raises(ContractViolation):
        lemma_column_counts(f)


def test_lemma_counts_build_no_lift(monkeypatch):
    from gaincover import gains

    def no_cover(*args):
        raise AssertionError("lemma_column_counts lifted the gain")

    # every lift, under whatever name it is called, builds its CoverGraph here
    monkeypatch.setattr(gains, "CoverGraph", no_cover)
    cert = lemma_column_counts(q3_over_k4_gain())
    assert cert.t == Fraction(2) and cert.integral
    with pytest.raises(ParameterError, match="need a two-eigenvalue lift"):
        lemma_column_counts(butson_gain(fourier_butson(4)))


def test_column_count_verifier_rejects_wrong_counts():
    f = butson_gain(fourier_butson(2))  # t = 0, s = 1 on K_{2,2}
    _verify_counts(f, 2, 0, 1)
    with pytest.raises(InternalConsistencyError, match="distance-1 column"):
        _verify_counts(f, 2, 1, 1)
    with pytest.raises(InternalConsistencyError, match="distance-2 column"):
        _verify_counts(f, 2, 0, 2)
    # a complete base has no distance-2 block
    _verify_counts(q3_over_k4_gain(), 2, 2, None)
    with pytest.raises(InternalConsistencyError, match="nontrivial power"):
        _verify_counts(q3_over_k4_gain(), 2, 1, None)


def test_lemma_counts_need_every_character_two_ev():
    # the order-1 character of the Z4 Fourier gain on K_{4,4} has eigenvalues
    # +-2, but the order-2 one is singular, so the lift is not 2ev and its
    # distance-2 columns need not carry equal counts
    f = butson_gain(fourier_butson(4))
    with pytest.raises(ParameterError, match="need a two-eigenvalue lift"):
        lemma_column_counts(f)


def test_lemma_counts_on_every_normalized_k4_gain():
    # the lemma holds on each 2ev lift, with lambda from the fiber identity
    for group in (GroupSpec.cyclic(2), GroupSpec.cyclic(3)):
        for f in spec_gains(SearchSpec(complete_graph(4), group)):
            cert = classify_two_ev(f)
            if not cert.is_two_ev:
                with pytest.raises(ParameterError):
                    lemma_column_counts(f)
                continue
            counts = lemma_column_counts(f)
            assert counts.t == Fraction(2 - cert.lambda_, group.order)


# ---------------------------------------------------------------------------
# aggregation


def test_regularity_certificate_for_cover():
    f = q3_over_k4_gain()
    cert = classify_two_ev(f)
    reg = regularity_certificate(f.cover, cert)
    assert reg.walk_regular
    assert reg.drg is not None and reg.drg.d == 3
    assert reg.antipodal and reg.drackn == (4, 2, 2)
    assert reg.srg is None
    d = reg.as_dict()
    assert d["drackn"] == [4, 2, 2]


def test_regularity_certificate_disconnected():
    f = identity_gains(complete_graph(3), GroupSpec.cyclic(2))
    reg = regularity_certificate(lift(f), classify_two_ev(f))
    assert reg.walk_regular and not reg.antipodal
    assert reg.drg is None and reg.drackn is None


def test_lift_without_its_certificate_is_refused(monkeypatch):
    # refused before any char poly is taken, since on a bare lift it would be
    # the whole lift's
    def no_char_poly(g):
        raise AssertionError(f"char poly taken on {g.n} vertices")

    monkeypatch.setattr(regularity, "distinct_eigenvalue_count", no_char_poly)
    cover = lift(huang_signing(4))
    for check in (is_walk_regular, regularity_certificate):
        with pytest.raises(ParameterError, match="needs its two-eigenvalue certificate"):
            check(cover)


def test_distinct_counts_of_a_conjugate_pair_with_and_without_the_base():
    # x^2 + x - 1 has C5's eigenvalues 2cos(2pi/5) and 2cos(4pi/5) as roots,
    # so a hit with lambda = -1, mu = 1 adds no new value to C5's three
    c5 = lift(identity_gains(cycle(5), GroupSpec.cyclic(2)))
    cert = TwoEvCertificate(is_two_ev=True, lambda_=-1, mu=1, new_distinct=2)
    assert regularity._distinct_counts(c5, cert) == range(3, 4)
    # x^2 - 3 does not divide Q3's char poly, so Huang's Q3 lift adds both
    # of +-sqrt(3) to Q3's four values
    f = huang_signing(3)
    cert = classify_two_ev(f)
    assert (cert.lambda_, cert.mu) == (0, 3)
    assert regularity._distinct_counts(f.cover, cert) == range(6, 7)
    assert is_walk_regular(f.cover, cert)


def test_regularity_certificate_decides_each_verdict_once(monkeypatch):
    calls = {"is_distance_regular": 0, "is_antipodal": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(regularity, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(regularity, name, counted)
    summary = verify_drackn(6, 2)
    assert summary.connected_two_ev == summary.verified == 13
    assert calls == {"is_distance_regular": 13, "is_antipodal": 13}
