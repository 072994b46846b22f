import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaincover import (Graph, complete_bipartite, complete_graph, cycle,
                       distances, folded_cube, girth, hypercube, is_connected,
                       johnson, kneser, line_graph, octahedron, parse_edge_list,
                       petersen, write_edge_list)
from gaincover.errors import EmptyGraphError, ParameterError, ParseError
from gaincover.families import cohen_tits_cover, huang_signing
from gaincover.gains import lift
from gaincover.graphs import UNREACHABLE, bfs_tree

from conftest import bfs_components, bfs_distances, bfs_girth, random_graph


def test_graph_normalizes_edges():
    g = Graph(4, [(3, 1), (1, 3), (0, 2)])
    assert g.edges == frozenset({(1, 3), (0, 2)})
    assert g.m == 2
    assert g.neighbors[1] == (3,)


def test_graph_rejects_bad_edges():
    with pytest.raises(ParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(ParameterError):
        Graph(-1, [])


def test_complete_graph():
    with pytest.raises(EmptyGraphError):
        complete_graph(0)
    assert complete_graph(1).m == 0
    k4 = complete_graph(4)
    assert (k4.n, k4.m) == (4, 6)
    assert set(k4.degrees) == {3}
    assert distances(complete_graph(5)).diameter() == 1


def test_hypercube():
    q3 = hypercube(3)
    assert (q3.n, q3.m) == (8, 12)
    assert girth(q3) == 4
    d = distances(q3)
    for v in range(8):
        assert d.dist[v, v ^ 7] == 3
    assert hypercube(0).n == 1


def test_complete_bipartite_and_multipartite():
    k23 = complete_bipartite(2, 3)
    assert (k23.n, k23.m) == (5, 6)
    with pytest.raises(ParameterError):
        complete_bipartite(0, 3)
    oct_ = octahedron()
    assert (oct_.n, oct_.m) == (6, 12)
    assert set(oct_.degrees) == {4}


def test_cycle():
    c8 = cycle(8)
    assert (c8.n, c8.m) == (8, 8)
    assert girth(c8) == 8
    assert distances(c8).diameter() == 4
    with pytest.raises(ParameterError):
        cycle(2)


def test_kneser():
    g = kneser(7, 2)
    assert g.n == 21
    assert set(g.degrees) == {10}
    assert petersen().n == 10
    assert set(petersen().degrees) == {3}
    assert girth(petersen()) == 5
    with pytest.raises(ParameterError):
        kneser(3, 2)


def test_johnson_against_brute_force():
    g = johnson(5, 2)
    assert g.n == 10
    assert set(g.degrees) == {6}
    subs = list(combinations(range(5), 2))
    expect = set()
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if len(set(subs[i]) & set(subs[j])) == 1:
                expect.add((i, j))
    assert g.edges == frozenset(expect)
    with pytest.raises(ParameterError):
        johnson(2, 3)


def test_folded_cube():
    assert set(folded_cube(3).edges) == set(complete_graph(4).edges)
    # folding one dimension up gives the complete bipartite double of K4
    from gaincover import char_poly
    assert char_poly(folded_cube(4)) == char_poly(complete_bipartite(4, 4))
    with pytest.raises(ParameterError):
        folded_cube(1)


def test_line_graph():
    from gaincover import char_poly
    assert char_poly(line_graph(cycle(5))) == char_poly(cycle(5))
    lp = line_graph(petersen())
    assert (lp.n, lp.m) == (15, 30)
    assert set(lp.degrees) == {4}


def test_generator_counts_and_valency():
    from math import comb
    for n in range(2, 7):
        q = hypercube(n)
        assert (q.n, q.m) == (1 << n, n << (n - 1))
        assert set(q.degrees) == {n}
    # antipodal matching is disjoint from cube edges only once antipodes
    # differ in at least two bits
    for n in range(3, 7):
        fc = folded_cube(n)
        assert (fc.n, fc.m) == (1 << (n - 1), n << (n - 2))
        assert set(fc.degrees) == {n}
    assert (folded_cube(2).n, folded_cube(2).m) == (2, 1)
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        j = johnson(n, k)
        assert j.n == comb(n, k)
        assert set(j.degrees) == {k * (n - k)}
        kn = kneser(n, k) if n >= 2 * k else None
        if kn is not None:
            assert kn.n == comb(n, k)
            assert set(kn.degrees) == {comb(n - k, k)}


def test_distances_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    t = distances(g)
    assert t.dist[0, 2] == UNREACHABLE
    assert not t.is_connected() and not is_connected(g)
    assert is_connected(complete_graph(3))


def test_components_match_the_bfs_oracle(rng):
    drawn = [Graph(0, []), Graph(1, []), Graph(3, [])]
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.05, 0.15, 0.3, 0.6]))
        # a few isolated vertices past the drawn ones
        drawn.append(Graph(g.n + rng.randint(0, 2), g.edges))
    for g in drawn:
        assert is_connected(g) == (len(bfs_components(g)) <= 1)
    counts = [len(bfs_components(g)) for g in drawn]
    assert 0 in counts and 1 in counts and max(counts) >= 5


def test_distance_properties_random(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        t = distances(g).dist
        for u in range(g.n):
            assert t[u, u] == 0
            for v in range(g.n):
                assert t[u, v] == t[v, u]
                for w in range(g.n):
                    if UNREACHABLE not in (t[u, v], t[v, w]):
                        assert t[u, w] != UNREACHABLE
                        assert t[u, w] <= t[u, v] + t[v, w]


def test_girth():
    for n in range(2, 6):
        assert girth(hypercube(n)) == 4
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) is None  # path
    assert girth(cycle(11)) == 11
    # triangle with a pendant
    assert girth(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])) == 3


def test_girth_random_against_brute_force(rng):
    def brute_girth(g):
        from itertools import permutations
        for size in range(3, g.n + 1):
            for cyc in combinations(range(g.n), size):
                for perm in permutations(cyc[1:]):
                    order = (cyc[0],) + perm
                    if all((min(order[i], order[(i + 1) % size]),
                            max(order[i], order[(i + 1) % size])) in g.edges
                           for i in range(size)):
                        return size
        return None

    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 7), 0.45)
        assert girth(g) == brute_girth(g)


def assert_matches_the_bfs_oracles(g):
    assert distances(g).dist.tolist() == bfs_distances(g)
    assert girth(g) == bfs_girth(g)


def test_distances_and_girth_match_the_bfs_oracles(rng):
    drawn = [random_graph(rng, rng.randint(0, 16), rng.choice([0.05, 0.1, 0.2, 0.35, 0.5, 0.7]))
             for _ in range(240)]
    for g in drawn:
        assert_matches_the_bfs_oracles(g)
    assert any(g.n == 0 for g in drawn)
    assert any(g.m and bfs_girth(g) is None for g in drawn)  # forests
    assert any(0 in g.degrees for g in drawn)  # isolated vertices
    assert any(len(bfs_components(g)) > 1 for g in drawn)
    assert {bfs_girth(g) for g in drawn} >= {3, 4, 5}


NAMED_GRAPHS = (
    [(f"Q{n}", lambda n=n: hypercube(n)) for n in range(3, 8)]
    + [(f"huang-lift-Q{n}", lambda n=n: lift(huang_signing(n)).graph) for n in range(3, 8)]
    + [(f"cohen-tits-{n}", lambda n=n: cohen_tits_cover(n).graph) for n in range(2, 7)]
    + [("kneser-8-2", lambda: kneser(8, 2)), ("johnson-6-3", lambda: johnson(6, 3)),
       ("petersen", petersen), ("folded-6-cube", lambda: folded_cube(6))]
    + [(f"C{n}", lambda n=n: cycle(n)) for n in range(3, 18)]
)


@pytest.mark.parametrize("build", [b for _, b in NAMED_GRAPHS],
                         ids=[name for name, _ in NAMED_GRAPHS])
def test_named_graphs_match_the_bfs_oracles(build):
    assert_matches_the_bfs_oracles(build())


def _graphs_on(n):
    pairs = list(combinations(range(n), 2))
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    return edges.map(lambda es: Graph(n, es))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 12).flatmap(_graphs_on))
def test_distance_table_property(g):
    assert_matches_the_bfs_oracles(g)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 9).flatmap(_graphs_on))
def test_adjacency_is_a_fresh_matrix_of_the_edges(g):
    # scattered from the graph's read-only edge array, a new array each call
    a = g.adjacency()
    want = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        want[u, v] = want[v, u] = 1
    assert a.dtype == np.int64 and (a == want).all()
    a += 1
    assert (g.adjacency(dtype=np.float64) == want).all()
    assert not g.edge_array.flags.writeable


def test_bfs_tree():
    t = bfs_tree(complete_graph(4))
    assert t == ((0, 1), (0, 2), (0, 3))
    from gaincover.errors import DisconnectedError
    with pytest.raises(DisconnectedError):
        bfs_tree(Graph(3, [(0, 1)]))


def test_edge_list_roundtrip():
    g = petersen()
    text = write_edge_list(g)
    assert parse_edge_list(text) == g
    assert write_edge_list(parse_edge_list(text)) == text
    assert text.endswith("\n") and "\r" not in text


def test_edge_list_rejects_a_duplicate_edge():
    # a repeated edge, in either orientation, is an error and not merged
    for dup in ("edge 1 0", "edge 0 1"):
        with pytest.raises(ParseError, match=r"line 3: duplicate edge"):
            parse_edge_list(f"graph 3\nedge 0 1\n{dup}\nedge 1 2\n")


def test_edge_list_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("edge 0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("graph 3\nedge 0 5\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    g = parse_edge_list("# comment\ngraph 3\nedge 0 1 # trailing\n")
    assert g.m == 1
