import itertools
import random

import numpy as np
import pytest

from gaincover import (GainGraph, Graph, GroupSpec, char_poly, complete_graph,
                       cycle, identity_gains, is_balanced, lift, normalize,
                       parse_edge_list, parse_gain_file, petersen,
                       write_gain_file)
from gaincover.errors import DisconnectedError, ParameterError, ParseError
from gaincover.families import huang_signing, s3_cover_k5
from gaincover.gains import sheet_table
from gaincover.graphs import MAX_VERTICES, bfs_tree

from conftest import (bfs_components, edge_lift, element_to_sheet, random_graph,
                      sheet_action, sheet_to_element)


def random_gain(rng: random.Random, base: Graph, group: GroupSpec) -> GainGraph:
    gains = {}
    for e in base.edges:
        gains[e] = tuple(rng.randrange(r) for r in group.orders)
    return GainGraph(base, group, gains)


# ---------------------------------------------------------------------------
# groups


def test_group_spec_validation():
    with pytest.raises(ParameterError):
        GroupSpec.cyclic(1)
    with pytest.raises(ParameterError):
        GroupSpec.abelian(2, 1)
    with pytest.raises(ParameterError):
        GroupSpec.permutation(0)
    assert GroupSpec.cyclic(4).order == 4
    assert GroupSpec.abelian(2, 3).order == 6
    assert GroupSpec.permutation(3).sheet_count == 3


def test_abelian_ops():
    g = GroupSpec.abelian(2, 3)
    assert g.identity() == (0, 0)
    assert g.compose((1, 2), (1, 2)) == (0, 1)
    assert g.inverse((1, 2)) == (1, 1)
    els = g.elements()
    assert els == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for j, e in enumerate(els):
        assert element_to_sheet(g, e) == j
        assert sheet_to_element(g, j) == e


def test_permutation_ops():
    g = GroupSpec.permutation(3)
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert g.compose(a, b) == (1, 2, 0)  # a after b
    assert g.compose(a, g.inverse(a)) == g.identity()
    with pytest.raises(ParameterError):
        g.validate_element((0, 0, 1))
    with pytest.raises(ParameterError):
        g.elements()


def test_sheet_action_is_translation():
    g = GroupSpec.cyclic(5)
    assert sheet_table(g, [(2,)]).tolist() == [[(2 + j) % 5 for j in range(5)]]


# ---------------------------------------------------------------------------
# gain graphs and lifts


def test_gain_graph_validation():
    base = complete_graph(3)
    grp = GroupSpec.cyclic(2)
    with pytest.raises(ParameterError):
        GainGraph(base, grp, {(0, 1): (0,)})  # missing edges
    f = GainGraph(base, grp, {(0, 1): (1,), (0, 2): (0,), (2, 1): (1,)})
    # reversed key is stored inverted on the canonical orientation
    assert f.gain(1, 2) == (1,)
    assert f.gain(2, 1) == (1,)  # self-inverse in Z2


def test_gain_orientation_inverse():
    base = cycle(3)
    f = GainGraph(base, GroupSpec.cyclic(5), {(0, 1): (2,), (1, 2): (0,), (0, 2): (1,)})
    assert f.gain(0, 1) == (2,)
    assert f.gain(1, 0) == (3,)


def test_lift_identity_is_disjoint_copies():
    f = identity_gains(complete_graph(3), GroupSpec.cyclic(2))
    cov = lift(f)
    assert cov.graph.n == 6 and cov.graph.m == 6
    comps = bfs_components(cov.graph)
    assert len(comps) == 2
    assert all(len(c) == 3 for c in comps)


def test_lift_fiber_structure_random(rng):
    for _ in range(15):
        n = rng.randint(2, 6)
        base = random_graph(rng, n, 0.6)
        group = rng.choice([GroupSpec.cyclic(2), GroupSpec.cyclic(3),
                            GroupSpec.abelian(2, 2)])
        f = random_gain(rng, base, group)
        cov = lift(f)
        r = group.sheet_count
        assert cov.graph.n == n * r
        assert cov.graph.m == base.m * r
        edge_set = cov.graph.edges
        for v in range(n):
            fib = cov.fiber(v)
            # fibers are cocliques
            for i in range(r):
                for j in range(i + 1, r):
                    assert (fib[i], fib[j]) not in edge_set
        # each base edge lifts to a perfect matching between fibers
        for (u, v) in base.edges:
            matched = [(x, y) for x in cov.fiber(u) for y in cov.fiber(v)
                       if (min(x, y), max(x, y)) in edge_set]
            assert len(matched) == r
            assert len({x for x, _ in matched}) == r
            assert len({y for _, y in matched}) == r
        # covering map is a homomorphism onto the base
        assert {(min(x // r, y // r), max(x // r, y // r))
                for x, y in edge_set} == set(base.edges)


def test_abelian_translation_automorphism(rng):
    base = petersen()
    group = GroupSpec.abelian(2, 2)
    f = random_gain(rng, base, group)
    cov = lift(f)
    r = group.sheet_count
    for g in group.elements():
        act = sheet_action(group, g)
        perm = {v * r + j: v * r + act[j] for v in range(base.n) for j in range(r)}
        mapped = {(min(perm[x], perm[y]), max(perm[x], perm[y]))
                  for x, y in cov.graph.edges}
        assert mapped == set(cov.graph.edges)


@pytest.mark.parametrize("group", [GroupSpec.cyclic(5), GroupSpec.abelian(2, 2),
                                   GroupSpec.abelian(2, 3, 2), GroupSpec.abelian(3, 4),
                                   GroupSpec.permutation(3)])
def test_sheet_table_rows_are_the_sheet_actions(rng, group):
    if group.is_abelian:
        elements = group.elements()
    else:
        elements = [tuple(rng.sample(range(3), 3)) for _ in range(5)]
    table = sheet_table(group, elements)
    assert table.dtype == np.int64
    assert table.tolist() == [list(sheet_action(group, g)) for g in elements]
    assert sheet_table(group, []).shape == (0, group.sheet_count)


# ---------------------------------------------------------------------------
# normalization and balance


def test_normalize_fixed_point():
    f = identity_gains(complete_graph(4), GroupSpec.cyclic(3))
    assert normalize(f) == f


def test_normalize_tree_gains_identity_and_lift_preserved():
    f = huang_signing(3)
    tree = bfs_tree(f.base)
    g = normalize(f)
    assert all(g.gain(u, v) == (0,) for u, v in tree)
    assert char_poly(lift(g).graph) == char_poly(lift(f).graph)
    from gaincover import girth
    assert girth(lift(g).graph) == 6


def test_normalize_preserves_spectrum_random(rng):
    for _ in range(10):
        base = random_graph(rng, rng.randint(3, 6), 0.7)
        if len(bfs_components(base)) != 1:
            continue
        group = rng.choice([GroupSpec.cyclic(2), GroupSpec.cyclic(4),
                            GroupSpec.abelian(2, 3)])
        f = random_gain(rng, base, group)
        g = normalize(f)
        assert char_poly(lift(g).graph) == char_poly(lift(f).graph)


def test_normalize_cycle_concentrates_net_gain(rng):
    base = cycle(6)
    group = GroupSpec.cyclic(4)
    f = random_gain(rng, base, group)
    # net gain walking 0 -> 1 -> ... -> 5 -> 0
    net = 0
    for i in range(6):
        net = (net + f.gain(i, (i + 1) % 6)[0]) % 4
    g = normalize(f)
    cotree = [e for e in base.sorted_edges() if e not in set(bfs_tree(base))]
    assert len(cotree) == 1
    stored = g.gains[cotree[0]][0]
    # the surviving gain equals the cycle's net gain up to direction
    assert stored in ((net) % 4, (-net) % 4)
    tree_vals = [g.gains[e] for e in bfs_tree(base)]
    assert all(v == (0,) for v in tree_vals)


def test_normalize_requires_connected():
    base = Graph(4, [(0, 1), (2, 3)])
    f = identity_gains(base, GroupSpec.cyclic(2))
    with pytest.raises(DisconnectedError):
        normalize(f)


def test_normalize_permutation_gain():
    from gaincover.families import s3_cover_k5
    f = s3_cover_k5()
    g = normalize(f)
    tree = bfs_tree(f.base)
    ident = f.group.identity()
    assert all(g.gain(u, v) == ident for u, v in tree)
    assert char_poly(lift(g).graph) == char_poly(lift(f).graph)
    assert not is_balanced(f)


def test_lift_matches_edge_lift_oracle(rng):
    abelian = [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4),
               GroupSpec.abelian(2, 2), GroupSpec.abelian(2, 3)]
    gains = [s3_cover_k5()]
    for group in abelian:
        for _ in range(20):
            gains.append(random_gain(rng, random_graph(rng, rng.randint(2, 8), 0.5), group))
    for degree in (3, 4):
        perms = list(itertools.permutations(range(degree)))
        for _ in range(20):
            base = random_graph(rng, rng.randint(2, 7), 0.5)
            gains.append(GainGraph(base, GroupSpec.permutation(degree),
                                   {e: rng.choice(perms) for e in base.edges}))
    for group in abelian + [GroupSpec.permutation(3)]:
        gains += [identity_gains(Graph(1, []), group), identity_gains(Graph(4, []), group)]
    assert sum(f.base.m > 0 for f in gains) > 120
    for f in gains:
        assert lift(f) == edge_lift(f), f


def test_gain_graph_keeps_its_one_lift():
    f = huang_signing(3)
    assert f.cover is f.cover
    assert f.cover == lift(f)
    assert parse_gain_file(write_gain_file(f)) == f  # the lift is not part of equality


def test_input_beyond_the_vertex_limit_is_refused_before_it_is_built():
    for make in (lambda: GroupSpec.cyclic(MAX_VERTICES + 1),
                 lambda: GroupSpec.cyclic(10**20),
                 lambda: GroupSpec.abelian(64, 64, 2),
                 lambda: GroupSpec.permutation(MAX_VERTICES + 1)):
        with pytest.raises(ParameterError, match="exceed the limit"):
            make()
    assert GroupSpec.cyclic(MAX_VERTICES).sheet_count == MAX_VERTICES
    head = "gainfile 1\ngroup cyclic 2\n"
    with pytest.raises(ParseError, match="line 3: vertex count exceeds the limit"):
        parse_gain_file(head + f"vertices {MAX_VERTICES + 1}\n")
    with pytest.raises(ParseError, match="line 2: bad group line"):
        parse_gain_file("gainfile 1\ngroup cyclic 99999999999999999999\nvertices 2\n"
                        "edge 0 1 2\n")
    with pytest.raises(ParseError, match=f"{MAX_VERTICES // 2 + 1} x 2 vertices"):
        parse_gain_file(head + f"vertices {MAX_VERTICES // 2 + 1}\n")
    assert parse_gain_file(head + f"vertices {MAX_VERTICES // 2}\n").base.n == MAX_VERTICES // 2
    with pytest.raises(ParseError, match="line 1: vertex count exceeds the limit"):
        parse_edge_list(f"graph {MAX_VERTICES + 1}\n")
    assert parse_edge_list(f"graph {MAX_VERTICES}\n").n == MAX_VERTICES


def test_lift_single_vertex_base():
    base = Graph(1, [])
    f = identity_gains(base, GroupSpec.cyclic(2))
    cov = lift(f)
    assert cov.graph.n == 2 and cov.graph.m == 0
    assert len(bfs_components(cov.graph)) == 2


def test_is_balanced():
    assert is_balanced(identity_gains(complete_graph(4), GroupSpec.cyclic(3)))
    assert not is_balanced(huang_signing(2))
    k3 = complete_graph(3)
    f = GainGraph(k3, GroupSpec.cyclic(2),
                  {(0, 1): (1,), (1, 2): (1,), (0, 2): (0,)})
    assert is_balanced(f)
    assert len(bfs_components(lift(f).graph)) == 2


def test_balance_iff_r_base_copies(rng):
    # balanced exactly when the lift splits into r components with the
    # base's vertex and edge counts
    base = cycle(5)
    group = GroupSpec.cyclic(3)
    r = group.order
    for _ in range(20):
        f = random_gain(rng, base, group)
        cov = lift(f)
        comps = bfs_components(cov.graph)
        copies = (len(comps) == r
                  and all(len(c) == base.n for c in comps)
                  and cov.graph.m == base.m * r)
        assert is_balanced(f) == copies


def test_components_edge_cases():
    f = identity_gains(complete_graph(4), GroupSpec.cyclic(3))
    assert len(bfs_components(lift(f).graph)) == 3
    empty = identity_gains(Graph(3, []), GroupSpec.cyclic(2))
    assert len(bfs_components(lift(empty).graph)) == 6
    from gaincover.families import cohen_tits_cover
    assert len(bfs_components(cohen_tits_cover(3).graph)) == 1


# ---------------------------------------------------------------------------
# gain files


def test_gain_file_roundtrip_byte_identical():
    for f in (huang_signing(3),
              identity_gains(petersen(), GroupSpec.abelian(2, 2))):
        text = write_gain_file(f)
        parsed = parse_gain_file(text)
        assert parsed == f
        assert write_gain_file(parsed) == text
        assert "\r" not in text


def test_gain_file_permutation_roundtrip():
    from gaincover.families import s3_cover_k5
    f = s3_cover_k5()
    text = write_gain_file(f)
    assert "perm" in text
    assert parse_gain_file(text) == f
    assert write_gain_file(parse_gain_file(text)) == text


def test_gain_file_format_example():
    text = ("gainfile 1\n"
            "group cyclic 2\n"
            "vertices 3\n"
            "edge 0 1 1\n"
            "edge 0 2 0  # comment\n"
            "edge 1 2 1\n")
    f = parse_gain_file(text)
    assert f.group == GroupSpec.cyclic(2)
    assert f.gain(0, 1) == (1,)


def test_gain_file_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_gain_file("group cyclic 2\nvertices 2\nedge 0 1 0\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_gain_file("gainfile 1\ngroup cyclic 2\nvertices 2\nedge 0 1 7\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_gain_file("gainfile 1\ngroup cyclic 2\nvertices 2\nedge 0 0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_gain_file("gainfile 1\ngroup klein 4\nvertices 2\nedge 0 1 0\n")
    with pytest.raises(ParseError, match="line 5"):
        parse_gain_file("gainfile 1\ngroup cyclic 2\nvertices 3\n"
                        "edge 0 1 1\nedge 1 0 1\n")


def test_gain_file_rejects_a_second_vertices_line():
    # a larger second count used to add isolated vertices, and a smaller one
    # failed later with no line number
    for second in (5, 2):
        text = (f"gainfile 1\ngroup cyclic 2\nvertices 3\nedge 0 2 1\n"
                f"vertices {second}\nedge 0 1 0\n")
        with pytest.raises(ParseError, match="line 5: duplicate vertices line") as info:
            parse_gain_file(text)
        assert info.value.line == 5
