"""Shared test oracles, independent of the package's own arithmetic paths."""

import argparse
import cmath
import math
import random
from collections import deque

import numpy as np
import pytest

from gaincover import (GainGraph, Graph, GroupSpec, IntPoly, TwoEvCertificate,
                       complete_bipartite, search)
from gaincover.errors import DisconnectedError, ParameterError
from gaincover.gains import CoverGraph
from gaincover.intpoly import integer_roots
from gaincover.search import assignment_rows, gain_of_row
from gaincover.spectral import TOL, rep_matrix


def mul_poly(a, b):
    """Schoolbook product of ascending coefficient lists (test-local oracle)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_from_roots(roots):
    p = [1]
    for r in roots:
        p = mul_poly(p, [-r, 1])
    return p


def poly_pow(p: IntPoly, k):
    """p to the power k, as k products."""
    return math.prod([p] * k, start=IntPoly((1,)))


def _primitive(p: IntPoly) -> IntPoly:
    """p divided by the gcd of its coefficients (p itself when that is 0 or 1)."""
    g = math.gcd(*p.coeffs)
    return p if g in (0, 1) else IntPoly(c // g for c in p.coeffs)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, exact in Z[x]."""
    d = a.degree - b.degree
    lc = b.coeffs[-1]
    rem = list(a.scale(lc ** (d + 1)).coeffs)
    bc = b.coeffs
    db = b.degree
    for i in range(len(rem) - 1, db - 1, -1):
        q, r = divmod(rem[i], lc)
        assert r == 0  # guaranteed by the pseudo-remainder scaling
        if q == 0:
            continue
        for j in range(db + 1):
            rem[i - db + j] -= q * bc[j]
    return IntPoly(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] via the primitive pseudo-remainder sequence;
    positive leading coefficient (test-local oracle for the modular gcd of
    `squarefree_part`)."""
    a = _primitive(a)
    b = _primitive(b)
    if a.is_zero:
        g = b
    elif b.is_zero:
        g = a
    else:
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero:
            r = _primitive(_pseudo_rem(a, b))
            a, b = b, r
        g = a
    if not g.is_zero and g.coeffs[-1] < 0:
        g = g.scale(-1)
    return g


def prs_squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') of a monic p by the PRS gcd (test-local oracle for
    `squarefree_part`)."""
    if p.degree <= 0:
        return p
    return p.div_exact(poly_gcd(p, p.derivative()))


def squarefree_decomposition(p: IntPoly):
    """Yun's algorithm for monic p: pairs (factor, multiplicity) with
    p = prod factor^multiplicity, each factor monic and square-free."""
    if not p.is_monic:
        raise ValueError("decomposition requires a monic polynomial")
    if p.degree <= 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    b = p.div_exact(g)
    c = p.derivative().div_exact(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.div_exact(a)
        c = d.div_exact(a)
        d = c - b.derivative()
        i += 1
    return out


def poly_real_roots(p: IntPoly):
    """Real root multiset of a monic integer polynomial, sorted ascending.

    The exact square-free decomposition isolates each factor with simple
    roots, so numeric rooting stays well conditioned even when the original
    polynomial has high-multiplicity roots (char polys usually do).
    """
    vals = []
    for factor, mult in squarefree_decomposition(p):
        roots = np.roots(list(reversed(factor.coeffs)))
        vals.extend(float(r.real) for r in roots for _ in range(mult))
    return np.sort(np.asarray(vals))


def brute_force_walk_regular(g: Graph) -> bool:
    """Literally check that diag(A^k) is constant for k = 1..n-1, over Z."""
    a = g.adjacency().astype(object)
    power = a.copy()
    for _ in range(1, g.n):
        d = power.diagonal().tolist()
        if any(x != d[0] for x in d):
            return False
        power = np.dot(power, a)
    return True


def sheet_to_element(group: GroupSpec, j):
    """The abelian group element of sheet j: j's mixed-radix digits."""
    out = []
    for r in reversed(group.orders):
        out.append(j % r)
        j //= r
    return tuple(reversed(out))


def element_to_sheet(group: GroupSpec, g):
    """The sheet of abelian group element g: its mixed-radix value."""
    j = 0
    for x, r in zip(g, group.orders):
        j = j * r + x
    return j


def sheet_action(group: GroupSpec, g):
    """The permutation of sheets 0..r-1 induced by gain g, as a tuple
    (test-local oracle for `gains.sheet_table`): an abelian g translates the
    element of each sheet, a permutation g is its own image list."""
    if group.is_abelian:
        return tuple(element_to_sheet(group, group.compose(g, sheet_to_element(group, j)))
                     for j in range(group.sheet_count))
    return tuple(g)


def spec_gains(spec):
    """The gain graph of every row of `search.assignment_rows(spec)`, in its order."""
    return [gain_of_row(spec, row) for rows in assignment_rows(spec) for row in rows]


def edge_lift(f: GainGraph) -> CoverGraph:
    """The lift built one edge at a time (test-local oracle for `lift`): edge
    (u, v), walked u -> v with u < v, joins (u, j) = u*r + j to (v, act[j])
    for each sheet j, act being the sheet action of its gain."""
    r = f.group.sheet_count
    edges = []
    for (u, v), g in f.gains.items():
        act = sheet_action(f.group, g)
        for j in range(r):
            edges.append((u * r + j, v * r + act[j]))
    return CoverGraph(Graph(f.base.n * r, edges), f.base, r, f.group.translations)


def edge_rep_matrix(f: GainGraph, j):
    """Character matrix S_j built one edge at a time (test-local oracle for
    `rep_matrix`): entry (u, v), u < v, is prod_p exp(2*pi*i * j_p g_p / r_p)
    of the stored gain g, and (v, u) is its conjugate."""
    s = np.zeros((f.base.n, f.base.n), dtype=np.complex128)
    for (u, v), g in f.gains.items():
        ang = sum(jp * gp / rp for jp, gp, rp in zip(j, g, f.group.orders))
        s[u, v] = cmath.exp(2j * math.pi * ang)
        s[v, u] = s[u, v].conjugate()
    return s


def block_check_oracle(f: GainGraph):
    """(ok, dev) of the block-decomposition audit of one abelian gain graph
    (test-local oracle for `spectral.character_block_check`, which audits a
    batch from the gains): the eigenvalues of the built lift `f.cover` against
    the sorted union of one `rep_matrix` spectrum per character, each matrix
    solved on its own."""
    union = np.sort(np.concatenate([np.linalg.eigvalsh(rep_matrix(f, j))
                                    for j in f.group.elements()]))
    adj = f.cover.graph.adjacency(dtype=np.float64)
    dev = float(np.abs(union - np.linalg.eigvalsh(adj)).max(initial=0.0))
    return dev <= TOL * max(1.0, float(adj.sum(axis=1).max(initial=0.0))), dev


def lift_fiber_two_ev(f: GainGraph, cover: CoverGraph):
    """Exact two-eigenvalue certificate of a built lift, or None (test-local
    oracle for `spectral.fiber_two_ev`, which decides from the gains).

    Squares the lift's adjacency A and checks that every r x r block of
    A^2 - lambda*A - k*I has constant rows, with lambda read from one edge
    block; the multiplicities follow from the zero trace of A on the vectors
    that sum to zero on every fiber, and new_poly is the schoolbook product of
    their linear factors (of x^2 - k for irrational roots).
    """
    base, r = f.base, cover.r
    if r < 2 or not base.edges or not base.is_regular():
        return None
    n, k = base.n, base.degrees[0]
    a = cover.graph.adjacency()
    a2 = a @ a
    u, v = min(base.edges)
    s = int(a[u * r, v * r:(v + 1) * r].argmax())
    lam = int(a2[u * r, v * r + s] - a2[u * r, v * r + (s + 1) % r])
    blocks = (a2 - lam * a - k * np.eye(n * r, dtype=a.dtype)).reshape(n, r, n, r)
    if not (blocks == blocks[:, :, :, :1]).all():
        return None
    dim = n * (r - 1)
    roots = integer_roots(IntPoly((-k, -lam, 1)))
    if roots:
        hi, lo = sorted(roots, reverse=True)
        m_theta, rem = divmod(-dim * lo, hi - lo)
        assert rem == 0
        theta, tau, m_tau = float(hi), float(lo), dim - m_theta
        new_poly = IntPoly(poly_from_roots([hi] * m_theta + [lo] * m_tau))
    else:
        assert lam == 0 and dim % 2 == 0
        sq = math.sqrt(lam * lam + 4 * k)
        theta, tau = (lam + sq) / 2.0, (lam - sq) / 2.0
        m_theta = m_tau = dim // 2
        new_poly = poly_pow(IntPoly((-k, 0, 1)), m_theta)
    return TwoEvCertificate(is_two_ev=True, theta=theta, tau=tau, mult_theta=m_theta,
                            mult_tau=m_tau, lambda_=lam, mu=k,
                            cover_connected=len(bfs_components(cover.graph)) == 1,
                            new_distinct=2, new_poly=new_poly)


def bfs_components(g: Graph):
    """Vertex sets of the connected components, each sorted, ordered by
    minimum (test-local oracle for `is_connected`): one BFS per
    component over the neighbour lists."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def random_graph(rng: random.Random, n, p=0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _edge_list_neighbours(g: Graph):
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(g: Graph):
    """All-pairs hop distances as nested lists, -1 for unreachable pairs
    (test-local oracle for `distances`): one BFS per source over the edge
    list."""
    adj = _edge_list_neighbours(g)
    table = []
    for u in range(g.n):
        dist = [-1] * g.n
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        table.append(dist)
    return table


def bfs_girth(g: Graph):
    """Length of the shortest cycle, or None for forests (test-local oracle
    for `girth`).

    BFS from every vertex; every non-tree edge (u,v) reachable from the root
    witnesses a closed walk of length dist[u]+dist[v]+1, and the minimum over
    all roots is exact because a shortest cycle is isometric. A root's search
    stops once no shorter cycle can be closed. O(n*m).
    """
    best = None
    nbrs = g.neighbors
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and dist[u] * 2 >= best:
                continue
            for w in nbrs[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def intersection_array(g: Graph):
    """((b_0..b_{d-1}), (c_1..c_d)) of a connected graph, or None when it is
    not distance-regular.

    Test-local oracle: `bfs_distances` over the edge list, then for every pair
    (u, v) at distance i count the neighbours of v at distance i+1 (b_i) and
    i-1 (c_i) from u; the graph is distance-regular iff every count depends
    on i alone (b_0 constant makes it regular, so a_i follows).
    """
    adj = _edge_list_neighbours(g)
    b, c = {}, {}
    for dist in bfs_distances(g):
        assert -1 not in dist, "the oracle is defined on connected graphs"
        for v in range(g.n):
            i = dist[v]
            bi = sum(dist[w] == i + 1 for w in adj[v])
            ci = sum(dist[w] == i - 1 for w in adj[v])
            if b.setdefault(i, bi) != bi or c.setdefault(i, ci) != ci:
                return None
    d = max(b)
    return tuple(b[i] for i in range(d)), tuple(c[i] for i in range(1, d + 1))


def distance_partition(g: Graph, v):
    """Cells of vertices at distance 0, 1, ..., ecc(v) from v; connected only."""
    table = g.distance_table
    if not table.is_connected():
        raise DisconnectedError("distance partition requires a connected graph")
    dist = table.dist[v].tolist()
    cells = [[] for _ in range(max(dist) + 1)]
    for u, d in enumerate(dist):
        cells[d].append(u)
    return tuple(tuple(c) for c in cells)


def is_equitable(g: Graph, partition):
    """The cell-to-cell degree matrix if the partition is equitable, else None."""
    cells = [tuple(c) for c in partition]
    cell_of = {}
    for i, cell in enumerate(cells):
        for v in cell:
            if not 0 <= v < g.n:
                raise ParameterError(f"vertex {v} out of range")
            if v in cell_of:
                raise ParameterError(f"vertex {v} appears in two cells")
            cell_of[v] = i
    if len(cell_of) != g.n:
        raise ParameterError("partition must cover every vertex exactly once")
    k = len(cells)
    quotient = []
    for i, cell in enumerate(cells):
        row = None
        for v in cell:
            counts = [0] * k
            for w in g.neighbors[v]:
                counts[cell_of[w]] += 1
            if row is None:
                row = counts
            elif counts != row:
                return None
        quotient.append(tuple(row))
    return tuple(quotient)


def partition_distance_regular(g: Graph):
    """((b_0..b_{d-1}), (c_1..c_d)) when the distance partition from every
    vertex is equitable with one common quotient; None otherwise, and for a
    single vertex.

    Test-local oracle for `is_distance_regular`, by the equitable-partition
    definition: one `is_equitable` pass per vertex over the neighbour lists.
    """
    if len(bfs_components(g)) > 1:
        raise DisconnectedError("distance-regularity requires a connected graph")
    if not g.is_regular():
        return None
    quotients = {is_equitable(g, distance_partition(g, v)) for v in range(g.n)}
    if len(quotients) != 1 or None in quotients:
        return None
    [common] = quotients
    d = len(common) - 1
    if d == 0:
        return None
    # the quotient of a distance partition is tridiagonal by construction
    return (tuple(common[i][i + 1] for i in range(d)),
            tuple(common[i + 1][i] for i in range(d)))


def gf4_mul(x, y):
    """Product in GF(4) = GF(2)[a]/(a^2 + a + 1), elements as 2-bit integers."""
    p = (x if y & 1 else 0) ^ (x << 1 if y & 2 else 0)
    return p ^ 0b111 if p & 0b100 else p


def klein_gf4_gain() -> GainGraph:
    """Z2 x Z2 gain on K_{4,4}: left j to right k carries j*k in GF(4), read
    as its two bits. Every nontrivial character turns the gain matrix into a
    real Hadamard matrix of order 4."""
    gains = {}
    for j in range(4):
        for k in range(4):
            p = gf4_mul(j, k)
            gains[(j, 4 + k)] = (p & 1, p >> 1)
    return GainGraph(complete_bipartite(4, 4), GroupSpec.abelian(2, 2), gains)


def plant_audit_failures(monkeypatch, failing):
    """Make the audit of the first batch fail on the rows numbered in failing,
    the k-th of them with deviation (k + 1) / 8; return the batches audited."""
    real = search.character_block_check
    audited = []

    def planted(base, group, table, rows):
        ok, dev = real(base, group, table, rows)
        if not audited:
            ok[failing] = False
            dev[failing] = (1 + np.arange(len(failing))) / 8
        audited.append(rows)
        return ok, dev

    monkeypatch.setattr(search, "character_block_check", planted)
    return audited


def command_parsers(parser, path=()):
    """(command path, parser) for parser and each parser nested under it,
    each parser once: an alias names the same parser as its subcommand."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for name, child in action.choices.items():
                if id(child) not in seen:
                    seen.add(id(child))
                    yield from command_parsers(child, (*path, name))


@pytest.fixture
def rng():
    return random.Random(20240817)
