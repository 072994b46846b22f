"""Shared test oracles, independent of the package's own arithmetic paths."""

import cmath
import math
import random
from collections import deque

import numpy as np
import pytest

from gaincover import (GainGraph, Graph, GroupSpec, IntPoly, TwoEvCertificate,
                       complete_bipartite)
from gaincover.errors import DisconnectedError, ParameterError
from gaincover.gains import CoverGraph
from gaincover.intpoly import integer_roots, poly_gcd


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


def edge_lift(f: GainGraph) -> CoverGraph:
    """The lift built one edge at a time (test-local oracle for `lift`): edge
    (u, v), walked u -> v with u < v, joins (u, j) = u*r + j to (v, act[j])
    for each sheet j, act being the sheet action of its gain."""
    r = f.group.sheet_count
    edges = []
    for (u, v), g in f.gains.items():
        act = f.group.sheet_action(g)
        for j in range(r):
            edges.append((u * r + j, v * r + act[j]))
    return CoverGraph(Graph(f.base.n * r, edges), f.base, r)


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


def lift_fiber_two_ev(f: GainGraph, cover: CoverGraph):
    """Exact two-eigenvalue certificate of a built lift, or None (test-local
    oracle for `spectral.fiber_two_ev`, which decides from the gains).

    Squares the lift's adjacency A and checks that every r x r block of
    A^2 - lambda*A - k*I has constant rows, with lambda read from one edge
    block; the multiplicities follow from the zero trace of A on the vectors
    that sum to zero on every fiber.
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
    else:
        assert lam == 0 and dim % 2 == 0
        sq = math.sqrt(lam * lam + 4 * k)
        theta, tau = (lam + sq) / 2.0, (lam - sq) / 2.0
        m_theta = m_tau = dim // 2
    return TwoEvCertificate(is_two_ev=True, theta=theta, tau=tau, mult_theta=m_theta,
                            mult_tau=m_tau, lambda_=lam, mu=k,
                            cover_connected=len(bfs_components(cover.graph)) == 1,
                            new_distinct=2)


def bfs_components(g: Graph):
    """Vertex sets of the connected components, each sorted, ordered by
    minimum (test-local oracle for `connected_components`): one BFS per
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


@pytest.fixture
def rng():
    return random.Random(20240817)
