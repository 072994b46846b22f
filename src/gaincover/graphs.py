"""Undirected simple graphs, canonical generators, and combinatorial queries.

Vertices are always 0..n-1. Generators use canonical labels (hypercube:
bitstrings as integers; kneser/johnson: lexicographic rank of the k-subset)
so adjacency matrices are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import DisconnectedError, EmptyGraphError, ParameterError, ParseError

UNREACHABLE = -1

# the most vertices of a graph or cover built from input (an n x n int64 array
# is then 128 MiB; every test and benchmark cover has at most 256 vertices)
MAX_VERTICES = 4096


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __init__(self, n, edges):
        n = int(n)
        if n < 0:
            raise ParameterError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def neighbors(self):
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self):
        return tuple(len(a) for a in self.neighbors)

    @cached_property
    def distance_table(self):
        """The `distances` table, every vertex a source, built once per graph."""
        return distances(self)

    @cached_property
    def edge_array(self):
        """`sorted_edges()` as a read-only (m, 2) int64 array."""
        e = np.fromiter(chain.from_iterable(sorted(self.edges)), np.int64).reshape(-1, 2)
        e.flags.writeable = False
        return e

    def is_regular(self):
        return self.n == 0 or len(set(self.degrees)) == 1

    def adjacency(self, dtype=np.int64):
        """A fresh 0/1 adjacency matrix, scattered from `edge_array`."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        u, v = self.edge_array.T
        a[u, v] = a[v, u] = 1
        return a

    def sorted_edges(self):
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# the trivial group's translations: every vertex is a source
NO_TRANSLATIONS = np.zeros((1, 1), dtype=np.int64)


@dataclass(frozen=True)
class DistanceTable:
    """Hop distances from one source per orbit of a group of automorphisms
    (UNREACHABLE elsewhere) and the girth (None for forests); row t of the (w, w)
    `translations` sends v*w + j to v*w + translations[t, j], 0 to t; row v is from v*w."""

    dist: np.ndarray
    girth: int | None
    translations: np.ndarray

    def __post_init__(self):
        self.dist.flags.writeable = False

    def diameter(self):
        """Largest finite distance; None for the empty graph."""
        return int(self.dist.max(initial=0)) if self.dist.shape[1] else None

    def is_connected(self):
        return self.dist.shape[1] <= 1 or not (self.dist[0] == UNREACHABLE).any()


def distances(g: Graph, translations=NO_TRANSLATIONS) -> DistanceTable:
    """The `DistanceTable` of g from the sources of `translations` (by
    default every vertex), by one frontier expansion from all of them at once.

    With L the 0/1 matrix of the pairs at distance d, (L @ A)[u, v] counts the
    neighbours of v at distance d from u, and the pairs it reaches that are
    not yet reached are at distance d + 1. A v at distance d from u with a
    neighbour also at distance d closes a walk of odd length 2d + 1; a v at
    distance d + 1 with two neighbours at distance d closes one of even
    length 2d + 2. A shortest cycle is isometric, and an automorphism moves
    one through any vertex onto one through a source, so the first d with
    either witness gives the girth. Float64 keeps the matmul on BLAS; the
    counts are at most the valency, so they are exact.
    """
    a = g.adjacency(dtype=np.float64)
    frontier = np.eye(g.n, dtype=bool)[::len(translations)]
    dist = np.full(frontier.shape, UNREACHABLE, dtype=np.int64)
    reached = frontier.copy()
    best = None
    d = 0
    while frontier.any():
        dist[frontier] = d
        count = frontier.astype(np.float64) @ a
        hit = count > 0
        step = hit & ~reached
        if best is None:
            if (frontier & hit).any():
                best = 2 * d + 1
            elif (step & (count >= 2)).any():
                best = 2 * d + 2
        reached |= step
        frontier = step
        d += 1
    return DistanceTable(dist, best, translations)


def is_connected(x) -> bool:
    return x.distance_table.is_connected()


def bfs_tree(g: Graph):
    """Edges of a BFS spanning tree from vertex 0; DisconnectedError if not
    spanning."""
    if g.n == 0:
        return ()
    seen = [False] * g.n
    seen[0] = True
    order = deque([0])
    tree = []
    while order:
        u = order.popleft()
        for w in g.neighbors[u]:
            if not seen[w]:
                seen[w] = True
                tree.append((min(u, w), max(u, w)))
                order.append(w)
    if len(tree) != g.n - 1:
        raise DisconnectedError("graph is not connected; no spanning tree")
    return tuple(sorted(tree))


def girth(x):
    """Shortest cycle length of x, a graph or a lift; None for forests."""
    return x.distance_table.girth


# ---------------------------------------------------------------------------
# generators


def complete_graph(n) -> Graph:
    if n == 0:
        raise EmptyGraphError("complete graph needs at least one vertex")
    if n < 0:
        raise ParameterError("n must be positive")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(m, n) -> Graph:
    if m < 1 or n < 1:
        raise ParameterError("both sides must be non-empty")
    return Graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def complete_multipartite(*sizes) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex ranges."""
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("part sizes must be positive")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    n = starts[-1]
    part = [0] * n
    for i, s in enumerate(sizes):
        for v in range(starts[i], starts[i + 1]):
            part[v] = i
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]))


def octahedron() -> Graph:
    return complete_multipartite(2, 2, 2)


def cycle(n) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def hypercube(n) -> Graph:
    """n-dimensional hypercube; vertex v is the bitstring of v."""
    if n < 0:
        raise ParameterError("dimension must be non-negative")
    size = 1 << n
    return Graph(size, ((v, v ^ (1 << b)) for v in range(size) for b in range(n) if v < v ^ (1 << b)))


def folded_cube(n) -> Graph:
    """Hypercube of dimension n-1 plus a perfect matching between antipodes."""
    if n < 2:
        raise ParameterError("folded cube needs dimension at least 2")
    q = hypercube(n - 1)
    size = 1 << (n - 1)
    mask = size - 1
    extra = ((v, v ^ mask) for v in range(size) if v < v ^ mask)
    return Graph(size, set(q.edges) | {tuple(sorted(e)) for e in extra})


def _ksubsets(n, k):
    return list(combinations(range(n), k))


def kneser(n, k) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint; vertices in lex order."""
    if k < 1 or n < 2 * k:
        raise ParameterError("kneser graph requires n >= 2k >= 2")
    subs = _ksubsets(n, k)
    sets = [frozenset(s) for s in subs]
    edges = [(i, j) for i in range(len(subs)) for j in range(i + 1, len(subs))
             if not (sets[i] & sets[j])]
    return Graph(len(subs), edges)


def johnson(n, k) -> Graph:
    """k-subsets of an n-set, adjacent when the intersection has size k-1."""
    if k < 1 or n < k:
        raise ParameterError("johnson graph requires n >= k >= 1")
    subs = _ksubsets(n, k)
    sets = [frozenset(s) for s in subs]
    edges = [(i, j) for i in range(len(subs)) for j in range(i + 1, len(subs))
             if len(sets[i] & sets[j]) == k - 1]
    return Graph(len(subs), edges)


def petersen() -> Graph:
    return kneser(5, 2)


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g in sorted order; adjacency is sharing an endpoint."""
    es = g.sorted_edges()
    idx = {e: i for i, e in enumerate(es)}
    out = set()
    for v in range(g.n):
        inc = [idx[(min(v, w), max(v, w))] for w in g.neighbors[v]]
        for a, b in combinations(sorted(inc), 2):
            out.add((a, b))
    return Graph(len(es), out)


# ---------------------------------------------------------------------------
# edge-list text format: "graph <n>" then one "edge u v" per line, '#' comments


def write_edge_list(g: Graph) -> str:
    lines = [f"graph {g.n}"]
    lines.extend(f"edge {u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_vertex_count(fields, ln):
    """n of a '<keyword> <n>' header line; at least 1 and at most MAX_VERTICES."""
    if len(fields) != 2:
        raise ParseError(f"expected '{fields[0]} <n>'", ln)
    try:
        n = int(fields[1])
    except ValueError:
        raise ParseError("vertex count is not an integer", ln) from None
    if n < 1:
        raise ParseError("vertex count must be positive", ln)
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count exceeds the limit of {MAX_VERTICES}", ln)
    return n


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "graph":
            if n is not None:
                raise ParseError("duplicate graph header", ln)
            n = parse_vertex_count(fields, ln)
        elif fields[0] == "edge":
            if n is None:
                raise ParseError("edge before graph header", ln)
            if len(fields) != 3:
                raise ParseError("expected 'edge <u> <v>'", ln)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("edge endpoints are not integers", ln) from None
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"invalid edge ({u},{v})", ln)
            key = (min(u, v), max(u, v))
            if key in edges:
                raise ParseError(f"duplicate edge ({u},{v})", ln)
            edges.add(key)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", ln)
    if n is None:
        raise ParseError("missing graph header", 1)
    return Graph(n, edges)
