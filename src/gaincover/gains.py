"""Gain graphs over finite abelian groups and small permutation groups.

A gain assigns a group element to each edge, stored once per undirected edge
for the orientation min(u,v) -> max(u,v); traversing the edge the other way
applies the inverse, so the symmetric arc condition holds by construction.

Abelian group elements are residue tuples; the lift's sheet set is the group
element set in lexicographic order, so applying a gain to a sheet is
componentwise addition (the group acting on itself by translation).
Permutation gains are image tuples acting on sheets {0..r-1} directly; they
are supported at lift level only, with no character machinery.

Only this module builds the array form of a gain (`sheet_table`, `gain_row`)
and the cover layout (`cover_arcs`: vertex (v, j) is v*r + j); `lift` builds
from them, and `GainGraph.row` and `GainGraph.cover` keep a gain graph's one
row and one lift. A gain is checked once, when the gain graph is built: the
parser checks each on its line, and a search's row indexes the elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, ParseError
from .graphs import (MAX_VERTICES, NO_TRANSLATIONS, Graph, bfs_tree, distances,
                     parse_vertex_count)

ABELIAN = "abelian"
PERMUTATION = "permutation"


@dataclass(frozen=True)
class GroupSpec:
    """Finite gain group: a product of cyclic groups, or Sym(degree) acting on sheets."""

    kind: str
    orders: tuple = ()
    degree: int = 0

    def __post_init__(self):
        if self.kind == ABELIAN:
            if not self.orders or any(r < 2 for r in self.orders):
                raise ParameterError("cyclic orders must all be at least 2")
        elif self.kind == PERMUTATION:
            if self.degree < 1:
                raise ParameterError("permutation degree must be positive")
        else:
            raise ParameterError(f"unknown group kind {self.kind!r}")
        if self.sheet_count > MAX_VERTICES:
            raise ParameterError(f"{self.sheet_count} sheets exceed the limit of "
                                 f"{MAX_VERTICES} cover vertices")

    @classmethod
    def cyclic(cls, r):
        return cls(ABELIAN, orders=(int(r),))

    @classmethod
    def abelian(cls, *orders):
        return cls(ABELIAN, orders=tuple(int(r) for r in orders))

    @classmethod
    def permutation(cls, degree):
        return cls(PERMUTATION, degree=int(degree))

    @property
    def is_abelian(self):
        return self.kind == ABELIAN

    @property
    def sheet_count(self):
        """Fiber size of a lift: the group order (abelian) or the degree acted on."""
        if self.is_abelian:
            n = 1
            for r in self.orders:
                n *= r
            return n
        return self.degree

    @property
    def order(self):
        if not self.is_abelian:
            raise ParameterError("permutation gain groups are used through their action only")
        return self.sheet_count

    def identity(self):
        if self.is_abelian:
            return (0,) * len(self.orders)
        return tuple(range(self.degree))

    def inverse(self, g):
        if self.is_abelian:
            return tuple((-x) % r for x, r in zip(g, self.orders))
        inv = [0] * self.degree
        for i, x in enumerate(g):
            inv[x] = i
        return tuple(inv)

    def compose(self, a, b):
        """a after b: for permutations (a.b)(x) = a(b(x)); addition when abelian."""
        if self.is_abelian:
            return tuple((x + y) % r for x, y, r in zip(a, b, self.orders))
        return tuple(a[b[x]] for x in range(self.degree))

    def validate_element(self, g):
        """g as a tuple of ints, once it is an element: a residue tuple (looked
        up in the cached set of elements) or a permutation of the sheets."""
        g = tuple(map(int, g))
        if self.is_abelian:
            if g not in self._element_set:
                raise ParameterError(f"residue tuple {g} invalid for orders {self.orders}")
        elif sorted(g) != list(range(self.degree)):
            raise ParameterError(f"{g} is not a permutation of 0..{self.degree - 1}")
        return g

    def elements(self):
        """All elements in lexicographic order (abelian only)."""
        if not self.is_abelian:
            raise ParameterError("permutation groups are not enumerated")
        out = [()]
        for r in self.orders:
            out = [e + (x,) for e in out for x in range(r)]
        return out

    @cached_property
    def _element_set(self):
        return frozenset(self.elements())

    @cached_property
    def translations(self):
        """A lift's translations: the `sheet_table` of every element, or none."""
        return sheet_table(self, self.elements()) if self.is_abelian else NO_TRANSLATIONS

    def describe(self):
        if self.is_abelian:
            if len(self.orders) == 1:
                return f"cyclic {self.orders[0]}"
            return "abelian " + " ".join(str(r) for r in self.orders)
        return f"perm {self.degree}"


@dataclass(frozen=True, eq=False)
class GainGraph:
    """Base graph plus one gain per edge, keyed by the (u,v) u<v orientation."""

    base: Graph
    group: GroupSpec
    gains: dict

    def __init__(self, base, group, gains):
        stored = {}
        for (u, v), g in gains.items():
            if u > v:
                u, v, g = v, u, group.inverse(g)
            stored[(u, v)] = group.validate_element(g)
        if set(stored) != set(base.edges):
            missing = set(base.edges) - set(stored)
            extra = set(stored) - set(base.edges)
            raise ParameterError(f"gains must cover the edge set exactly "
                                 f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gains", stored)

    @classmethod
    def _checked(cls, base, group, gains, row=None):
        """The gain graph of gains already checked: valid elements of group,
        keyed by exactly base's edges (u, v), u < v. row, when given, is its
        `row`, in the form of `gain_row` on some sheet table."""
        f = object.__new__(cls)
        for name, value in (("base", base), ("group", group), ("gains", gains)):
            object.__setattr__(f, name, value)
        if row is not None:
            f.__dict__["row"] = row
        return f

    def gain(self, u, v):
        """Gain for walking u -> v (inverse of the stored value when u > v)."""
        if u < v:
            return self.gains[(u, v)]
        return self.group.inverse(self.gains[(v, u)])

    def __eq__(self, other):
        return (isinstance(other, GainGraph) and self.base == other.base
                and self.group == other.group and self.gains == other.gains)

    def __hash__(self):
        return hash((self.base, self.group, tuple(sorted(self.gains.items()))))

    def __repr__(self):
        return f"GainGraph(n={self.base.n}, m={self.base.m}, group={self.group.describe()})"

    @cached_property
    def row(self):
        """The `gain_row` of this gain graph, built once; a gain graph that a
        search built from its row has that row on the group's `translations`."""
        return gain_row(self)

    @cached_property
    def cover(self):
        """The `lift` of this gain graph, built once."""
        return lift(self)


def identity_gains(base: Graph, group: GroupSpec) -> GainGraph:
    e = group.identity()
    return GainGraph(base, group, {edge: e for edge in base.edges})


@dataclass(frozen=True)
class CoverGraph:
    """Lifted graph, vertex (v, j) stored as v*r + j; `graphs.DistanceTable` translations."""

    graph: Graph
    base: Graph
    r: int
    translations: np.ndarray = field(compare=False)

    @cached_property
    def distance_table(self):
        """The `graphs.distances` rows of the sources, built once per lift."""
        return distances(self.graph, self.translations)

    def fiber(self, v):
        return tuple(v * self.r + j for j in range(self.r))

    def fibers(self):
        return tuple(self.fiber(v) for v in range(self.base.n))


def sheet_table(group, elements) -> np.ndarray:
    """Sheet actions of `elements` as an int64 array, one row per element: row
    i sends sheet j to sheet table[i, j].

    For an abelian group, sheet j is the j-th element in lexicographic order,
    so the table is the mixed-radix index of element + sheet, reduced mod the
    orders, for every pair at once.
    """
    if not group.is_abelian:
        return np.array(elements, dtype=np.int64).reshape(len(elements), group.degree)
    orders = group.orders
    g = np.array(elements, dtype=np.int64).reshape(len(elements), 1, len(orders))
    sheets = np.indices(orders).reshape(len(orders), -1).T
    weights = np.cumprod((orders[1:] + (1,))[::-1])[::-1]
    return (g + sheets) % orders @ weights


def gain_row(f: GainGraph):
    """f as a batch of one: (table, rows) with the sheet table of f's distinct
    gains, and one row that indexes it, with one column per edge of
    f.base.sorted_edges()."""
    elements = sorted(set(f.gains.values()))
    index = {g: i for i, g in enumerate(elements)}
    row = [index[f.gains[e]] for e in f.base.sorted_edges()]
    return sheet_table(f.group, elements), np.array([row], dtype=np.int64)


def cover_arcs(base: Graph, act):
    """Arcs of the lifts of base whose sheet actions are `act`.

    act has shape (..., m, r): edge i of base.sorted_edges(), walked min ->
    max, sends sheet j to act[..., i, j]. Cover vertex (v, j) is v*r + j.
    Returns (src, dst), int64 arrays of shapes (m, r) and act's, which
    broadcast: each lift has the edges src[i, j] -- dst[..., i, j].
    """
    r = act.shape[-1]
    tail, head = base.edge_array.T
    return tail[:, None] * r + np.arange(r), head[:, None] * r + act


def lift(f: GainGraph) -> CoverGraph:
    """The cover: (u, j) ~ (v, k) iff {u,v} is a base edge and the gain sends j to k.

    Sheets transform by the stored gain when walking min -> max. For abelian
    gains this is translation on the group's own element set, so relabeling
    every fiber by a fixed group element is an automorphism of the lift.
    """
    table, rows = f.row
    src, dst = cover_arcs(f.base, table[rows[0]])
    r = f.group.sheet_count
    return CoverGraph(Graph(f.base.n * r, zip(src.ravel().tolist(), dst.ravel().tolist())),
                      f.base, r, f.group.translations)


def normalize(f: GainGraph) -> GainGraph:
    """Equivalent gain graph whose gains are the identity on the BFS tree
    from vertex 0 (`bfs_tree`), which makes every edge at vertex 0 gain-free.

    Walks the tree from vertex 0 applying per-fiber relabelings; the lift of
    the result is isomorphic to the lift of the input.
    """
    grp = f.group
    adj = {v: [] for v in range(f.base.n)}
    for u, v in bfs_tree(f.base):
        adj[u].append(v)
        adj[v].append(u)

    # sigma[v] relabels the fiber over v; new gain for u->v is
    # sigma_v^-1 . gain(u->v) . sigma_u, so tree children take
    # sigma_child = gain(parent->child) . sigma_parent.
    sigma = {0: grp.identity()}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in sigma:
                sigma[w] = grp.compose(f.gain(u, w), sigma[u])
                stack.append(w)

    new_gains = {}
    for (u, v), g in f.gains.items():
        new_gains[(u, v)] = grp.compose(grp.inverse(sigma[v]), grp.compose(g, sigma[u]))
    return GainGraph(f.base, grp, new_gains)


def is_balanced(f: GainGraph) -> bool:
    """True iff every cycle has identity net gain; the lift is then r disjoint base copies."""
    g = normalize(f)
    ident = f.group.identity()
    return all(val == ident for val in g.gains.values())


# ---------------------------------------------------------------------------
# gain-file text format
#
#   gainfile 1
#   group cyclic 2          (or: group abelian 2 2 | group perm 3)
#   vertices 8
#   edge 0 1 1              (abelian: comma-joined residues, e.g. 1,0)
#   edge 0 1 perm 1,0,2     (permutation image list)
#
# The stored gain is for the min(u,v) -> max(u,v) orientation. Writing is
# canonical (sorted edges, LF endings) so parse -> write round-trips bytes.


def write_gain_file(f: GainGraph) -> str:
    lines = ["gainfile 1", f"group {f.group.describe()}", f"vertices {f.base.n}"]
    perm = not f.group.is_abelian
    for (u, v) in f.base.sorted_edges():
        g = f.gains[(u, v)]
        body = ",".join(str(x) for x in g)
        lines.append(f"edge {u} {v} perm {body}" if perm else f"edge {u} {v} {body}")
    return "\n".join(lines) + "\n"


def parse_gain_file(text: str) -> GainGraph:
    group = None
    n = None
    gains = {}
    saw_header = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "gainfile":
            if len(fields) != 2 or fields[1] != "1":
                raise ParseError("expected 'gainfile 1'", ln)
            saw_header = True
        elif kw == "group":
            if group is not None:
                raise ParseError("duplicate group line", ln)
            group = _parse_group(fields[1:], ln)
        elif kw == "vertices":
            if n is not None:
                raise ParseError("duplicate vertices line", ln)
            n = parse_vertex_count(fields, ln)
        elif kw == "edge":
            if group is None or n is None:
                raise ParseError("edge before group/vertices lines", ln)
            u, v, g = _parse_edge(fields[1:], group, ln)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ParseError(f"invalid edge ({u},{v})", ln)
            key = (min(u, v), max(u, v))
            if key in gains:
                raise ParseError(f"duplicate edge ({u},{v})", ln)
            gains[key] = g if u < v else group.inverse(g)
        else:
            raise ParseError(f"unknown directive {kw!r}", ln)
    if not saw_header:
        raise ParseError("missing 'gainfile 1' header", 1)
    if group is None or n is None:
        raise ParseError("missing group or vertices line", 1)
    if n * group.sheet_count > MAX_VERTICES:
        raise ParseError(f"a cover of {n} x {group.sheet_count} vertices exceeds the "
                         f"limit of {MAX_VERTICES}")
    # every gain was checked on its line, and the base has exactly its edges
    return GainGraph._checked(Graph(n, gains.keys()), group, gains)


def _parse_group(fields, ln):
    if not fields:
        raise ParseError("empty group line", ln)
    kind = fields[0]
    try:
        if kind == "cyclic" and len(fields) == 2:
            return GroupSpec.cyclic(int(fields[1]))
        if kind == "abelian" and len(fields) >= 2:
            return GroupSpec.abelian(*(int(x) for x in fields[1:]))
        if kind == "perm" and len(fields) == 2:
            return GroupSpec.permutation(int(fields[1]))
    except (ValueError, ParameterError) as exc:
        raise ParseError(f"bad group line: {exc}", ln) from None
    raise ParseError(f"unknown group kind {kind!r}", ln)


def _parse_edge(fields, group, ln):
    try:
        u, v = int(fields[0]), int(fields[1])
    except (ValueError, IndexError):
        raise ParseError("edge endpoints are not integers", ln) from None
    rest = fields[2:]
    if group.is_abelian:
        if len(rest) != 1:
            raise ParseError("expected one gain token", ln)
        try:
            g = tuple(int(x) for x in rest[0].split(","))
        except ValueError:
            raise ParseError("gain is not a residue list", ln) from None
    else:
        if len(rest) != 2 or rest[0] != "perm":
            raise ParseError("expected 'perm <images>'", ln)
        try:
            g = tuple(int(x) for x in rest[1].split(","))
        except ValueError:
            raise ParseError("permutation images are not integers", ln) from None
    try:
        g = group.validate_element(g)
    except ParameterError as exc:
        raise ParseError(str(exc), ln) from None
    return u, v, g
