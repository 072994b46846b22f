"""Combinatorial regularity certificates.

Walk regularity, distance-regularity with intersection arrays, strong
regularity, antipodality, the (n, r, c2) of a diameter-3 antipodal
distance-regular graph, and the column-count verifier that ties the gain
structure of a two-eigenvalue cover over a strongly regular base to
(a - lambda)/r and c/r.

Whether a lift's antipodal classes are its fibers, and how its c2 relates to
lambda, are not facts of one graph: the theorem harness `verify_drackn`
checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (ContractViolation, DisconnectedError,
                     InternalConsistencyError, ParameterError)
from .gains import CoverGraph, GainGraph, gain_row
from .graphs import Graph, is_connected
from .spectral import TwoEvCertificate, distinct_eigenvalue_count, fiber_two_ev


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0,...,b_{d-1}; c_1,...,c_d} of a distance-regular graph."""

    b: tuple
    c: tuple
    d: int

    def __post_init__(self):
        k = self.b[0]
        if len(self.b) != self.d or len(self.c) != self.d:
            raise ParameterError("array lengths must equal the diameter")
        if self.c[0] != 1:
            raise ParameterError("c_1 must be 1")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ParameterError("intersection numbers must be positive")
        if any(self.b[i] + self.c[i - 1] > k for i in range(1, self.d)) or self.c[-1] > k:
            raise ParameterError("b_i + c_i cannot exceed the valency")

    @property
    def valency(self):
        return self.b[0]

    def __str__(self):
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{" + bs + ";" + cs + "}"


@dataclass(frozen=True)
class SrgParams:
    """(n, k, a, c) of a strongly regular graph."""

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        if self.k * (self.k - self.a - 1) != (self.n - self.k - 1) * self.c:
            raise ParameterError(f"infeasible strongly regular parameters "
                                 f"({self.n},{self.k},{self.a},{self.c})")

    def as_tuple(self):
        return (self.n, self.k, self.a, self.c)


@dataclass(frozen=True)
class ColumnCountCertificate:
    """t = (a - lambda)/r and s = c/r; integral reports whether both are
    non-negative integers (r | c is necessary for any 2ev cover)."""

    t: Fraction
    s: Fraction | None
    integral: bool


@dataclass(frozen=True)
class RegularityCertificate:
    """Aggregate combinatorial verdict for one graph (usually a lift)."""

    walk_regular: bool
    srg: SrgParams | None = None
    drg: IntersectionArray | None = None
    antipodal: bool = False
    antipodal_classes: tuple | None = None
    drackn: tuple | None = None

    def as_dict(self):
        return {
            "walk_regular": self.walk_regular,
            "srg": None if self.srg is None else list(self.srg.as_tuple()),
            "intersection_array": None if self.drg is None else
                {"b": list(self.drg.b), "c": list(self.drg.c), "d": self.drg.d},
            "antipodal": self.antipodal,
            "antipodal_classes": None if self.antipodal_classes is None else
                [list(c) for c in self.antipodal_classes],
            "drackn": None if self.drackn is None else list(self.drackn),
        }


# ---------------------------------------------------------------------------
# walk regularity

# float64 holds every integer below 2**53 exactly
_FLOAT_EXACT = 2**53


def _diag_constant(mat):
    d = mat.diagonal()
    return all(x == d[0] for x in d.tolist())


def is_walk_regular(x, cert: TwoEvCertificate | None = None) -> bool:
    """True iff every power of the adjacency matrix has constant diagonal.

    x is a graph, or a lift with its certificate. Powers 1..d-1 suffice for
    any d at least the distinct eigenvalue count, since every higher power is
    a fixed combination of A^0..A^(d-1). A bare graph takes d from the exact
    square-free part of its char poly. A lift's spectrum is its base's plus
    the one on vectors summing to zero on every fiber, so a certificate gives
    d = (base's count) + cert.new_distinct without the lift's char poly.
    Raises ParameterError for a lift without its certificate, so that no char
    poly of a whole lift is taken.
    """
    cover = x if isinstance(x, CoverGraph) else None
    if cover is not None and cert is None:
        raise ParameterError("a lift needs its two-eigenvalue certificate")
    g = cover.graph if cover is not None else x
    if g.n <= 1:
        return True
    if cover is not None:
        top = distinct_eigenvalue_count(cover.base) + cert.new_distinct - 1
    else:
        top = distinct_eigenvalue_count(g) - 1
    deg = max(g.degrees)
    a = g.adjacency(dtype=np.float64)
    power = a.copy()
    bound = deg  # max possible entry of the current power
    for _ in range(2, top + 1):
        bound *= max(deg, 1)
        # a power's entries, and every partial sum of its dot products, are at
        # most bound: below 2**53 float64 (on BLAS) is exact, past it the
        # exact float entries go on as Python ints
        if bound >= _FLOAT_EXACT and a.dtype != object:
            power = power.astype(np.int64).astype(object)
            a = a.astype(np.int64).astype(object)
        power = np.dot(power, a)
        if not _diag_constant(power):
            return False
    # power 1 has zero diagonal on simple graphs; included for completeness
    return top < 1 or _diag_constant(a)


# ---------------------------------------------------------------------------
# distance-regularity


def is_distance_regular(g: Graph):
    """Intersection array {b_0,...,b_{d-1}; c_1,...,c_d}, or None when the
    graph is not distance-regular (and for a single vertex).

    Read off the distance table: for every pair (u, v) at distance i, b counts
    the neighbours of v at distance i + 1 from u and c those at distance
    i - 1. The graph is distance-regular iff both depend on i alone.
    """
    table = g.distance_table
    if not table.is_connected():
        raise DisconnectedError("distance-regularity requires a connected graph")
    if not g.is_regular():
        return None
    d = table.diameter()
    if not d:
        return None  # a single vertex has no intersection array
    dist = table.dist
    b = np.zeros_like(dist)
    c = np.zeros_like(dist)
    for col in np.array(g.neighbors).T:
        step = dist[:, col] - dist  # d(u, w) - d(u, v), w a neighbour of v
        b += step == 1
        c += step == -1
    counts = []
    for x in (b, c):
        per_class = np.zeros(d + 1, dtype=x.dtype)
        per_class[dist] = x
        if not (per_class[dist] == x).all():
            return None
        counts.append(per_class.tolist())
    return IntersectionArray(tuple(counts[0][:d]), tuple(counts[1][1:]), d)


def _srg_of_array(n, arr):
    """SrgParams from an intersection array on n vertices; None unless d = 2."""
    if arr is None or arr.d != 2:
        return None
    k = arr.valency
    return SrgParams(n, k, k - arr.b[1] - 1, arr.c[1])


def srg_parameters(g: Graph):
    """(n, k, a, c) when the graph is distance-regular with diameter 2."""
    if not is_connected(g):
        return None
    return _srg_of_array(g.n, is_distance_regular(g))


def is_antipodal(g: Graph):
    """(flag, classes): whether 'same vertex or at maximal distance' is an
    equivalence relation. Diameter <= 1 counts as antipodal with singleton
    classes (the degenerate complete-graph case)."""
    table = g.distance_table
    if not table.is_connected():
        raise DisconnectedError("antipodality requires a connected graph")
    diam = table.diameter()
    if diam is None or diam <= 1:
        return True, tuple((v,) for v in range(g.n))
    dist = table.dist
    classes = {}
    for u in range(g.n):
        far = np.nonzero(dist[u] == diam)[0]
        classes[u] = tuple(sorted([u, *far.tolist()]))
    for u in range(g.n):
        for v in classes[u]:
            if classes[v] != classes[u]:
                return False, None
    unique = sorted(set(classes.values()))
    return True, tuple(unique)


# ---------------------------------------------------------------------------
# column counts of a normalized 2ev gain over a strongly regular base


def lemma_column_counts(f: GainGraph):
    """Column-count certificate of a cyclic gain normalized at vertex 0.

    Computes t = (a - lambda)/r and s = c/r for a complete or strongly regular
    base. `fiber_two_ev` decides from the gains, without building the lift,
    whether the lift is 2ev and gives its lambda; a lift that is not 2ev raises
    ParameterError. Every gain that `normalize` or a search produces is
    normalized at vertex 0, the root of its spanning tree. Integral counts are
    verified on the gain matrix (`_verify_counts`); a violation there is an
    internal consistency error.
    """
    grp = f.group
    if not grp.is_abelian or len(grp.orders) != 1:
        raise ParameterError("column counts are defined for cyclic gain groups")
    r = grp.orders[0]
    base = f.base
    for w in base.neighbors[0]:
        if f.gain(0, w) != grp.identity():
            raise ContractViolation("gain not normalized at vertex 0")

    n = base.n
    if base.m == n * (n - 1) // 2:
        a, c = n - 2, None
    else:
        srg = srg_parameters(base)
        if srg is None:
            raise ParameterError("base must be complete or strongly regular")
        a, c = srg.a, srg.c

    hit, lams = fiber_two_ev(base, *gain_row(f))
    if not hit[0]:
        raise ParameterError("column counts need a two-eigenvalue lift")
    lam = int(lams[0])

    t = Fraction(a - lam) / r
    s = None if c is None else Fraction(c, r)
    integral = (t.denominator == 1 and t >= 0
                and (s is None or (s.denominator == 1 and s >= 0)))
    if integral:
        _verify_counts(f, r, int(t), None if s is None else int(s))
    return ColumnCountCertificate(t=t, s=s, integral=integral)


def _verify_counts(f: GainGraph, r, t, s):
    """Raise unless, over the neighbors of vertex 0 in each row, every neighborhood
    column carries each nontrivial power t times and every distance-2 column
    carries each power s times (s is None for a complete base)."""
    base = f.base
    dist = base.distance_table.dist[0].tolist()
    for col, d in enumerate(dist):
        if d == 1:
            first, want, what = 1, t, "nontrivial power"
        elif d == 2 and s is not None:
            first, want, what = 0, s, "power"
        else:
            continue
        counts = [0] * r
        for u in base.neighbors[col]:
            if dist[u] == 1:
                counts[f.gain(u, col)[0]] += 1
        if any(x != want for x in counts[first:]):
            raise InternalConsistencyError(
                f"distance-{d} column {col} carries counts {counts}, expected "
                f"{want} of each {what}")


def two_ev_divisibility_obstruction(base: Graph, r):
    """True when s = c/r is non-integral for the strongly regular base,
    which rules out any two-eigenvalue gain of order r without classifying
    any gain."""
    srg = srg_parameters(base)
    if srg is None:
        return False
    return srg.c % r != 0


# ---------------------------------------------------------------------------
# aggregation


def regularity_certificate(x, cert: TwoEvCertificate | None = None) -> RegularityCertificate:
    """Full combinatorial certificate for a graph, or a lift with its
    certificate; raises ParameterError for a lift without it. A lift's
    certificate is its bare graph's: the two-eigenvalue certificate only
    bounds the powers that decide walk regularity."""
    g = x.graph if isinstance(x, CoverGraph) else x
    walk = is_walk_regular(x, cert)
    if not is_connected(g):
        return RegularityCertificate(walk_regular=walk)
    drg = is_distance_regular(g)
    srg = _srg_of_array(g.n, drg)
    anti, classes = is_antipodal(g)
    # diameter 3 and antipodal: a cover of K_n with n classes of r = 1 + k3
    drackn = None
    if drg is not None and drg.d == 3 and anti:
        drackn = (len(classes), len(classes[0]), drg.c[1])
    return RegularityCertificate(walk_regular=walk, srg=srg, drg=drg,
                                 antipodal=anti, antipodal_classes=classes,
                                 drackn=drackn)
