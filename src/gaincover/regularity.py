"""Combinatorial regularity certificates.

Walk regularity (from powers of the adjacency modulo word-size primes),
distance-regularity with intersection arrays, strong regularity,
antipodality, the (n, r, c2) of a diameter-3 antipodal distance-regular
graph, and the column-count verifier that ties the gain structure of a
two-eigenvalue cover over a strongly regular base to (a - lambda)/r and c/r.

Whether a lift's antipodal classes are its fibers, and how its c2 relates to
lambda, are not facts of one graph: the theorem harness `verify_drackn`
checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolation, DisconnectedError,
                     InternalConsistencyError, ParameterError)
from .gains import CoverGraph, GainGraph
from .graphs import Graph, is_connected
from .intpoly import _prime_stream, quadratic_roots
from .spectral import (TwoEvCertificate, _powers_mod, char_poly, distinct_eigenvalue_count,
                       fiber_two_ev)


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


def is_walk_regular(x, cert: TwoEvCertificate | None = None) -> bool:
    """True iff every power of the adjacency matrix has constant diagonal.

    x is a graph, or a lift with its certificate. Powers 1..d-1 suffice for
    any d at least the distinct eigenvalue count, since every higher power is
    a fixed combination of A^0..A^(d-1). A bare graph takes d as its exact
    `distinct_eigenvalue_count`, a lift (base's count) + cert.new_distinct,
    with no char poly of its own (ParameterError without the certificate).

    The powers up to A^(d-2) come from `spectral._powers_mod` modulo one
    prime p at a time, with Delta*p < 2^53 for the largest degree Delta, so
    they are exact, and A^(d-1) only on its diagonal, all on the rows of x's
    sources, whose translations carry every vertex's closed walks. A diagonal
    entry of A^j counts closed walks, in [0, Delta^(j-1)]: constant residues
    modulo primes past 2 ceil(Delta^(d-2) / 2) are a constant diagonal. Each
    prime is drawn only once the one before it has passed, so a lift that is
    not walk-regular is mostly refused on the first.
    """
    g = x.graph if isinstance(x, CoverGraph) else x
    if g is not x and cert is None:
        raise ParameterError("a lift needs its two-eigenvalue certificate")
    top = (distinct_eigenvalue_count(x.base) + cert.new_distinct if g is not x
           else distinct_eigenvalue_count(g)) - 1
    if top < 2:  # A^0 = I, and A^1 has zero diagonal on a simple graph
        return True
    w = len(x.translations) if g is not x else 1  # row v is from source v*w: entry (v, v*w)
    deg, a = max(g.degrees), g.adjacency(dtype=np.float64)
    for p in _prime_stream(2 ** (53 - deg.bit_length()), (deg ** (top - 1) + 1) // 2):
        power = next(powers := _powers_mod(a, deg, [p], top - 1, slice(None, None, w)))  # A
        for power in powers:
            if len(set(power[0].ravel()[::g.n + w].tolist())) > 1:
                return False
        # of A^top only the diagonal, each entry a sum of at most deg residues
        if len({x % p for x in (power[0] * a[::w]).sum(axis=1).tolist()}) > 1:
            return False
    return True


def _distinct_counts(cover: CoverGraph, cert: TwoEvCertificate):
    """The range of a lift's distinct eigenvalue count, the base's values and
    cert.new_distinct on W (ParameterError without cert); for a hit, those of
    x^2 - lambda x - mu's roots not the base's: (lambda +- s) / 2 for a square
    discriminant s^2, else a conjugate pair, both roots of the base's char poly
    p or neither, as p mod x^2 - lambda x - mu = a x + b is zero or not."""
    if cert is None:
        raise ParameterError("a lift needs its two-eigenvalue certificate")
    base = distinct_eigenvalue_count(cover.base)
    if not cert.is_two_ev:
        return range(max(base, cert.new_distinct), base + cert.new_distinct + 1)
    p, lam, mu = char_poly(cover.base), cert.lambda_, cert.mu
    roots = quadratic_roots(lam, mu)
    if roots:
        new = sum(p(x) != 0 for x in roots)
    else:
        a = b = 0  # Horner, x^2 = lambda x + mu
        for c in reversed(p.coeffs):
            a, b = a * lam + b, a * mu + c
        new = 2 * bool(a or b)
    return range(base + new, base + new + 1)


# ---------------------------------------------------------------------------
# distance-regularity


def is_distance_regular(x, cert: TwoEvCertificate | None = None):
    """Intersection array {b_0,...,b_{d-1}; c_1,...,c_d}, or None when the
    graph is not distance-regular (and for a single vertex).

    x is a graph, or a lift with its certificate. For every pair (u, v) at
    distance i in x's distance rows (`graphs.distances`), b counts the
    neighbours of v at distance i + 1 from the source u and c those at i - 1:
    distance-regular iff both depend on i alone. A distance-regular graph of
    diameter d has d + 1 distinct eigenvalues (Brouwer, Cohen and Neumaier),
    so a lift whose `_distinct_counts` leave that out is refused first.
    """
    g = x.graph if isinstance(x, CoverGraph) else x
    table = x.distance_table
    if not table.is_connected():
        raise DisconnectedError("distance-regularity requires a connected graph")
    d = table.diameter()  # 0 for a single vertex, which has no intersection array
    if not d or (g is not x and d + 1 not in _distinct_counts(x, cert)) or not g.is_regular():
        return None
    dist = table.dist
    b = np.zeros_like(dist)
    c = np.zeros_like(dist)
    for col in np.array(g.neighbors).T:
        step = dist[:, col] - dist  # d(u, w) - d(u, v), w a neighbour of v
        b += step == 1
        c += step == -1
    counts = []
    for m in (b, c):
        per_class = np.zeros(d + 1, dtype=m.dtype)
        per_class[dist] = m
        if not (per_class[dist] == m).all():
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


def is_antipodal(x):
    """(flag, classes): whether 'same vertex or at maximal distance' is an
    equivalence relation on x, a graph or a lift. Diameter <= 1 counts as
    antipodal with singleton classes (the degenerate complete-graph case).
    Label each v by the least vertex of F_v, v and the vertices at maximal
    distance: the relation is an equivalence iff F_v = {u : label u = label
    v} for every v. Translation t sends a source s to s + t and F_s onto
    F_(s+t), so the labels and the check come from x's distance rows."""
    g = x.graph if isinstance(x, CoverGraph) else x
    table = x.distance_table
    if not table.is_connected():
        raise DisconnectedError("antipodality requires a connected graph")
    diam = table.diameter()
    if diam is None or diam <= 1:
        return True, tuple((v,) for v in range(g.n))
    t = table.translations
    w, far = len(t), table.dist == diam
    far.ravel()[::g.n + w] = True  # each source, (v, v*w)
    # F_s meets its first fiber in sheets j, and F_(s+t) in sheets t[t, j]
    fibers = far.reshape(len(far), -1, w)
    first = fibers.any(axis=2).argmax(axis=1)
    sheets = fibers[np.arange(len(far)), first]
    label = first[:, None] * w + np.where(sheets[:, None, :], t, w).min(axis=2)
    # moved[t, u] is the label of u moved by translation t
    moved = label[:, t].transpose(1, 0, 2).reshape(w, -1)
    if not (far[:, None, :] == (moved == label[:, :, None])).all():
        return False, None
    classes = {}  # by label, the least member: in the order of first members
    for v, least in enumerate(label.ravel().tolist()):
        classes.setdefault(least, []).append(v)
    return True, tuple(map(tuple, classes.values()))


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

    hit, lams = fiber_two_ev(base, *f.row)
    if not hit[0]:
        raise ParameterError("column counts need a two-eigenvalue lift")
    lam = int(lams[0])

    # imported here: no command reads column counts, and each would pay for it
    from fractions import Fraction
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
    any gain. Raises ParameterError unless r >= 2."""
    if r < 2:
        raise ParameterError(f"gain order must be at least 2, got {r}")
    srg = srg_parameters(base)
    if srg is None:
        return False
    return srg.c % r != 0


# ---------------------------------------------------------------------------
# aggregation


def regularity_certificate(x, cert: TwoEvCertificate | None = None) -> RegularityCertificate:
    """Full combinatorial certificate for a graph, or a lift with its
    certificate; raises ParameterError for a lift without it. A lift's
    certificate is its bare graph's; its two-eigenvalue certificate only
    bounds the distinct eigenvalue count."""
    g = x.graph if isinstance(x, CoverGraph) else x
    walk = is_walk_regular(x, cert)
    if not is_connected(x):
        return RegularityCertificate(walk_regular=walk)
    drg = is_distance_regular(x, cert)
    srg = _srg_of_array(g.n, drg)
    anti, classes = is_antipodal(x)
    # diameter 3 and antipodal: a cover of K_n with n classes of r = 1 + k3
    drackn = None
    if drg is not None and drg.d == 3 and anti:
        drackn = (len(classes), len(classes[0]), drg.c[1])
    return RegularityCertificate(walk_regular=walk, srg=srg, drg=drg,
                                 antipodal=anti, antipodal_classes=classes,
                                 drackn=drackn)
