"""Built-in gain-graph families.

The hypercube sign recursion and its 2-fold cover, complex Hadamard gains on
complete bipartite graphs, the Sym(3) permutation gain on K5 whose lift is
the line graph of the Petersen graph, and the signed-K_{3n} non-example whose
spectrum gains three new values rather than two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gains import CoverGraph, GainGraph, GroupSpec, lift
from .graphs import Graph, complete_bipartite, complete_graph, hypercube
from .intpoly import IntPoly, cyclotomic


def _sign_matrix(n):
    """The recursive +-1 signing of the n-cube adjacency:
    A_1 = [[0,1],[1,0]], A_n = [[A_{n-1}, I], [I, -A_{n-1}]]."""
    a = np.array([[0, 1], [1, 0]], dtype=np.int64)
    for _ in range(n - 1):
        h = a.shape[0]
        eye = np.eye(h, dtype=np.int64)
        a = np.block([[a, eye], [eye, -a]])
    return a


def huang_signing(n) -> GainGraph:
    """Z2 gain on hypercube(n) read off the recursive sign matrix.

    Residue 0 where the matrix entry is +1, residue 1 where -1. Every 4-cycle
    of the cube picks up an odd number of residue-1 edges, so the character
    matrix squares to n*I and the lift has no 4-cycles.
    """
    if n < 1:
        raise ParameterError("dimension must be at least 1")
    signs = _sign_matrix(n)
    base = hypercube(n)
    group = GroupSpec.cyclic(2)
    gains = {}
    for u, v in base.edges:
        entry = int(signs[u, v])
        if entry == 0:
            raise ParameterError("sign matrix support mismatch")  # pragma: no cover
        gains[(u, v)] = (0,) if entry > 0 else (1,)
    return GainGraph(base, group, gains)


def cohen_tits_signing(n) -> GainGraph:
    """The Z2 gain whose lift is the Cohen-Tits cover: `huang_signing(n)`,
    defined for n >= 2."""
    if n < 2:
        raise ParameterError("dimension must be at least 2")
    return huang_signing(n)


def cohen_tits_cover(n) -> CoverGraph:
    """The 2-fold cover of the n-cube with no 4-cycles (the lift of the sign
    recursion); girth 8 at n=2, girth 6 for n >= 3.

    The lift is distance-regular at n=2 (the 8-cycle, {2,1,1,1;1,1,1,2}) and
    at n=4 (the 4-fold antipodal cover of K_{4,4}, {4,3,3,1;1,1,3,4}), and not
    at n=3, 5 or 6."""
    return lift(cohen_tits_signing(n))


# ---------------------------------------------------------------------------
# Butson-type complex Hadamard gains on K_{q,q}


@dataclass(frozen=True)
class ButsonMatrix:
    """q x q matrix of residues mod r, unitary up to scale when the residues
    are read as r-th roots of unity."""

    q: int
    r: int
    entries: tuple

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ParameterError("order and root order must be positive")
        if len(self.entries) != self.q or any(len(row) != self.q for row in self.entries):
            raise ParameterError("entries must be a q x q residue matrix")
        if any(not 0 <= x < self.r for row in self.entries for x in row):
            raise ParameterError("entries must be residues mod r")


def fourier_butson(q) -> ButsonMatrix:
    """The Fourier instance: entry (j, k) = j*k mod q, with r = q."""
    if q < 1:
        raise ParameterError("order must be positive")
    return ButsonMatrix(q=q, r=q,
                        entries=tuple(tuple((j * k) % q for k in range(q)) for j in range(q)))


def is_butson(h: ButsonMatrix) -> bool:
    """Exact unitarity check: rows j1 != j2 are orthogonal iff the residue
    difference counts, read as a polynomial, vanish at a primitive r-th root
    of unity, i.e. are divisible by the r-th cyclotomic polynomial."""
    phi = cyclotomic(h.r)
    for j1 in range(h.q):
        for j2 in range(j1 + 1, h.q):
            counts = [0] * h.r
            for k in range(h.q):
                counts[(h.entries[j1][k] - h.entries[j2][k]) % h.r] += 1
            _, rem = IntPoly(counts).divmod_monic(phi)
            if not rem.is_zero:
                return False
    return True


def butson_gain(h: ButsonMatrix) -> GainGraph:
    """Z_r gain on K_{q,q}: the edge from left j to right k carries entry (j, k)."""
    if not is_butson(h):
        raise ParameterError("matrix is not Butson (rows are not orthogonal)")
    base = complete_bipartite(h.q, h.q)
    group = GroupSpec.cyclic(h.r)
    gains = {}
    for j in range(h.q):
        for k in range(h.q):
            gains[(j, h.q + k)] = (h.entries[j][k],)
    return GainGraph(base, group, gains)


# ---------------------------------------------------------------------------
# permutation gain on K5


def s3_cover_k5() -> GainGraph:
    """Sym(3) permutation gain on K5 whose 15-vertex lift is the line graph
    of the Petersen graph. Row 0 carries identities; the other rows carry the
    three transpositions in the fixed symmetric pattern."""
    t1 = (1, 0, 2)  # swap sheets 0,1
    t2 = (0, 2, 1)  # swap sheets 1,2
    t3 = (2, 1, 0)  # swap sheets 0,2
    ident = (0, 1, 2)
    gains = {
        (0, 1): ident, (0, 2): ident, (0, 3): ident, (0, 4): ident,
        (1, 2): t1, (1, 3): t2, (1, 4): t3,
        (2, 3): t3, (2, 4): t2,
        (3, 4): t1,
    }
    return GainGraph(complete_graph(5), GroupSpec.permutation(3), gains)


# ---------------------------------------------------------------------------
# the K_{3n} non-example


def k3n_nonexample(n) -> GainGraph:
    """Z2 gain on K_{3n}: residue 1 exactly on the complete bipartite subgraph
    between vertex blocks {0..n-1} and {n..2n-1}.

    The signed matrix has three distinct eigenvalues (one of which the base
    already has), so the cover gains two new distinct values yet is not a
    two-eigenvalue cover under the multiset definition, and its lift is not
    distance-regular. At n = 1 the value -1 has multiplicity 0 and the lift,
    C_6 over K_3, is a two-eigenvalue cover, so n must be at least 2.
    """
    if n < 2:
        raise ParameterError("block size must be at least 2")
    base = complete_graph(3 * n)
    gains = {}
    for u, v in base.edges:
        flipped = (u < n <= v < 2 * n) or (v < n <= u < 2 * n)
        gains[(u, v)] = (1,) if flipped else (0,)
    return GainGraph(base, GroupSpec.cyclic(2), gains)
