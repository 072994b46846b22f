"""Exact and numeric spectra: characteristic polynomials over Z, Hermitian
eigenvalues from LAPACK (np.linalg.eigvalsh), character matrices of abelian
gain graphs, and the two-eigenvalue classifier.

Numeric eigenvalues come from one validated route, `hermitian_eigenvalues`;
it raises NumericError on LAPACK non-convergence or non-finite input.

The two-eigenvalue verdict is exact and integer (`fiber_two_ev`), decided
from the gains for a batch of assignments at once, without the lift: it
scatters the batch's adjacency matrices from `gains.cover_arcs`, the one
cover layout. A non-2ev cover's count of new distinct eigenvalues comes from
the exact quotient of the cover's characteristic polynomial by the base's,
never from clustered numeric spectra; a nonzero remainder is an internal
consistency error. Every function that needs a lift reads `GainGraph.cover`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ContractViolation, DisconnectedError,
                     InternalConsistencyError, NumericError, ParameterError)
from .gains import GainGraph, cover_arcs, gain_row
from .graphs import Graph, is_connected
from .intpoly import IntPoly, integer_roots, squarefree_part

DEFAULT_TOL = 1e-7

# ---------------------------------------------------------------------------
# exact characteristic polynomial


def _is_prime(n):
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin for n < 3.3e24 with these witnesses
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _char_poly_mod(A, p):
    """Coefficients [c_0, ..., c_n = 1] of det(xI - A) mod p, ascending.

    Reduces A mod p to upper Hessenberg form H by similarity, then runs the
    Hessenberg recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.9) for the characteristic polynomials p_m of the leading
    m x m blocks:

        p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (prod_{i<j<=m} h_{j,j-1}) p_{i-1}.

    O(n^3) per prime in int64; p is chosen so n*p^2 < 2^63 keeps every dot
    product exact.
    """
    n = A.shape[0]
    H = A % p
    for m in range(1, n - 1):
        nz = np.flatnonzero(H[m:, m - 1])
        if nz.size == 0:
            continue  # column already reduced
        i = m + int(nz[0])
        if i != m:
            H[[i, m]] = H[[m, i]]
            H[:, [i, m]] = H[:, [m, i]]
        u = H[m + 1:, m - 1] * pow(int(H[m, m - 1]), -1, p) % p
        # H <- L H L^-1 with L = I - u e_m^T. Row m is zero left of column
        # m-1, and a row with a zero multiplier keeps its values: adjacency
        # matrices are sparse, so that skips most rows of the early columns
        rows = m + 1 + np.flatnonzero(u)
        H[rows, m - 1:] = (H[rows, m - 1:] - np.outer(u[rows - m - 1], H[m, m - 1:])) % p
        H[:, m] = (H[:, m] + H[:, m + 1:] @ u) % p
    # row m holds p_m's ascending coefficients; t[i] = prod_{i<j<=m} h_{j,j-1}
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    t = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        c = m - 1
        P[m, 1:] = P[c, :-1]
        P[m] = (P[m] - H[c, c] * P[c]) % p
        if c:
            P[m, :c] = (P[m, :c] - (H[:c, c] * t % p) @ P[:c, :c]) % p
        if m < n:
            t = np.append(t, 1) * H[m, c] % p
    return P[n]


def _integer_matrix(A):
    """A as a square int64 array.

    Raises ParameterError for a shape that is not square, and for an entry
    that is not an integer or lies outside int64; a float entry counts when
    it is integral.
    """
    a = np.asarray(A)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    if np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64)
    out = np.empty(a.shape, dtype=np.int64)
    for idx, x in np.ndenumerate(a):
        try:
            v = int(x)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"matrix entry {x!r} is not an integer") from None
        if v != x:
            raise ParameterError(f"matrix entry {x!r} is not an integer")
        if not -2**63 <= v < 2**63:
            raise ParameterError(f"matrix entry {x!r} lies outside int64")
        out[idx] = v
    return out


def char_poly_int_matrix(A) -> IntPoly:
    """Exact characteristic polynomial of a square integer matrix.

    Runs `_char_poly_mod` modulo enough word-size primes that their product
    exceeds twice the coefficient bound max_i C(n,i) * (F/n)^(i/2), with
    F = ||A||_F^2, then CRT-reconstructs the signed integers. The bound holds
    for any square matrix: the coefficient of x^(n-i) is +-e_i(lambda), and
    |e_i(lambda)| <= e_i(|lambda|) <= C(n,i) * (sum |lambda|^2 / n)^(i/2) by
    Maclaurin's inequality, where sum |lambda|^2 <= F by Schur's inequality.

    Raises ParameterError when A is not square, or has an entry that is not
    an integer or lies outside int64.
    """
    A = _integer_matrix(A)
    n = A.shape[0]
    if n == 0:
        return IntPoly((1,))
    # ceil(F / n), summed in object dtype so that squaring an entry cannot overflow
    f = -(-int(np.square(A.astype(object)).sum()) // n)
    bound = max(math.isqrt(math.comb(n, i) ** 2 * f**i) + 1 for i in range(n + 1))
    primes, prod = [], 1
    p = math.isqrt((2**63 - 1) // n)
    while prod <= 2 * bound:
        while not _is_prime(p):
            p -= 1
        primes.append(p)
        prod *= p
        p -= 1
    out = [0] * (n + 1)
    for p in primes:
        quo = prod // p
        weight = quo * pow(quo % p, -1, p)
        for i, r in enumerate(_char_poly_mod(A, p).tolist()):
            out[i] += r * weight
    half = prod // 2
    return IntPoly((x + half) % prod - half for x in out)


@lru_cache(maxsize=512)
def char_poly(g: Graph) -> IntPoly:
    """Exact characteristic polynomial of the 0/1 adjacency matrix."""
    return char_poly_int_matrix(g.adjacency())


def distinct_eigenvalue_count(g: Graph) -> int:
    """Number of distinct adjacency eigenvalues, via the exact square-free part."""
    return squarefree_part(char_poly(g)).degree


# ---------------------------------------------------------------------------
# numeric Hermitian eigensolver


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues, sorted descending; multiplicities sum to the dimension."""

    pairs: tuple  # ((value, multiplicity), ...)

    @property
    def values(self):
        return tuple(v for v, _ in self.pairs)

    @property
    def dimension(self):
        return sum(m for _, m in self.pairs)

    def distinct(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"{v:.6g}^{m}" for v, m in self.pairs)
        return f"Spectrum({inner})"


def hermitian_eigenvalues(matrix):
    """Ascending float64 eigenvalues of a Hermitian (or real symmetric) matrix.

    Validates the input, then calls LAPACK through np.linalg.eigvalsh. Raises
    ContractViolation for input that is not a square 2-D matrix or is not
    Hermitian to within 10 * eps * max(1, max absolute row sum), and
    NumericError for a non-finite entry or when LAPACK does not converge.
    """
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation("matrix must be square")
    A = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64)
    # NaN passes the Hermitian comparison below, and eigvalsh returns a
    # spectrum for it without complaint, so non-finite input is caught first
    if not np.isfinite(A).all():
        raise NumericError("matrix has a non-finite entry")
    herm_err = np.abs(A - A.conj().T).max(initial=0.0)
    if herm_err > 10 * np.finfo(float).eps * max(matrix_scale(A), 1.0):
        raise ContractViolation(f"matrix is not Hermitian (asymmetry {herm_err:.3g})")
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigensolver did not converge: {exc}") from exc


def check_tol(tol):
    """Raise ParameterError unless tol is a finite positive number."""
    try:
        ok = math.isfinite(tol) and tol > 0
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")


def cluster_values(values, tol, scale) -> Spectrum:
    """Greedy descending clustering: adjacent values merge when closer than tol*max(1,scale)."""
    check_tol(tol)
    vals = sorted((float(v) for v in values), reverse=True)
    gap = tol * max(1.0, scale)
    pairs = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j - 1] - vals[j] <= gap:
            j += 1
        block = vals[i:j]
        pairs.append((sum(block) / len(block), len(block)))
        i = j
    return Spectrum(tuple(pairs))


def matrix_scale(matrix):
    """Deterministic spectral-radius bound: the max absolute row sum."""
    return float(np.abs(np.asarray(matrix)).sum(axis=1).max(initial=0.0))


def hermitian_spectrum(matrix, tol=DEFAULT_TOL) -> Spectrum:
    """Clustered eigenvalues of a Hermitian (or real symmetric) matrix."""
    vals = hermitian_eigenvalues(matrix)
    return cluster_values(vals, tol, matrix_scale(matrix))


# ---------------------------------------------------------------------------
# character matrices of abelian gain graphs


def rep_matrix(f: GainGraph, j) -> np.ndarray:
    """Character matrix S_j as a read-only complex array; j = all-zeros
    reproduces the base adjacency.

    Entry (u, v) is the character value of the gain for walking u -> v,
    prod_p exp(2*pi*i * j_p g_p / r_p), so the matrix is Hermitian and its
    nonzero pattern equals the base adjacency.
    """
    orders = f.group.orders
    if not f.group.is_abelian:
        raise ParameterError("character matrices require an abelian gain group")
    if len(tuple(j)) != len(orders):
        raise ParameterError(f"character index must have {len(orders)} components")
    edges = f.base.sorted_edges()
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    g = np.array([f.gains[e] for e in edges], dtype=np.int64).reshape(-1, len(orders))
    val = np.exp(2j * math.pi * (g * np.mod(j, orders) / orders).sum(axis=1))
    s = np.zeros((f.base.n, f.base.n), dtype=np.complex128)
    s[u, v], s[v, u] = val, val.conj()
    s.flags.writeable = False
    return s


# ---------------------------------------------------------------------------
# two-eigenvalue classification


@dataclass(frozen=True)
class TwoEvCertificate:
    """Spectral-difference verdict for a cover against its base.

    is_two_ev is true when the multiset difference of the spectra has exactly
    two distinct values theta > tau. lambda_ = theta + tau and mu = -theta*tau
    are exact integers (the pair are the roots of a monic integer quadratic).
    Connectivity of the cover is reported separately: the definition of a
    two-eigenvalue cover does not mention it, but the structure theorems
    require it, so callers combine the two fields as needed.
    """

    is_two_ev: bool
    theta: float | None = None
    tau: float | None = None
    mult_theta: int | None = None
    mult_tau: int | None = None
    lambda_: int | None = None
    mu: int | None = None
    cover_connected: bool = False
    new_distinct: int | None = None

    def as_dict(self):
        return {
            "is_two_ev": self.is_two_ev,
            "theta": None if self.theta is None else format(self.theta, ".17g"),
            "tau": None if self.tau is None else format(self.tau, ".17g"),
            "mult_theta": self.mult_theta,
            "mult_tau": self.mult_tau,
            "lambda": self.lambda_,
            "mu": self.mu,
            "cover_connected": self.cover_connected,
            "new_distinct": self.new_distinct,
        }


def spectral_difference_poly(f: GainGraph) -> IntPoly:
    """Exact quotient char(cover) / char(base); the division is always exact."""
    p_cover = char_poly(f.cover.graph)
    p_base = char_poly(f.base)
    quo, rem = p_cover.divmod_monic(p_base)
    if not rem.is_zero:
        raise InternalConsistencyError(
            "base characteristic polynomial does not divide the cover's; lift is broken")
    return quo


# float64 entries in one batch array of `fiber_two_ev`: 2**15 of them is 256 KiB
BATCH_ENTRIES = 2**15


def batch_rows(cover_n):
    """Assignments per batch, so that one (rows, cover_n, cover_n) float64 array
    of their lifts holds at most BATCH_ENTRIES entries (and at least one row)."""
    return max(1, BATCH_ENTRIES // max(cover_n, 1) ** 2)


def fiber_two_ev(base: Graph, table, rows):
    """Exact two-eigenvalue verdicts for a batch of lifts of base, from the gains.

    Row b of `rows` gives edge i of base.sorted_edges(), walked min -> max, the
    gain whose sheet action is table[rows[b, i]] (see `gains.sheet_table` and
    `gains.gain_row`). Returns (hit, lam), a bool and an int64 array with one
    entry per row; where hit is true the lift is 2ev and lam is its lambda.

    A, the lift's adjacency, preserves the space W of vectors that sum to zero
    on every fiber, and carries the new spectrum there. Block (u, w) of A^2 is
    sum_v P_uv P_vw over the sheet matrices of the 2-paths u-v-w, and the
    diagonal blocks are deg(u)*I, so a 2ev lift needs a regular base of valency
    k; it is 2ev iff A^2 - lambda*A - k*I vanishes on W, i.e. every r x r block
    has constant rows, with lambda read from the block of the least edge. The
    rows are decided `batch_rows` at a time, with one batched float64 matmul
    (on BLAS; the entries are 2-path counts of at most k, so they are exact).

    Raises ParameterError unless table is a 2-D array of sheet permutations
    and rows a 2-D array of indices into it with one column per edge.
    """
    table = np.asarray(table, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if table.ndim != 2 or not (np.sort(table, axis=1) == np.arange(table.shape[1])).all():
        raise ParameterError("sheet table rows must be permutations of the sheets")
    if rows.ndim != 2 or rows.shape[1] != base.m:
        raise ParameterError(f"assignment rows must have one column per edge ({base.m})")
    if rows.size and not 0 <= rows.min() <= rows.max() < len(table):
        raise ParameterError(f"assignment rows must index the {len(table)} table rows")
    hit = np.zeros(len(rows), dtype=bool)
    lam = np.zeros(len(rows), dtype=np.int64)
    r = table.shape[1]
    if r < 2 or not base.edges or not base.is_regular():
        return hit, lam
    n, k, size = base.n, base.degrees[0], base.n * r
    diag = np.arange(size)
    step = batch_rows(size)
    for lo in range(0, len(rows), step):
        src, dst = cover_arcs(base, table[rows[lo:lo + step]])
        b = np.arange(len(dst))
        a = np.zeros((len(dst), size, size))
        a[b[:, None, None], src, dst] = 1
        a[b[:, None, None], dst, src] = 1
        a2 = a @ a
        # the least edge joins sheet 0 of its tail, x, to y over its head, and
        # sheet 1 to some other z there; when the block has constant rows, A^2
        # at (x, y) exceeds A^2 at (x, z) by exactly lambda
        x, y, z = src[0, 0], dst[:, 0, 0], dst[:, 0, 1]
        lam_b = (a2[b, x, y] - a2[b, x, z]).astype(np.int64)
        a2 -= lam_b[:, None, None] * a
        a2[:, diag, diag] -= k
        blocks = a2.reshape(len(dst), n, r, n, r)
        hit[lo:lo + len(dst)] = (blocks == blocks[..., :1]).all(axis=(1, 2, 3, 4))
        lam[lo:lo + len(dst)] = lam_b
    return hit, lam


def two_ev_certificate(f: GainGraph, lam) -> TwoEvCertificate:
    """Certificate of f, whose lift `fiber_two_ev` found 2ev with this lambda.

    theta and tau are the roots of x^2 - lambda*x - k. A has zero trace on W,
    so m_theta*theta + m_tau*tau = 0 fixes the multiplicities in integers.
    Connectivity is read from the lift.
    """
    base, r = f.base, f.group.sheet_count
    k, dim = base.degrees[0], base.n * (r - 1)
    roots = integer_roots(IntPoly((-k, -lam, 1)))
    if roots:
        hi, lo = sorted(roots, reverse=True)
        m_theta, rem = divmod(-dim * lo, hi - lo)
        if rem:
            raise InternalConsistencyError("new-eigenvalue multiplicity is not integral")
        theta, tau, m_tau = float(hi), float(lo), dim - m_theta
    else:
        # conjugate irrational roots carry equal multiplicity, so zero trace
        # forces lambda = 0 and an even dimension
        if lam != 0 or dim % 2:
            raise InternalConsistencyError("conjugate new eigenvalues with unequal multiplicity")
        sq = math.sqrt(lam * lam + 4 * k)
        theta, tau = (lam + sq) / 2.0, (lam - sq) / 2.0
        m_theta = m_tau = dim // 2
    return TwoEvCertificate(
        is_two_ev=True,
        theta=theta,
        tau=tau,
        mult_theta=m_theta,
        mult_tau=m_tau,
        lambda_=lam,
        mu=k,
        cover_connected=is_connected(f.cover.graph),
        new_distinct=2,
    )


def classify_two_ev(f: GainGraph) -> TwoEvCertificate:
    """Classify whether the lift of f is a two-eigenvalue cover of its base.

    The verdict is `fiber_two_ev`'s, on a batch of one. Only on a miss is the
    exact char-poly quotient taken, to report the number of distinct new
    eigenvalues as the degree of its square-free part.
    """
    if not is_connected(f.base):
        raise DisconnectedError("two-eigenvalue classification requires a connected base")
    hit, lam = fiber_two_ev(f.base, *gain_row(f))
    if hit[0]:
        return two_ev_certificate(f, int(lam[0]))
    new = squarefree_part(spectral_difference_poly(f))
    return TwoEvCertificate(is_two_ev=False, cover_connected=is_connected(f.cover.graph),
                            new_distinct=new.degree)


# ---------------------------------------------------------------------------
# block decomposition check (the module's master test)


def character_block_check(f: GainGraph, tol=DEFAULT_TOL):
    """Max deviation between the lift spectrum and the union of character spectra.

    For abelian gains the cover adjacency is similar to the block diagonal of
    the character matrices, so the sorted concatenation of their eigenvalues
    must match the sorted eigenvalues of the lift within clustering tolerance.
    Returns (ok, max_abs_deviation).
    """
    check_tol(tol)
    if not f.group.is_abelian:
        raise ParameterError("block decomposition requires an abelian gain group")
    union = []
    for j in f.group.elements():
        union.extend(hermitian_eigenvalues(rep_matrix(f, j)))
    union = np.sort(np.asarray(union))
    adj = f.cover.graph.adjacency(dtype=np.float64)
    cover_vals = hermitian_eigenvalues(adj)
    dev = float(np.abs(union - cover_vals).max()) if union.size else 0.0
    return dev <= tol * max(1.0, matrix_scale(adj)), dev
