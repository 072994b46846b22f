"""Exact and numeric spectra: characteristic polynomials over Z, Hermitian
eigenvalues from LAPACK (np.linalg.eigvalsh), character matrices of abelian
gain graphs, and the two-eigenvalue classifier.

A graph's exact char poly and distinct eigenvalue count (`char_poly`,
`distinct_eigenvalue_count`) are first guessed from its rounded spectrum
and certified exactly (`_few_eigenvalue_char_poly`) on the powers of its
adjacency modulo primes below 2^26, from `_powers_mod`, the one BLAS kernel
of A^j mod p, which the walk check shares; the graphs the paper is about,
with few distinct eigenvalues, pass, and need no Hessenberg reduction. Every
other exact char poly (a graph whose certificate fails, an integer matrix, a
miss's on W) is taken modulo word-size primes by one stacked Hessenberg
kernel, `_char_poly_mod`, which runs all its (prime, matrix) slices at once,
and is CRT-reconstructed against Maclaurin's coefficient bound
(`_coefficient_bound`). Every distinct eigenvalue count, never from numeric
spectra, is the degree of a certified square-free part
(`intpoly.squarefree_part`, one gcd for a square-free polynomial): of the
certificate's m, of the char poly of a graph it does not certify, and of a
miss's factor with the roots of its char poly on W.

Numeric eigenvalues come from one validated route, `_checked_eigvalsh`, for
one matrix (`hermitian_spectrum`) or a stack: it raises NumericError on
LAPACK non-convergence or non-finite input. A graph's are solved once
(`graph_spectrum`), and an abelian lift's (`cover_spectrum`) are its base's
and those of `_class_eigenvalues`, the one float route for character
spectra, batched, never from the lift. The block-decomposition audit
(`character_block_check`) checks that route for a batch of abelian gains in
the kernel's array form against one stack of lifts scattered from the arcs
of `gains.cover_arcs`, the one cover layout, with no gain graph built.

The new spectrum of a lift is the spectrum of its adjacency on W, the
vectors that sum to zero on every fiber. The two-eigenvalue verdict is exact
and integer (`fiber_two_ev`), decided from the gains for a batch of
assignments at once, on the n(r-1)-square matrices of the adjacency on W,
scattered from two (r-1)-square blocks per edge (`_fiber_sum_zero_stack`,
the one builder of those matrices), without the lift and without any
nr-square matrix. A certificate carries its
exact characteristic polynomial there, `new_poly`: a hit builds it from the
verdict, and only a miss takes it, by `spectral_difference_poly`, never at
the lift's dimension nr: abelian gains from the char polys of their n-square
character matrices modulo primes p = 1 (mod e), e the group's exponent, one
per pair of conjugate characters, and permutation gains as the char poly of
the n(r-1)-square integer matrix on W. Every function that needs a lift
reads `GainGraph.cover`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (ContractViolation, DisconnectedError,
                     InternalConsistencyError, NumericError, ParameterError)
from .gains import GainGraph, cover_arcs
from .graphs import Graph, is_connected
from .intpoly import (_CERTIFICATE_LIMIT, IntPoly, _binomial_power, _coefficient_bound, _crt,
                      _crt_primes, _poly_mul_mod, _power_sums, _root_of_unity, quadratic_roots,
                      squarefree_part)

# relative tolerance of the numeric spectra: the clustering gap of
# `hermitian_spectrum` and the audit bound of `character_block_check`
TOL = 1e-7

# entries in one batch array, float64 matrices on W in `fiber_two_ev`, float64
# lifts in `character_block_check` and int64 slices in `_char_poly_mod`: 2**15
# of them is 256 KiB
BATCH_ENTRIES = 2**15


def batch_rows(cover_n):
    """Rows per batch, so that one (rows, cover_n, cover_n) array holds at
    most BATCH_ENTRIES entries (and at least one row)."""
    return max(1, BATCH_ENTRIES // max(cover_n, 1) ** 2)


# ---------------------------------------------------------------------------
# exact characteristic polynomial


def _int64_limit(n):  # the largest p with n*p^2 < 2^63, the bound on `_char_poly_mod`'s moduli
    return math.isqrt((2**63 - 1) // n)


def _char_poly_mod(A, p):
    """Coefficients [c_0, ..., c_n = 1] of det(xI - A_k) mod p_k, ascending,
    for each slice A_k of a (K, n, n) integer stack and its modulus p_k, an
    int of the list p, as a (K, n + 1) int64 array.

    Reduces each slice mod its p_k to upper Hessenberg form H by similarity,
    each subdiagonal entry h_m,m-1 scaled to 1 or left 0, then runs the
    Hessenberg recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.9) for the characteristic polynomials p_m of the leading
    m x m blocks:

        p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (prod_{i<j<=m} h_{j,j-1}) p_{i-1}.

    A subdiagonal 0 splits H into diagonal blocks whose char polys multiply,
    so the entries above it, which do not count, are dropped, and every
    product of subdiagonal entries in the recurrence is 1.

    O(n^3) per slice in int64, exact for p_k up to `_int64_limit(n)`. The
    slices run `batch_rows(n)` at a time, each step on all of them at once:
    each slice takes its own pivot row, and a row is skipped only where its
    multiplier is zero in every slice.
    """
    n = A.shape[-1]
    out = np.empty((len(A), n + 1), dtype=np.int64)
    step = batch_rows(n)
    for lo in range(0, len(A), step):
        moduli = p[lo:lo + step]
        q = np.array(moduli, dtype=np.int64)[:, None]
        # the two phases are functions of their own, so that a chunk's
        # Hessenberg form is freed before its recurrence allocates
        out[lo:lo + step] = _hessenberg_recurrence(
            _hessenberg_columns(A[lo:lo + step], moduli, q), q)
    return out


def _hessenberg_columns(A, moduli, q):
    """Upper Hessenberg forms H of the slices of A mod their moduli (the list
    moduli, and q, the same as a column), returned as their columns, each a
    contiguous row. Each H is similar to its slice but for blocks that do not
    count towards the char poly: every subdiagonal entry is 1, or 0 with
    nothing above it, but the last, which is folded into the column above
    it. See `_char_poly_mod`."""
    n = A.shape[-1]
    H = A % q[:, :, None]
    for m in range(1, n - 1):
        # h_m,m-1 = 0 makes H block upper triangular, and the block above it
        # does not count towards the char poly: it is dropped
        if not H[:, m:, m - 1].any():
            H[:, :m, m:] = 0
            continue  # column already reduced in every slice
        piv = H[:, m, m - 1]
        if not piv.all():
            # swap rows and columns m and i, the first row from m on with a
            # nonzero in column m-1, in every slice; i = m swaps nothing
            k = np.arange(len(H))
            i = (H[:, m:, m - 1] != 0).argmax(axis=1) + m
            row = H[k, i]
            H[k, i] = H[:, m]
            H[:, m] = row
            col = H[k, :, i]
            H[k, :, i] = H[:, :, m]
            H[:, :, m] = col
            H[piv == 0, :m, m:] = 0  # the slices whose column is reduced
        # H <- L D H D^-1 L^-1. D scales row m by 1/h_m,m-1 and column m by
        # h_m,m-1, so that h_m,m-1 = 1 (a slice whose column is already
        # reduced keeps D = I); L = I - u e_m^T clears column m-1 below row m
        pivots = piv.tolist()
        inv = [pow(x, -1, p_k) if x else 1 for x, p_k in zip(pivots, moduli)]
        pivot_row = H[:, m, m - 1:]
        pivot_row *= np.array(inv)[:, None]
        pivot_row %= q
        # v = (h_m,m-1, u): D^-1 L^-1 = I + (v - e_m) e_m^T sets column m to
        # H v, the column scaled plus the columns after it times u
        v = H[:, m:, m - 1].copy()
        v[:, 0] = [x or 1 for x in pivots]
        # row m is zero left of column m-1, and a row with a zero multiplier
        # keeps its values: adjacency matrices are sparse, so that skips most
        # rows of the early columns
        nz = 1 + np.flatnonzero(v[:, 1:].sum(axis=0))
        if nz.size:
            rows = m + nz
            H[:, rows, m - 1:] = (H[:, rows, m - 1:]
                                  - v[:, nz, None] * pivot_row[:, None]) % q[:, :, None]
        H[:, :, m] = (H[:, :, m:] @ v[:, :, None])[:, :, 0] % q
    # every subdiagonal entry but the last is now 1, or 0 with nothing above
    # it; multiplying the column above the last by it folds it in, so every
    # product of subdiagonal entries in the recurrence is 1
    if n > 1:
        last = H[:, :n - 1, n - 1]
        last *= H[:, n - 1, n - 2, None]
        last %= q
    return np.ascontiguousarray(H.transpose(0, 2, 1))


def _hessenberg_recurrence(cols, q):
    """Ascending coefficients of the char polys mod q of the Hessenberg forms
    whose columns are the rows of cols, by the recurrence of `_char_poly_mod`,
    one row per slice."""
    n = cols.shape[-1]
    # row m of P holds p_m's ascending coefficients
    P = np.zeros((len(cols), n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    for m in range(1, n + 1):
        P[:, m, 1:] = P[:, m - 1, :-1]
        row = P[:, m, :m]
        row -= (cols[:, m - 1, None, :m] @ P[:, :m, :m])[:, 0]
        row %= q
    return P[:, n]


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

    Runs `_char_poly_mod` on one stack of A, one slice per word-size prime,
    with enough primes that their product exceeds twice the coefficient
    bound of `_coefficient_bound` with F = ||A||_F^2, then CRT-reconstructs
    the signed integers. The bound holds for any square matrix, since
    sum |lambda|^2 <= F by Schur's inequality.

    Raises ParameterError when A is not square, or has an entry that is not
    an integer or lies outside int64.
    """
    A = _integer_matrix(A)
    n = A.shape[0]
    if n == 0:
        return IntPoly((1,))
    # F summed in object dtype, so that squaring an entry cannot overflow
    primes = _crt_primes(_int64_limit(n),
                         _coefficient_bound(n, int(np.square(A.astype(object)).sum())))
    return _crt(_char_poly_mod(np.broadcast_to(A, (len(primes), n, n)), primes), primes)


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


def _eigvalsh(A):
    """np.linalg.eigvalsh(A), with LAPACK non-convergence as NumericError."""
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigensolver did not converge: {exc}") from exc


def _checked_eigvalsh(A):
    """Ascending eigenvalues and row-sum scales of a float64 or complex128 stack
    (..., n, n), one LAPACK call for the whole stack.

    Raises NumericError for a non-finite entry or when LAPACK does not
    converge, and ContractViolation unless each matrix is Hermitian to within
    10 * eps * max(1, its max absolute row sum).
    """
    # NaN passes the Hermitian comparison below, and eigvalsh returns a
    # spectrum for it without complaint, so non-finite input is caught first
    if not np.isfinite(A).all():
        raise NumericError("matrix has a non-finite entry")
    scale = np.abs(A).sum(axis=-1).max(axis=-1, initial=0.0)
    herm_err = np.abs(A - np.swapaxes(A, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    bad = herm_err > 10 * np.finfo(float).eps * np.maximum(scale, 1.0)
    if bad.any():
        raise ContractViolation(f"matrix is not Hermitian (asymmetry {herm_err[bad].flat[0]:.3g})")
    return _eigvalsh(A), scale


def cluster_values(values, scale) -> Spectrum:
    """Greedy descending clustering: adjacent values merge when closer than TOL*max(1,scale)."""
    vals = sorted((float(v) for v in values), reverse=True)
    gap = TOL * max(1.0, scale)
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


def hermitian_spectrum(matrix) -> Spectrum:
    """Clustered eigenvalues of a Hermitian (or real symmetric) matrix, merged
    within TOL * max(1, its max absolute row sum). Raises ContractViolation
    unless matrix is square 2-D, and is otherwise checked as `_checked_eigvalsh` checks."""
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation("matrix must be square")
    vals, scale = _checked_eigvalsh(A.astype(np.complex128 if np.iscomplexobj(A) else np.float64))
    return cluster_values(vals, float(scale))


@lru_cache(maxsize=512)
def _adjacency_eigenvalues(g: Graph):
    """The ascending eigenvalues of g's adjacency, read-only, from
    `_checked_eigvalsh`, solved once per graph."""
    vals = _checked_eigvalsh(g.adjacency(dtype=np.float64))[0]
    vals.flags.writeable = False
    return vals


def graph_spectrum(g: Graph) -> Spectrum:
    """`hermitian_spectrum` of g's adjacency, whose max row sum is the largest
    degree, from `_adjacency_eigenvalues`."""
    return cluster_values(_adjacency_eigenvalues(g), max(g.degrees, default=0))


# ---------------------------------------------------------------------------
# exact characteristic polynomial of a graph


def _rounded_factors(g: Graph):
    """{k: g_k}, the guess of `_few_eigenvalue_char_poly`: g_k = prod (x -
    theta) over the clustered eigenvalues theta of multiplicity k of g's
    `graph_spectrum`, rounded to integers; None when the eigensolver fails or
    a coefficient reaches 2^50, past which a float no longer resolves
    integers."""
    try:
        spectrum = graph_spectrum(g)
    except NumericError:
        return None
    roots = {}
    for theta, k in spectrum:
        roots.setdefault(k, []).append(theta)
    factors = {}
    for k, thetas in roots.items():
        c = np.poly(thetas)[::-1]
        if not (np.abs(c) < 2**50).all():
            return None
        factors[k] = IntPoly(np.rint(c).tolist())
    return factors


def _powers_mod(a, delta, primes, top, rows=slice(None)):
    """The r rows `rows` of A^1, ..., A^top, A the n-square 0/1 adjacency a
    of largest degree delta, modulo the K primes of the list primes: float64
    (K, r, n) stacks, slice k modulo primes[k], or one slice for them all.

    Each step is one BLAS product A^j = A^(j-1) A on the stack as one (K r, n)
    matrix, exact while delta * p < 2^53: an entry sums at most delta
    residues. An entry of A^j counts walks, at most delta^(j-1); until that
    reaches the least prime, A^j is its own residue and np.fmod is not called.
    """
    n, least, power, q = len(a), min(primes), a[None, rows], None
    for j in range(1, top + 1):
        if j > 1:  # one slice before the first reduction, then K slices as one (K r, n) matrix
            power = power @ a if q is None else (power.reshape(-1, n) @ a).reshape(power.shape)
        if delta ** (j - 1) >= least:
            q = np.array(primes, dtype=np.float64)[:, None, None] if q is None else q
            power = np.fmod(power, q, out=power if len(power) == len(q) else None)
        yield power


def _few_eigenvalue_char_poly(g: Graph):
    """(char poly, distinct eigenvalue count) of the adjacency A of g, from
    the guess of `_rounded_factors` certified exactly, or None when the guess
    or a check fails.

    The guess is a monic g_k in Z[x] for each multiplicity k. The true g_k,
    whose roots are the eigenvalues of multiplicity k, lies in Z[x]:
    conjugate eigenvalues of the integer matrix A have equal multiplicities,
    so its roots are a union of Galois orbits. Nothing about the guess is
    trusted. The certificate: m = prod_k g_k is square-free (its own
    `squarefree_part`, which takes one gcd for a square-free m), m(A) = 0,
    and tr(A^j) = sum_k k p_j(g_k) for j < D = deg m, with the power sums p_j
    of the roots of g_k by Newton's identities. A is symmetric, so m(A) = 0
    puts every eigenvalue among the D distinct roots of m; the traces of
    A^0..A^(D-1) are then a Vandermonde system in the multiplicities of
    those roots, and the guess solves it. So det(xI - A) = prod_k g_k^k,
    with D distinct eigenvalues.

    The checks run modulo primes below `_CERTIFICATE_LIMIT` whose product
    P exceeds B = max(|c_0| + sum_(i>=1) |c_i| Delta^(i-1), n Delta^(D-2)),
    Delta the largest degree and c_i the coefficients of m. An entry of A^i,
    i >= 1, counts walks whose last step is forced, at most Delta^(i-1), so
    |m(A)| <= B entrywise; tr(A^j), j >= 1, lies in [0, n Delta^(j-1)], and a
    predicted trace outside it fails at once. So each check tests an |x| <=
    B < P for zero, which x = 0 (mod P) decides, with no factor 2 for a sign.
    All the primes run through `_powers_mod` at once, on blocks of rows within
    max(BATCH_ENTRIES, n^2) entries a stack, so each power before the first
    reduction is taken once; m(A) sums c_j A^j as they come.
    """
    factors = _rounded_factors(g)
    if factors is None:
        return None
    m = math.prod(factors.values(), start=IntPoly((1,)))
    n, d, delta = g.n, m.degree, max(g.degrees)
    sums = [(k, _power_sums(f, d)) for k, f in factors.items()]
    traces = [sum(k * s[j] for k, s in sums) for j in range(d)]
    if traces[0] != n or not all(0 <= t <= n * delta**j for j, t in enumerate(traces[1:])):
        return None
    if squarefree_part(m) != m:
        return None
    primes = _crt_primes(_CERTIFICATE_LIMIT, (max(  # a product past B, not 2B
        abs(m.coeffs[0]) + sum(abs(c) * delta**i for i, c in enumerate(m.coeffs[1:])),
        n * delta ** max(d - 2, 0)) + 1) // 2)
    a, q = g.adjacency(dtype=np.float64), np.array(primes, dtype=np.float64)[:, None, None]
    # residues, one row per prime, of m's coefficients and of minus the traces
    coeffs = np.array([[c % p for c in m.coeffs] for p in primes], dtype=np.float64)
    rest = np.array([[-t % p for t in traces + [0]] for p in primes], dtype=np.float64)
    step = max(1, max(BATCH_ENTRIES, n * n) // (len(primes) * n))  # rows per block
    for lo in range(0, n, step):
        m_of_a = coeffs[:, 0, None, None] * np.eye(min(step, n - lo), n, lo)
        for j, power in enumerate(_powers_mod(a, delta, primes, d, slice(lo, lo + step)), 1):
            rest[:, j] += power.trace(lo, axis1=1, axis2=2)
            if m.coeffs[j]:
                m_of_a += coeffs[:, j, None, None] * power
                np.fmod(m_of_a, q, out=m_of_a)
        if m_of_a.any():
            return None
    if np.fmod(rest[:, 1:d], q[:, :, 0]).any():
        return None
    return math.prod((f ** k for k, f in factors.items()), start=IntPoly((1,))), d


@lru_cache(maxsize=512)
def _char_poly_and_distinct(g: Graph):
    """(char poly, distinct eigenvalue count) of the adjacency of g, exact:
    by `_few_eigenvalue_char_poly` where its certificate holds, else by
    `char_poly_int_matrix` and the degree of its square-free part."""
    if g.n == 0:
        return IntPoly((1,)), 0
    found = _few_eigenvalue_char_poly(g)
    if found is not None:
        return found
    p = char_poly_int_matrix(g.adjacency())
    return p, squarefree_part(p).degree


def char_poly(g: Graph) -> IntPoly:
    """Exact characteristic polynomial of the 0/1 adjacency matrix."""
    return _char_poly_and_distinct(g)[0]


def distinct_eigenvalue_count(g: Graph) -> int:
    """Number of distinct adjacency eigenvalues, exact; see
    `_char_poly_and_distinct`."""
    return _char_poly_and_distinct(g)[1]


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
    table, rows = f.row
    g = np.array(f.group.elements(), dtype=np.int64)[table[rows[0], 0]]
    val = np.exp(2j * math.pi * (np.mod(tuple(j), orders) * g / orders).sum(axis=1))
    u, v = f.base.edge_array.T
    s = np.zeros((f.base.n, f.base.n), dtype=np.complex128)
    s[u, v], s[v, u] = val, val.conj()
    s.flags.writeable = False
    return s


def _character_classes(group, gains):
    """(e, twos, reals, expo) for abelian gains: e the group's exponent, its
    nontrivial characters one per pair {chi, conj chi}, first those of the
    pairs of two (twos), then the real ones, and expo[..., c, i] the k with
    chi_c = zeta_e^k at element gains[..., i] of group.elements(), the gain
    of edge i of the base's sorted_edges()."""
    orders, elements, e = np.array(group.orders), group.elements(), math.lcm(*group.orders)
    twos = [c for c in elements[1:] if c < group.inverse(c)]
    reals = [c for c in elements[1:] if c == group.inverse(c)]
    chars = np.array(twos + reals, dtype=np.int64).reshape(-1, len(orders)) * (e // orders)
    g = np.array(elements, dtype=np.int64)[gains]
    return e, twos, reals, chars @ np.swapaxes(g, -1, -2) % e


def _class_eigenvalues(base: Graph, group, gains):
    """The (..., n(|G| - 1)) eigenvalues of the nontrivial character matrices
    S_chi of abelian gains on base, gains[..., i] the index in
    group.elements() of the gain of edge i of base.sorted_edges(), from one
    real symmetric matrix per class of `_character_classes`: S_chi of a real
    chi, and for a pair {chi, conj chi} the 2n-square [[Re S, -Im S], [Im S,
    Re S]] of S = S_chi, whose spectrum is the pair's union, with entries from
    the cos and sin of the e-th roots of unity. One eigensolve takes the
    batch's real classes, and one its pairs."""
    n, (u, v) = base.n, base.edge_array.T
    e, twos, reals, expo = _character_classes(group, gains)
    turn = 2 * math.pi * np.arange(e) / e
    re, im, k, batch = np.cos(turn)[expo], np.sin(turn)[expo], len(twos), expo.shape[:-2]
    vals = []
    if reals:
        s = np.zeros(batch + (len(reals), n, n))
        s[..., u, v] = s[..., v, u] = re[..., k:, :]
        vals.append(_eigvalsh(s).reshape(batch + (-1,)))
    if twos:
        s = np.zeros(batch + (k, 2, n, 2, n))
        c, d = re[..., :k, :], im[..., :k, :]
        s[..., 0, u, 0, v] = s[..., 0, v, 0, u] = s[..., 1, u, 1, v] = s[..., 1, v, 1, u] = c
        s[..., 1, u, 0, v] = s[..., 0, v, 1, u] = d
        s[..., 1, v, 0, u] = s[..., 0, u, 1, v] = -d
        vals.append(_eigvalsh(s.reshape(batch + (k, 2 * n, 2 * n))).reshape(batch + (-1,)))
    return np.concatenate(vals, axis=-1)


def cover_spectrum(f: GainGraph) -> Spectrum:
    """`hermitian_spectrum` of the lift of f; for abelian gains without the
    lift, whose adjacency is similar to the block diagonal of the character
    matrices S_chi, S_1 the base's. Its eigenvalues are then the base's
    (`_adjacency_eigenvalues`) and those of `_class_eigenvalues` on a batch
    of one, clustered at the lift's max row sum, the base's largest degree;
    permutation gains take the whole lift."""
    if not f.group.is_abelian:
        return hermitian_spectrum(f.cover.graph.adjacency(dtype=np.float64))
    table, rows = f.row
    new = _class_eigenvalues(f.base, f.group, table[rows, 0])[0]
    return cluster_values(np.concatenate([_adjacency_eigenvalues(f.base), new]),
                          max(f.base.degrees, default=0))


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
    require it, so callers combine the two fields as needed. new_poly, the
    exact char poly of the lift on W (the cover's over the base's), is left
    out of `as_dict`.
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
    new_poly: IntPoly | None = field(default=None, repr=False)

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


def _check_lift(f: GainGraph):
    """Raises InternalConsistencyError unless the lift's adjacency has the base
    adjacency as fiber row sums, which keeps W invariant, in O(edges) memory:
    the fiber pairs (x // r, y // r) are the base's arcs, each r times, and
    no (x, fiber of y) repeats, so each x has one neighbour over each base
    neighbour of its fiber's vertex and none elsewhere."""
    n, r, e, b = f.base.n, f.cover.r, f.cover.graph.edge_array, f.base.edge_array
    x, y = np.concatenate([e, e[:, ::-1]]).T
    pairs, fibers = np.sort(x * n + y // r), np.sort(x // r * n + y // r)
    arcs = np.repeat(np.sort(np.concatenate([b @ [n, 1], b @ [1, n]])), r)
    if len(fibers) != len(arcs) or (fibers != arcs).any() or (pairs[1:] == pairs[:-1]).any():
        raise InternalConsistencyError(
            "lift blocks do not have the base adjacency as row sums; lift is broken")


def fiber_sum_zero_matrix(f: GainGraph) -> np.ndarray:
    """The lift's adjacency A on W, the vectors that sum to zero on every
    fiber, as an n(r-1)-square integer matrix: in the basis e_(v,i) - e_(v,0),
    i = 1..r-1, entry ((v,i), (u,j)) is A((v,i), (u,j)) - A((v,i), (u,0)),
    the one slice of `_fiber_sum_zero_stack` on f's row. Raises
    InternalConsistencyError as `_check_lift` does."""
    _check_lift(f)
    table, rows = f.row
    return _fiber_sum_zero_stack(f.base, table, rows)[0].astype(np.int64)


def _character_difference_poly(f: GainGraph):
    """(P, Q) of abelian gains, from their character matrices S_chi: P the
    char poly on W of `spectral_difference_poly`, and Q a factor of it with
    the same roots.

    The lift is similar to the block diagonal of the S_chi, and the trivial
    character gives the base, so P = prod_{chi != 1} h_chi, h_chi = det(xI -
    S_chi) in Z[zeta_e][x], e the group's exponent. S_conj(chi) is the
    transpose of S_chi, so P = Q R: Q takes one h_chi per pair {chi, conj
    chi}, a real character a pair of one, and R one per pair of two (R = Q
    when no character is real). Galois maps pairs to pairs, so Q and R lie in
    Z[x]; ||S_chi||_F^2 = 2m, so `_coefficient_bound(nk, 2mk)`, k pairs,
    bounds both. Mod a prime p = 1 (mod e), zeta_e maps to an element of
    order e in F_p; every (prime, pair) slice goes through one stack of
    `_char_poly_mod`, and the factors multiply mod p, pairs of two first.
    """
    n, m, (table, rows) = f.base.n, f.base.m, f.row
    e, twos, reals, expo = _character_classes(f.group, table[rows[0], 0])
    pairs = twos + reals
    primes = _crt_primes(_int64_limit(n),
                         _coefficient_bound(n * len(pairs), 2 * m * len(pairs)), e)
    zetas = [_root_of_unity(e, p) for p in primes]
    powers = np.array([[pow(w, j, p) for j in range(e)] for w, p in zip(zetas, primes)],
                      dtype=np.int64)
    u, v = f.base.edge_array.T
    s = np.zeros((len(primes), len(pairs), n, n), dtype=np.int64)
    s[:, :, u, v] = powers[:, expo]
    s[:, :, v, u] = powers[:, -expo % e]
    polys = _char_poly_mod(s.reshape(-1, n, n), [p for p in primes for _ in pairs])
    polys = polys.reshape(len(primes), len(pairs), n + 1)
    q = np.array(primes, dtype=np.int64)[:, None]
    out = np.ones((len(primes), 1), dtype=np.int64)
    for j in range(len(pairs)):
        if j == len(twos):
            r_poly = _crt(out, primes)
        out = _poly_mul_mod(out, polys[:, j], q)
    q_poly = _crt(out, primes)
    return q_poly * (r_poly if reals else q_poly), q_poly


def spectral_difference_poly(f: GainGraph):
    """(new_poly, distinct): the exact char poly of the lift's adjacency on W,
    the vectors that sum to zero on every fiber (the cover's over the
    base's), and the number of its distinct roots, the degree of the
    square-free part of a factor with the same roots. For abelian gains that
    factor takes one char poly per conjugate pair (`_character_difference_poly`);
    for permutation gains it is new_poly, the char poly of
    `fiber_sum_zero_matrix`. Raises InternalConsistencyError as `_check_lift`
    does."""
    if f.group.is_abelian:
        _check_lift(f)
        new_poly, roots = _character_difference_poly(f)
    else:
        new_poly = roots = char_poly_int_matrix(fiber_sum_zero_matrix(f))
    return new_poly, squarefree_part(roots).degree


def _batch_input(base: Graph, table, rows):
    """table and rows as int64 arrays, checked as the input of a batch kernel.

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
    return table, rows


def _fiber_sum_zero_stack(base: Graph, table, rows):
    """The (B, d, d) float64 stack, B = len(rows) and d = n(r-1), of the
    lifts' adjacency A on W, the vectors that sum to zero on every fiber, in
    the basis e_(v,i) - e_(v,0), i = 1..r-1.

    An edge u < v whose gain acts on the sheets as t, a row of table, has the
    lift block P at (u, v), P[i, t[i]] = 1, and its transpose at (v, u). In
    this basis they become F = P[1:, 1:] - P[1:, :1], F[i, j] = [t[i] = j] -
    [t[i] = 0], and G = H^T, H = P[1:, 1:] - P[:1, 1:], H[i, j] = [t[i] = j]
    - [t[0] = j], for i, j = 1..r-1, every entry -1, 0 or 1. F and H are
    taken once per table row, or, when the table has more rows than the
    batch has gains, once per row that the batch uses, so that no temporary
    outgrows the stack."""
    n, r = base.n, table.shape[1]
    if len(table) > rows.size:
        used = np.zeros(len(table), dtype=bool)
        used[rows] = True
        table, rows = table[used], (np.cumsum(used) - 1)[rows]
    sheets = np.arange(1, r)
    p = table[:, 1:, None] == sheets  # P[1:, 1:]
    pos = np.arange(n * (r - 1)).reshape(n, r - 1)  # row and column (v, i) of the stack
    u, v = pos[base.edge_array[:, 0], :, None], pos[base.edge_array[:, 1], None, :]
    w = np.zeros((len(rows), n * (r - 1), n * (r - 1)))
    w[:, u, v] = np.subtract(p, table[:, 1:, None] == 0, dtype=np.float64)[rows]
    w[:, v, u] = np.subtract(p, table[:, :1, None] == sheets, dtype=np.float64)[rows]
    return w


def fiber_two_ev(base: Graph, table, rows):
    """Exact two-eigenvalue verdicts for a batch of lifts of base, from the gains.

    Row b of `rows` gives edge i of base.sorted_edges(), walked min -> max, the
    gain whose sheet action is table[rows[b, i]] (see `gains.sheet_table` and
    `gains.gain_row`). Returns (hit, lam), a bool and an int64 array with one
    entry per row; where hit is true the lift is 2ev and lam is its lambda.

    A, the lift's adjacency, preserves the space W of vectors that sum to zero
    on every fiber, and carries the new spectrum there. The diagonal blocks of
    A^2 are deg(u)*I, so a 2ev lift needs a regular base of valency k, and it
    is 2ev iff M^2 - lambda*M - k*I = 0 for M, the n(r-1)-square matrix of A
    on W (`_fiber_sum_zero_stack`). M has entries -1, 0 and 1 and a zero
    diagonal. At row a = (x, 1) of the least edge x - y, whose gain sends
    sheet 1 to t1, M_ab is 1 at column b = (y, t1), or -1 at b = (y, 1) when
    t1 = 0; off the diagonal the test reads (M^2)_ab = lambda*M_ab, which gives
    lambda. The test itself is (M - lambda/2 I)^2 = (lambda^2/4 + k) I: one
    batched float64 matmul (on BLAS) per `batch_rows(n(r-1))` rows, exact,
    since every entry is a small multiple of 1/4.

    Raises ParameterError unless table is a 2-D array of sheet permutations
    and rows a 2-D array of indices into it with one column per edge.
    """
    table, rows = _batch_input(base, table, rows)
    hit = np.zeros(len(rows), dtype=bool)
    lam = np.zeros(len(rows), dtype=np.int64)
    r = table.shape[1]
    if r < 2 or not base.edges or not base.is_regular():
        return hit, lam
    k, diag = base.degrees[0], np.arange(base.n * (r - 1))
    x, y = base.edge_array[0] * (r - 1)
    cols = y + np.maximum(table[:, 1] - 1, 0)  # column b for each gain of the least edge
    step = batch_rows(len(diag))
    for lo in range(0, len(rows), step):
        batch = rows[lo:lo + step]
        w = _fiber_sum_zero_stack(base, table, batch)
        b, col = np.arange(len(w)), cols[batch[:, 0]]
        lam_b = np.einsum("bj,bj->b", w[:, x], w[b, :, col]) * w[b, x, col]
        w[:, diag, diag] = -lam_b[:, None] / 2
        w = w @ w  # (M - lambda/2 I)^2; rebinding w frees M, so two stacks at most
        w[:, diag, diag] -= (lam_b * lam_b / 4 + k)[:, None]
        hit[lo:lo + len(w)] = ~w.reshape(len(w), -1).any(axis=1)
        lam[lo:lo + len(w)] = lam_b
        del w  # so the next batch's stack is built beside no other
    return hit, lam


def two_ev_certificate(f: GainGraph, lam) -> TwoEvCertificate:
    """Certificate of f, whose lift `fiber_two_ev` found 2ev with this lambda.

    theta and tau are the roots of x^2 - lambda*x - k. A has zero trace on W,
    so m_theta*theta + m_tau*tau = 0 fixes the multiplicities in integers and
    new_poly = (x - theta)^m_theta (x - tau)^m_tau. Connectivity is the lift's.
    """
    base, r = f.base, f.group.sheet_count
    k, dim = base.degrees[0], base.n * (r - 1)
    roots = quadratic_roots(lam, k)
    if roots:
        hi, lo = roots
        m_theta, rem = divmod(-dim * lo, hi - lo)
        if rem:
            raise InternalConsistencyError("new-eigenvalue multiplicity is not integral")
        theta, tau, m_tau = float(hi), float(lo), dim - m_theta
        new_poly = _binomial_power(hi, m_theta, 1) * _binomial_power(lo, m_tau, 1)
    else:
        # conjugate irrational roots carry equal multiplicity, so zero trace
        # forces lambda = 0 and an even dimension
        if lam != 0 or dim % 2:
            raise InternalConsistencyError("conjugate new eigenvalues with unequal multiplicity")
        sq = math.sqrt(lam * lam + 4 * k)
        theta, tau = (lam + sq) / 2.0, (lam - sq) / 2.0
        m_theta = m_tau = dim // 2
        new_poly = _binomial_power(k, m_theta, 2)  # (x^2 - k)^(dim/2)
    return TwoEvCertificate(
        is_two_ev=True,
        theta=theta,
        tau=tau,
        mult_theta=m_theta,
        mult_tau=m_tau,
        lambda_=lam,
        mu=k,
        cover_connected=is_connected(f.cover),
        new_distinct=2,
        new_poly=new_poly,
    )


def classify_two_ev(f: GainGraph) -> TwoEvCertificate:
    """Classify whether the lift of f is a two-eigenvalue cover of its base.

    The verdict is `fiber_two_ev`'s, on a batch of one. Only a miss takes the
    exact char poly on W, and counts its distinct new eigenvalues as
    `spectral_difference_poly` does.
    """
    if not is_connected(f.base):
        raise DisconnectedError("two-eigenvalue classification requires a connected base")
    hit, lam = fiber_two_ev(f.base, *f.row)
    if hit[0]:
        return two_ev_certificate(f, int(lam[0]))
    new_poly, distinct = spectral_difference_poly(f)
    return TwoEvCertificate(is_two_ev=False, cover_connected=is_connected(f.cover),
                            new_distinct=distinct, new_poly=new_poly)


# ---------------------------------------------------------------------------
# block decomposition check (the module's master test)


def character_block_check(base: Graph, group, table, rows):
    """Max deviation between each lift's spectrum and the union of its
    character spectra, for a batch of abelian gains on base.

    table and rows are the input of `fiber_two_ev`, and are checked as there;
    a single gain graph f is checked as `character_block_check(f.base,
    f.group, *gain_row(f))`. The gain of row b on edge i is element
    table[rows[b, i], 0] of group.elements(), the image of sheet 0, the
    identity. For abelian gains the cover adjacency is similar to the block
    diagonal of the character matrices, so the base's eigenvalues
    (`_adjacency_eigenvalues`) joined with `_class_eigenvalues`, the route of
    `cover_spectrum`, must match the sorted eigenvalues of the lift within
    TOL * max(1, the lift's max row sum). Each run of `batch_rows(nr)` rows
    takes the batched eigensolves of `_class_eigenvalues`, one per kind of
    class present, and one over its (B, nr, nr) lift stack, scattered from
    the arcs of `gains.cover_arcs` and checked finite and Hermitian as in
    `hermitian_spectrum`. Returns (ok, dev), a bool and a
    float64 array with one entry per row.

    Raises ParameterError for a group that is not abelian, or a table whose
    width is not the group order.
    """
    if not group.is_abelian:
        raise ParameterError("block decomposition requires an abelian gain group")
    table, rows = _batch_input(base, table, rows)
    if table.shape[1] != group.order:
        raise ParameterError(f"sheet table rows must act on the {group.order} group elements")
    ok = np.zeros(len(rows), dtype=bool)
    dev = np.zeros(len(rows))
    size, base_vals = base.n * group.order, _adjacency_eigenvalues(base)
    step = batch_rows(size)
    for lo in range(0, len(rows), step):
        act = table[rows[lo:lo + step]]
        src, dst = cover_arcs(base, act)
        b = np.arange(len(act))[:, None, None]
        a = np.zeros((len(act), size, size))
        a[b, src, dst] = a[b, dst, src] = 1
        new = _class_eigenvalues(base, group, act[..., 0])
        union = np.sort(np.concatenate(
            [np.broadcast_to(base_vals, (len(a), base.n)), new], axis=1), axis=1)
        cover_vals, scale = _checked_eigvalsh(a)
        dev_b = np.abs(union - cover_vals).max(axis=1, initial=0.0)
        ok[lo:lo + len(a)] = dev_b <= TOL * np.maximum(scale, 1.0)
        dev[lo:lo + len(a)] = dev_b
    return ok, dev
