import itertools
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaincover import (GainGraph, Graph, GroupSpec, char_poly,
                       character_block_check, classify_two_ev,
                       complete_bipartite, complete_graph, cycle, hypercube,
                       identity_gains, is_connected, johnson, kneser, lift,
                       octahedron, petersen, rep_matrix)
from gaincover import cli, intpoly, spectral
from gaincover.errors import (ContractViolation, DisconnectedError,
                             InternalConsistencyError, NumericError, ParameterError)
from gaincover.families import (butson_gain, fourier_butson, huang_signing, k3n_nonexample,
                                s3_cover_k5)
from gaincover.intpoly import IntPoly, _prime, squarefree_part
from gaincover.search import RANDOM, SearchSpec, assignment_rows, run_search
from gaincover.gains import CoverGraph, gain_row, parse_gain_file, sheet_table
from gaincover.spectral import (TOL, char_poly_int_matrix, cluster_values, cover_spectrum,
                                distinct_eigenvalue_count, fiber_sum_zero_matrix,
                                fiber_two_ev, hermitian_spectrum,
                                spectral_difference_poly, two_ev_certificate)

from conftest import (block_check_oracle, edge_lift, edge_rep_matrix, lift_fiber_two_ev,
                      mul_poly, poly_from_roots, poly_pow, prs_squarefree_part,
                      random_graph, spec_gains)


def fl_bigint_char_poly(a):
    """Independent oracle: Faddeev-LeVerrier over Python big integers."""
    n = len(a)
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        ab = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(ab[i][i] for i in range(n))
        ck, rem = divmod(-tr, k)
        assert rem == 0
        coeffs.append(ck)
        if k < n:
            b = ab
            for i in range(n):
                b[i][i] += ck
    return list(reversed(coeffs))


# ---------------------------------------------------------------------------
# exact characteristic polynomials


def test_char_poly_small_complete_graphs():
    # (x-2)(x+1)^2 and (x-3)(x+1)^3
    assert char_poly(complete_graph(3)).coeffs == (-2, -3, 0, 1)
    assert char_poly(complete_graph(4)).coeffs == (-3, -8, -6, 0, 1)


def test_char_poly_hypercube3():
    expect = mul_poly(poly_from_roots([3, -3]), mul_poly(
        poly_from_roots([1, 1, 1]), poly_from_roots([-1, -1, -1])))
    assert char_poly(hypercube(3)).coeffs == tuple(expect)


def test_char_poly_kneser72():
    expect = poly_from_roots([10] + [1] * 14 + [-4] * 6)
    assert char_poly(kneser(7, 2)).coeffs == tuple(expect)


def _oracle_cases(rng):
    """Integer matrices for the oracle comparison beyond 0/1 graphs: small
    cases by hand, signed non-symmetric matrices, and the shapes the
    Hessenberg reduction branches on."""
    def signed(n):
        return [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]

    def permutation(n):
        # column 0 has its only nonzero entry far from the subdiagonal, so
        # the Hessenberg reduction must swap rows and columns
        perm = list(range(n))
        rng.shuffle(perm)
        return [[int(perm[i] == j) for j in range(n)] for i in range(n)]

    def nilpotent(n):
        # every sub-pivot column is already zero
        return [[rng.randint(-5, 5) if i < j else 0 for j in range(n)] for i in range(n)]

    def block_diagonal(n):
        # below the first block, column k-1 is zero: no pivot, no reduction
        k = rng.randint(1, n - 1)
        top, bottom = signed(k), signed(n - k)
        return ([row + [0] * (n - k) for row in top]
                + [[0] * k + row for row in bottom])

    tiny = [[[0]], [[-3]], [[1, 2], [3, 4]], [[0, 1], [0, 0]], [[0, -5], [7, 0]],
            [[0, 0], [4, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
    return (tiny
            + [signed(rng.randint(1, 9)) for _ in range(40)]
            + [permutation(rng.randint(2, 9)) for _ in range(20)]
            + [nilpotent(rng.randint(1, 9)) for _ in range(20)]
            + [block_diagonal(rng.randint(2, 9)) for _ in range(20)])


def test_char_poly_matches_bigint_oracle(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        a = [[1 if (min(i, j), max(i, j)) in g.edges else 0 for j in range(g.n)]
             for i in range(g.n)]
        assert list(char_poly(g).coeffs) == fl_bigint_char_poly(a)
    for a in _oracle_cases(rng):
        assert list(char_poly_int_matrix(a).coeffs) == fl_bigint_char_poly(a), a


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2**20, 2**20), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_bigint_oracle_property(a):
    assert list(char_poly_int_matrix(a).coeffs) == fl_bigint_char_poly(a)


@pytest.mark.parametrize("k", [-(2**20), 2**20, -(2**18), 2**18, -(2**31), 2**31, -1])
def test_char_poly_of_scaled_identity_meets_the_crt_bound(k):
    # |c_i| = C(n,i) |k|^i equals the Frobenius coefficient bound exactly, so
    # one prime too few would return a wrong sign or value. At k = +-2^18 and
    # +-2^31 the largest coefficient also exceeds half of the product of the
    # first primes whose product exceeds it, so stopping at prod > bound
    # (rather than 2 * bound) gives a wrong sign there.
    n = 40
    got = char_poly_int_matrix(k * np.eye(n, dtype=np.int64)).coeffs
    assert got == tuple(math.comb(n, i) * (-k) ** (n - i) for i in range(n + 1))


def test_char_poly_of_all_ones_matrix():
    # J_n has eigenvalues n (once) and 0: char poly x^(n-1) (x - n)
    n = 50
    assert char_poly_int_matrix(np.ones((n, n), dtype=np.int64)).coeffs == \
        (0,) * (n - 1) + (-n, 1)


def test_char_poly_with_entries_near_two_to_the_forty(rng):
    n = 12
    a = [[rng.choice((-1, 1)) * (2**40 - rng.randint(0, 999)) for _ in range(n)]
         for _ in range(n)]
    expect = fl_bigint_char_poly(a)
    assert list(char_poly_int_matrix(a).coeffs) == expect
    # every entry is exact in float64, so a float matrix gives the same answer
    assert list(char_poly_int_matrix(np.array(a, dtype=np.float64)).coeffs) == expect


def test_char_poly_general_int_matrix():
    m = [[2, -1], [-1, 2]]
    assert char_poly_int_matrix(m).coeffs == (3, -4, 1)  # (x-1)(x-3)
    assert char_poly_int_matrix(np.array(m, dtype=np.float64)).coeffs == (3, -4, 1)
    assert char_poly_int_matrix(np.zeros((0, 0), dtype=int)).coeffs == (1,)
    assert char_poly_int_matrix([[2**63 - 1]]).coeffs == (1 - 2**63, 1)
    assert char_poly_int_matrix([[-2**63]]).coeffs == (2**63, 1)


@pytest.mark.parametrize("bad", [[[0.5]], [[1.9, 0], [0, 0]], [[math.nan]], [[math.inf]],
                                 [[2**70]], [[2**63]], [[-2**63 - 1]], [[1e30]],
                                 [[1, 2]], [1, 2]])
def test_char_poly_int_matrix_rejects_bad_input(bad):
    with pytest.raises(ParameterError):
        char_poly_int_matrix(bad)


def _char_poly_mod_oracle(a, p):
    return [c % p for c in fl_bigint_char_poly(a)]


def test_stacked_char_poly_mod_matches_each_slice_alone(rng, monkeypatch):
    big = spectral._crt_primes(spectral._int64_limit(6), 2**200)  # 6 p^2 < 2^63
    base = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
    base[1][0], base[2][0] = 101, 1
    # the same matrix under 101 and 103 pivots on row 2 and on row 1 of
    # column 0; the third slice has column 0 already reduced, so its h_10 = 0
    # splits it; the others are dense and sparse
    split = [row[:] for row in base]
    for i in range(1, 6):
        split[i][0] = 0
    sparse = [[rng.choice((0, 0, 0, 1, -2)) for _ in range(6)] for _ in range(6)]
    slices = [base, base, split, [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)], sparse]
    moduli = [101, 103, 7, big[0], big[1]]
    assert base[1][0] % 101 == 0 and base[1][0] % 103 != 0
    stack = spectral._char_poly_mod(np.array(slices, dtype=np.int64), moduli)
    for a, p, got in zip(slices, moduli, stack.tolist()):
        alone = spectral._char_poly_mod(np.array([a], dtype=np.int64), [p])
        assert got == alone[0].tolist() == _char_poly_mod_oracle(a, p), p
    # stacks of one slice and of several, at n = 0, 1 and 2, and a stack that
    # runs in chunks of two slices
    for n in (0, 1, 2):
        mats = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(3)]
        for k in (1, 3):
            got = spectral._char_poly_mod(np.array(mats[:k], dtype=np.int64).reshape(k, n, n),
                                          moduli[:k])
            assert got.tolist() == [_char_poly_mod_oracle(a, p)
                                    for a, p in zip(mats[:k], moduli)], (n, k)
    monkeypatch.setattr(spectral, "BATCH_ENTRIES", 2 * 6 * 6)
    assert spectral._char_poly_mod(np.array(slices, dtype=np.int64), moduli).tolist() == \
        stack.tolist()


# ---------------------------------------------------------------------------
# a graph's char poly from its rounded spectrum, certified by powers mod p


def _modular(g):
    """(char poly, distinct eigenvalue count) of g by the modular route alone."""
    p = char_poly_int_matrix(g.adjacency())
    return p, squarefree_part(p).degree


def _cold(g):
    """(char_poly(g), distinct_eigenvalue_count(g)) from cold caches."""
    spectral._char_poly_and_distinct.cache_clear()
    return char_poly(g), distinct_eigenvalue_count(g)


def _certified(g):
    """`_cold(g)`, once the few-eigenvalue route is seen to certify it itself."""
    got = _cold(g)
    assert g.n == 0 or spectral._few_eigenvalue_char_poly(g) == got
    return got


def _from_spectrum(pairs):
    """(prod (x - theta)^m, count) over the (theta, m) pairs of a spectrum
    with integer eigenvalues."""
    return (math.prod((poly_pow(IntPoly((-theta, 1)), m) for theta, m in pairs),
                      start=IntPoly((1,))), len(pairs))


@pytest.mark.parametrize("n", range(1, 11))
def test_hypercube_char_poly_is_its_closed_form(n):
    assert _certified(hypercube(n)) == _from_spectrum(
        [(n - 2 * i, math.comb(n, i)) for i in range(n + 1)])


class _Stop(Exception):
    pass


@pytest.mark.parametrize("n", [11, 12])
def test_a_large_cube_certifies_on_two_primes(monkeypatch, n):
    # the zero tests need a product of primes past B = max(|c_0| + sum |c_i|
    # Delta^(i-1), n Delta^(D-2)), not past 2 max(sum |c_i| Delta^i, n
    # Delta^D), which takes 3 primes below 2^26 for Q11 and Q12. A stand-in
    # graph has Q_n's size and degree, and the guess is Q_n's spectrum; the
    # run stops once the primes are drawn
    spectrum = {}
    for i in range(n + 1):
        spectrum.setdefault(math.comb(n, i), []).append(n - 2 * i)
    guess = {k: math.prod((IntPoly((-t, 1)) for t in ts), start=IntPoly((1,)))
             for k, ts in spectrum.items()}
    m = math.prod(guess.values(), start=IntPoly((1,)))
    old_bound = max(sum(abs(c) * n**i for i, c in enumerate(m.coeffs)), 2**n * n**m.degree)
    assert len(spectral._crt_primes(spectral._CERTIFICATE_LIMIT, old_bound)) == 3
    drawn, real = [], spectral._crt_primes

    def stop(limit, bound):
        drawn.extend(real(limit, bound))
        raise _Stop

    monkeypatch.setattr(spectral, "_rounded_factors", lambda a: guess)
    monkeypatch.setattr(spectral, "_crt_primes", stop)
    cube = type("Cube", (), {"n": 2**n, "degrees": (n,), "adjacency": lambda self, dtype: None})
    with pytest.raises(_Stop):
        spectral._few_eigenvalue_char_poly(cube())
    assert len(drawn) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40])
def test_k3n_char_poly_is_its_closed_form(n):
    # irregular, with the irrational eigenvalues +-sqrt(3n) when 3n is not a square
    p = IntPoly((0,) * (n + 1) + (-3 * n, 0, 1))  # x^(n+1) (x^2 - 3n)
    assert _certified(complete_bipartite(3, n)) == (p, 3)


@pytest.mark.parametrize("n", range(5, 10))
def test_kneser_char_poly_is_its_closed_form(n):
    # K(n,2): C(n-2,2) once, -(n-3) n-1 times, 1 the remaining C(n,2)-n times
    assert _certified(kneser(n, 2)) == _from_spectrum(
        [(math.comb(n - 2, 2), 1), (3 - n, n - 1), (1, math.comb(n, 2) - n)])


@pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 2), (8, 3), (9, 4)])
def test_johnson_char_poly_is_its_closed_form(n, k):
    # J(n,k): (k-i)(n-k-i) - i with multiplicity C(n,i) - C(n,i-1)
    assert _certified(johnson(n, k)) == _from_spectrum(
        [((k - i) * (n - k - i) - i, math.comb(n, i) - (math.comb(n, i - 1) if i else 0))
         for i in range(min(k, n - k) + 1)])


@pytest.mark.parametrize("g", [cycle(13), cycle(31), Graph(0, []), Graph(1, []), Graph(5, []),
                               # K4, C5 and an isolated vertex: irregular, disconnected
                               Graph(10, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                                     + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]),
                               # the complement of C30, 27-regular with 16 distinct
                               # eigenvalues: A^j is reduced mod p long before j = D, and
                               # a coefficient's residue times it nears p^2, exact in
                               # float64 only for p below 2^26
                               Graph(30, [(u, v) for u in range(30) for v in range(u + 2, 30)
                                          if (u, v) != (0, 29)]),
                               # Paley(13): g_6 = x^2 + x - 3, a quadratic taken to the
                               # sixth power by squaring
                               Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                                          if (v - u) % 13 in (1, 3, 4, 9, 10, 12)])],
                         ids=["c13", "c31", "empty0", "empty1", "empty5", "k4+c5+k1", "co-c30",
                              "paley13"])
def test_graph_char_poly_matches_the_modular_route(g):
    assert _certified(g) == _modular(g)


def test_a_quadratic_factor_of_multiplicity_six_certifies():
    # Paley(13): 6 once and the roots of x^2 + x - 3 six times each
    paley = Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                       if (v - u) % 13 in (1, 3, 4, 9, 10, 12)])
    assert spectral._rounded_factors(paley) == {1: IntPoly((-6, 1)), 6: IntPoly((-3, 1, 1))}
    poly, distinct = spectral._few_eigenvalue_char_poly(paley)
    assert (poly, distinct) == (char_poly_int_matrix(paley.adjacency()), 3)
    assert poly == poly_pow(IntPoly((-3, 1, 1)), 6) * IntPoly((-6, 1))


def _x(*coeffs):
    return IntPoly(coeffs)


# (graph, a wrong guess of `_rounded_factors`), each caught by one exact check
WRONG_GUESSES = {
    # K2's eigenvalues 1 and -1 merged into 0, twice: D = 1 leaves no trace to
    # check, and only m(A) = A != 0 catches it
    "merged": (complete_graph(2), {2: _x(0, 1)}),
    # Q3's 1 and -1 merged into 0, six times: caught by tr(A^2) and m(A)
    "merged-q3": (hypercube(3), {1: _x(-9, 0, 1), 6: _x(0, 1)}),
    # Q3's multiplicities of 3 and 1 swapped: m is Q3's minimal polynomial,
    # and only tr(A) = 0, not 3*2 + 1*(-2), catches it
    "swapped": (hypercube(3), {3: _x(-3, -2, 1), 1: _x(-3, 2, 1)}),
    # one coefficient off by one: x^2 - 8 for Q3's x^2 - 9
    "off-by-one": (hypercube(3), {1: _x(-8, 0, 1), 3: _x(-1, 0, 1)}),
    # right modulo the first prime the route takes: x^2 + p - 1 for K2's
    # x^2 - 1 gives m(A) = pI; its coefficient p puts the bound past p/2, so
    # a second prime is taken, and m(A) != 0 modulo it
    "congruent": (complete_graph(2),
                  {1: _x(spectral._crt_primes(spectral._CERTIFICATE_LIMIT, 1)[0] - 1, 0, 1)}),
    # K_{1,3}'s 0 counted once, not twice: m = x^3 - 3x, m(A) = 0, and
    # tr(A), tr(A^2) are right, but the guess's degree 3 is not n = 4; only
    # tr(A^0) catches it
    "short": (complete_bipartite(1, 3), {1: _x(0, -3, 0, 1)}),
    # 3K2's roots 1 and -1 in both g_1 and g_2: the char poly (x^2 - 1)^3 and
    # every trace are right, but m = (x^2 - 1)^2 counts 4 distinct
    # eigenvalues; only the square-free check catches it
    "repeated": (Graph(6, [(0, 1), (2, 3), (4, 5)]), {1: _x(-1, 0, 1), 2: _x(-1, 0, 1)}),
}


@pytest.mark.parametrize("name", WRONG_GUESSES)
def test_a_wrong_guess_falls_back_to_the_modular_route(monkeypatch, name):
    g, guess = WRONG_GUESSES[name]
    expect = _certified(g)  # the right guess is certified
    assert expect == _modular(g)
    monkeypatch.setattr(spectral, "_rounded_factors", lambda h: guess)
    assert spectral._few_eigenvalue_char_poly(g) is None
    assert _cold(g) == expect


def test_the_certificate_runs_the_primes_in_chunks(monkeypatch):
    # every prime at once, in blocks of rows of about n^2 entries each: one
    # block per prime. A right guess still certifies, summing its traces over
    # the blocks, and the guess right modulo the first prime is refuted
    monkeypatch.setattr(spectral, "BATCH_ENTRIES", 1)
    for g in (hypercube(3), complete_bipartite(3, 5)):
        assert spectral._few_eigenvalue_char_poly(g) == _modular(g)
    # Q8 takes two primes below 2^26, so two blocks of 128 rows
    blocks = []
    real = spectral._powers_mod

    def recording(a, delta, primes, top, rows):
        blocks.append((len(primes), rows))
        return real(a, delta, primes, top, rows)

    monkeypatch.setattr(spectral, "_powers_mod", recording)
    q8 = _from_spectrum([(8 - 2 * i, math.comb(8, i)) for i in range(9)])
    assert spectral._few_eigenvalue_char_poly(hypercube(8)) == q8
    assert blocks == [(2, slice(0, 128)), (2, slice(128, 256))]
    # Q8's multiplicities of 8 and 6 swapped: m(A) = 0 in every block, and
    # only the traces summed over both blocks refute it
    swapped = {1: _x(-48, 2, 1), 8: _x(-48, -2, 1), 28: _x(-16, 0, 1), 56: _x(-4, 0, 1),
               70: _x(0, 1)}
    for guess in (swapped, WRONG_GUESSES["congruent"][1]):
        monkeypatch.setattr(spectral, "_rounded_factors", lambda h: guess)
        g = hypercube(8) if guess is swapped else WRONG_GUESSES["congruent"][0]
        assert spectral._few_eigenvalue_char_poly(g) is None


def _int_powers_mod(g, primes, top):
    """A^1, ..., A^top of g's adjacency in Python ints, each reduced modulo
    every prime of primes, as nested lists."""
    a = g.adjacency().astype(object)
    power, out = a, []
    for _ in range(top):
        out.append([(power % p).tolist() for p in primes])
        power = power.dot(a)
    return out


@pytest.mark.parametrize("g, top", [
    (complete_graph(64), 10), (complete_bipartite(3, 40), 8),
    *((random_graph(random.Random(n), n, 0.3 + n / 60), 12) for n in (1, 2, 7, 19, 33))],
    ids=["k64", "k3,40", "random1", "random2", "random7", "random19", "random33"])
def test_power_kernel_matches_python_int_powers(g, top):
    # the largest prime of each caller's range, the certificate's below 2^26
    # and the walk check's with Delta p < 2^53, stacked with a small prime,
    # which the powers reach at once
    delta = max(g.degrees)
    primes = [_prime(2**26, 0), _prime((2**53 - 1) // max(delta, 1), 0), 7]
    a, want = g.adjacency(dtype=np.float64), _int_powers_mod(g, primes, top)

    def check(lo, hi, rows=slice(None)):
        got = [np.broadcast_to(power, (hi - lo, len(a[rows]), g.n)).astype(np.int64).tolist()
               for power in spectral._powers_mod(a, delta, primes[lo:hi], top, rows)]
        assert got == [[x[rows] for x in w[lo:hi]] for w in want], (primes[lo:hi], rows)

    check(0, 3)
    # one prime at a time, as the walk check runs them, and the primes
    # together on blocks of rows, as the certificate runs them
    for lo in range(3):
        check(lo, lo + 1)
    for rows in (slice(0, 1), slice(g.n // 2, g.n)):
        check(0, 3, rows)


def test_a_graph_whose_guess_fails_takes_the_modular_route(rng):
    # the char poly of a random 64-vertex graph has coefficients far past
    # 2^50, so the guess gives up and the modular route answers
    g = random_graph(rng, 64)
    assert spectral._rounded_factors(g) is None
    assert _cold(g) == _modular(g)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])))))
def test_graph_char_poly_matches_the_modular_route_property(case):
    g = Graph(*case)
    found = spectral._few_eigenvalue_char_poly(g)
    assert found is None or found == _modular(g)
    assert _cold(g) == _modular(g)


# ---------------------------------------------------------------------------
# the Hermitian eigensolver: `hermitian_spectrum` is its one-matrix route


def test_hermitian_eigenvalues_matches_numpy_on_random_hermitian(rng):
    nprng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13, 21):
        m = nprng.normal(size=(n, n)) + 1j * nprng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        hr = h.real + h.real.T
        for mat in (h, hr, hr.astype(np.float32)):
            spec = hermitian_spectrum(mat)
            assert spec.dimension == n
            assert all(isinstance(v, float) for v in spec.values)
            assert list(spec.values) == sorted(spec.values, reverse=True)
            ours = np.sort(np.repeat(spec.values, [mult for _, mult in spec]))
            ref = np.sort(np.linalg.eigvalsh(mat.astype(np.result_type(mat, np.float64))))
            assert np.abs(ours - ref).max() < 1e-9
    assert hermitian_spectrum(np.array([[-2.5]])).pairs == ((-2.5, 1),)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [np.float64(5.0), np.zeros(3), np.zeros((2, 3)),
                                 np.zeros((2, 2, 2))])
def test_hermitian_eigenvalues_rejects_non_square(bad):
    with pytest.raises(ContractViolation, match="square"):
        hermitian_spectrum(bad)


@pytest.mark.parametrize("bad", [[[0.0, 1.0], [1.0, math.nan]],
                                 [[0.0, math.inf], [math.inf, 0.0]],
                                 [[math.inf, 0.0], [0.0, 1.0]],
                                 [[0.0, complex(0, math.nan)], [0.0, 0.0]]])
def test_hermitian_eigenvalues_rejects_non_finite(bad):
    # NaN compares false in the Hermitian test, and eigvalsh itself returns a
    # spectrum for [[0,1],[1,nan]], so only the finite check stops these
    with pytest.raises(NumericError):
        hermitian_spectrum(np.array(bad))


def test_hermitian_eigenvalues_maps_linalg_error(monkeypatch):
    def no_convergence(*a, **k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        hermitian_spectrum(np.eye(3))


def test_zero_matrix_spectrum():
    spec = hermitian_spectrum(np.zeros((4, 4)))
    assert spec.pairs == ((0.0, 4),)


def test_cluster_values():
    spec = cluster_values([1.0, 1.0 + 1e-9, -2.0, 5.0], scale=1.0)
    assert spec.values == (5.0, pytest.approx(1.0), -2.0)
    assert [m for _, m in spec.pairs] == [1, 2, 1]
    assert spec.dimension == 4


def test_cycle5_spectrum_closed_form():
    spec = hermitian_spectrum(cycle(5).adjacency(dtype=float))
    expect = sorted({round(2 * math.cos(2 * math.pi * k / 5), 12) for k in range(5)},
                    reverse=True)
    assert spec.distinct() == 3
    for (v, m), e in zip(spec.pairs, expect):
        assert abs(v - e) < 1e-9
    assert [m for _, m in spec.pairs] == [1, 2, 2]


def test_huang3_character_spectrum():
    spec = hermitian_spectrum(rep_matrix(huang_signing(3), (1,)))
    assert spec.distinct() == 2
    assert spec.pairs[0][1] == 4 and spec.pairs[1][1] == 4
    assert abs(spec.values[0] - math.sqrt(3)) < 1e-9
    assert abs(spec.values[1] + math.sqrt(3)) < 1e-9


# ---------------------------------------------------------------------------
# character matrices


def test_rep_matrix_trivial_character_is_adjacency():
    f = huang_signing(3)
    s = rep_matrix(f, (0,))
    assert s.dtype == np.complex128 and not s.flags.writeable
    assert np.array_equal(s.real.astype(int), f.base.adjacency())
    assert np.abs(s.imag).max() == 0


def test_rep_matrix_huang1():
    s = rep_matrix(huang_signing(1), (1,))
    assert np.array_equal(s.real.astype(int), np.array([[0, 1], [1, 0]]))


def test_rep_matrix_k3_single_negative_edge():
    f = GainGraph(complete_graph(3), GroupSpec.cyclic(2),
                  {(0, 1): (1,), (0, 2): (0,), (1, 2): (0,)})
    s = rep_matrix(f, (1,)).real.astype(int)
    assert s[0, 1] == s[1, 0] == -1
    assert s[0, 2] == s[2, 0] == 1
    assert s[1, 2] == s[2, 1] == 1


def test_rep_matrix_is_hermitian_roots_of_unity(rng):
    base = petersen()
    group = GroupSpec.abelian(2, 3)
    gains = {e: (rng.randrange(2), rng.randrange(3)) for e in base.edges}
    f = GainGraph(base, group, gains)
    s = rep_matrix(f, (1, 2))
    assert np.abs(s - s.conj().T).max() < 1e-14
    nz = np.abs(s[s != 0])
    assert np.abs(nz - 1).max() < 1e-14


def test_rep_matrix_matches_the_edge_loop_oracle(rng):
    # the array form sums the same terms in the same order as the loop; a few
    # ulps of slack cover a complex exp that rounds differently
    eps = np.finfo(float).eps
    for group in (GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4),
                  GroupSpec.abelian(2, 2), GroupSpec.abelian(2, 3)):
        for _ in range(6):
            base = random_graph(rng, rng.randint(1, 8), 0.5)
            f = GainGraph(base, group, {e: tuple(rng.randrange(r) for r in group.orders)
                                        for e in base.edges})
            for j in group.elements():
                assert np.abs(rep_matrix(f, j) - edge_rep_matrix(f, j)).max(initial=0) <= 4 * eps


def test_rep_matrix_requires_abelian():
    from gaincover.errors import ParameterError
    with pytest.raises(ParameterError):
        rep_matrix(s3_cover_k5(), (1,))


# ---------------------------------------------------------------------------
# two-eigenvalue classification


def test_classify_identity_k3():
    cert = classify_two_ev(identity_gains(complete_graph(3), GroupSpec.cyclic(2)))
    assert cert.is_two_ev and not cert.cover_connected
    assert (cert.theta, cert.tau) == (2.0, -1.0)
    assert (cert.mult_theta, cert.mult_tau) == (1, 2)
    assert (cert.lambda_, cert.mu) == (1, 2)


def test_classify_huang3_exact():
    cert = classify_two_ev(huang_signing(3))
    assert cert.is_two_ev and cert.cover_connected
    assert abs(cert.theta - math.sqrt(3)) < 1e-15
    assert abs(cert.tau + math.sqrt(3)) < 1e-15
    assert cert.mult_theta == cert.mult_tau == 4
    assert (cert.lambda_, cert.mu) == (0, 3)


def test_classify_cycle5_single_flip_not_two_ev():
    base = cycle(5)
    gains = {e: (0,) for e in base.edges}
    gains[(0, 1)] = (1,)
    cert = classify_two_ev(GainGraph(base, GroupSpec.cyclic(2), gains))
    assert not cert.is_two_ev
    assert cert.new_distinct == 3
    assert cert.cover_connected


def test_classify_permutation_gain():
    cert = classify_two_ev(s3_cover_k5())
    assert cert.is_two_ev and cert.cover_connected
    assert (cert.theta, cert.tau) == (2.0, -2.0)
    assert cert.mult_theta == cert.mult_tau == 5
    assert (cert.lambda_, cert.mu) == (0, 4)


def test_classify_requires_connected_base():
    base = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        classify_two_ev(identity_gains(base, GroupSpec.cyclic(2)))


def test_base_poly_always_divides_cover(rng):
    for _ in range(15):
        base = random_graph(rng, rng.randint(2, 6), 0.7)
        from gaincover import is_connected
        if not is_connected(base):
            continue
        group = rng.choice([GroupSpec.cyclic(2), GroupSpec.cyclic(3),
                            GroupSpec.abelian(2, 2)])
        gains = {e: tuple(rng.randrange(r) for r in group.orders)
                 for e in base.edges}
        f = GainGraph(base, group, gains)
        quo = spectral_difference_poly(f)[0]
        assert quo == _lift_over_base(f)
        assert quo.degree == base.n * (group.sheet_count - 1)
        assert quo.is_monic


def _lift_over_base(f):
    """Test-local oracle for `spectral_difference_poly`: the char poly of the
    whole lift over the base's, which it must divide."""
    quo, rem = char_poly(lift(f).graph).divmod_monic(char_poly(f.base))
    assert rem.is_zero
    return quo


def _random_gain(rng, base, group):
    if group.is_abelian:
        return GainGraph(base, group, {e: tuple(rng.randrange(r) for r in group.orders)
                                       for e in base.edges})
    return GainGraph(base, group, {e: tuple(rng.sample(range(group.degree), group.degree))
                                   for e in base.edges})


def test_difference_poly_is_the_char_poly_on_the_fiber_sum_zero_space(rng):
    bases = [complete_graph(4), complete_graph(5), cycle(6), petersen(),
             complete_bipartite(2, 3), random_graph(rng, 6, 0.6)]
    groups = [GroupSpec.permutation(d) for d in (1, 2, 3, 4)] + [
        GroupSpec.abelian(2, 2), GroupSpec.cyclic(5), GroupSpec.abelian(2, 3)]
    for base in bases:
        for group in groups:
            for _ in range(3):
                f = _random_gain(rng, base, group)
                quo = spectral_difference_poly(f)[0]
                assert quo == _lift_over_base(f), (f.gains, group)
                assert quo == char_poly_int_matrix(fiber_sum_zero_matrix(f))
                assert quo.degree == base.n * (group.sheet_count - 1)
    # abelian gains take the char poly from their characters: a single
    # character's char poly has coefficients outside Z for Z5 (above) and Z8,
    # and Z2 x Z4 and Z3 x Z3 have several cyclic factors
    for base in bases:
        for orders in [(4,), (6,), (8,), (2, 4), (3, 3)]:
            f = _random_gain(rng, base, GroupSpec.abelian(*orders))
            quo = spectral_difference_poly(f)[0]
            assert quo == _lift_over_base(f) == char_poly_int_matrix(fiber_sum_zero_matrix(f)), \
                (f.gains, orders)
    # an edgeless base: nothing but the eigenvalue 0 is new
    for n in (1, 3):
        for r in (2, 3):
            f = GainGraph(Graph(n, []), GroupSpec.cyclic(r), {})
            assert spectral_difference_poly(f)[0] == _lift_over_base(f) == char_poly_int_matrix(
                fiber_sum_zero_matrix(f)) == IntPoly((0,) * (n * (r - 1)) + (1,))
    # Sym(1): W is empty, so nothing is new
    k3 = complete_graph(3)
    assert spectral_difference_poly(
        GainGraph(k3, GroupSpec.permutation(1), {e: (0,) for e in k3.edges}))[0] == IntPoly((1,))
    f = s3_cover_k5()
    assert spectral_difference_poly(f)[0] == _lift_over_base(f) == poly_pow(IntPoly((-4, 0, 1)), 5)


def test_difference_poly_refuses_a_cover_that_is_not_a_lift():
    f = huang_signing(2)
    r = f.group.sheet_count
    # the lift of the signed 4-cycle 0-1-3-2, with one edge of block (0, 1)
    # moved into block (0, 3), over a non-edge of the base
    assert (0, 3) not in f.base.edges
    edges = set(f.cover.graph.edges)
    (u, v) = next(e for e in sorted(edges) if e[0] // r == 0 and e[1] // r == 1)
    broken = GainGraph(f.base, f.group, f.gains)
    object.__setattr__(broken, "cover", CoverGraph(
        Graph(f.cover.graph.n, (edges - {(u, v)}) | {(u, 3 * r + u % r)}), f.base, r,
        f.group.translations))
    with pytest.raises(InternalConsistencyError):
        spectral_difference_poly(broken)


def _moved_edge(f, edge, to):
    """f with its lift's edge replaced by `to`: the cover of a gain graph that
    is not its lift."""
    edges = set(f.cover.graph.edges)
    assert edge in edges and to not in edges
    broken = GainGraph(f.base, f.group, f.gains)
    object.__setattr__(broken, "cover", CoverGraph(
        Graph(f.cover.graph.n, (edges - {edge}) | {to}), f.base, f.cover.r, f.cover.translations))
    return broken


def test_the_lift_check_refuses_a_permutation_cover_that_is_not_a_lift():
    # K5 over Sym(3): the edge from (0, 1) into the fiber over 1 moved to
    # (0, 0), which then has two neighbours over 1 while (0, 1) has none, with
    # every count of edges between two fibers kept; an edge of (0, 0) moved
    # from the fiber over 2 to the one over 1; an edge dropped; and a path over
    # Sym(3) with an edge moved over its non-edge
    f = s3_cover_k5()
    r = f.cover.r
    over = {(x, v): [y for y in f.cover.graph.neighbors[x] if y // r == v]
            for x in (0, 1) for v in (1, 2)}
    (y0,), (y1,), (y2,) = over[0, 1], over[1, 1], over[0, 2]
    doubled = _moved_edge(f, (1, y1), (0, y1))
    other = next(y for y in f.cover.fiber(1) if y != y0)
    crossed = _moved_edge(f, (0, y2), (0, other))
    dropped = GainGraph(f.base, f.group, f.gains)
    object.__setattr__(dropped, "cover", CoverGraph(
        Graph(f.cover.graph.n, set(f.cover.graph.edges) - {(0, y2)}), f.base, r,
        f.cover.translations))
    path = GainGraph(Graph(3, [(0, 1), (1, 2)]), f.group, {(0, 1): (1, 0, 2), (1, 2): (0, 1, 2)})
    moved = _moved_edge(path, next(e for e in sorted(path.cover.graph.edges) if e[1] // r == 1),
                        (0, 2 * r))
    for broken in (doubled, crossed, dropped, moved):
        with pytest.raises(InternalConsistencyError):
            spectral_difference_poly(broken)
        with pytest.raises(InternalConsistencyError):
            fiber_sum_zero_matrix(broken)
    # the intact covers pass, and their matrices on W are those of the blocks
    for g in (f, path):
        n = g.base.n
        a = g.cover.graph.adjacency().reshape(n, r, n, r)
        assert (fiber_sum_zero_matrix(g) == (a[:, 1:, :, 1:] - a[:, 1:, :, :1]).reshape(
            n * (r - 1), n * (r - 1))).all()


def test_a_miss_takes_one_char_poly_and_that_on_the_fiber_sum_zero_space(rng, monkeypatch):
    # an abelian miss takes its char poly on W from its n-square character
    # matrices, with no call of char_poly_int_matrix; a permutation miss has
    # no characters and takes one, of the n(r-1)-square matrix on W
    sizes = []
    real = spectral.char_poly_int_matrix

    def recording(a):
        sizes.append(len(a))
        return real(a)

    monkeypatch.setattr(spectral, "char_poly_int_matrix", recording)
    spectral._char_poly_and_distinct.cache_clear()
    cert = classify_two_ev(_random_gain(rng, kneser(8, 2), GroupSpec.cyclic(4)))
    assert not cert.is_two_ev
    assert sizes == []
    base, group = complete_graph(5), GroupSpec.permutation(3)
    cert = classify_two_ev(_random_gain(rng, base, group))
    assert not cert.is_two_ev
    assert sizes == [base.n * (group.sheet_count - 1)]


def test_a_hit_report_takes_only_the_base_char_poly(monkeypatch):
    # the hit's certificate carries the char poly on W, so the report of the
    # cover takes no exact char poly but the base's; Q5 has six distinct
    # eigenvalues, so the base's is certified from its spectrum, and no
    # integer matrix goes through the modular kernel
    f = huang_signing(5)
    graphs, matrices = [], []
    real_graph, real_matrix = spectral._char_poly_and_distinct, spectral.char_poly_int_matrix

    def recording_graph(g):
        graphs.append(g.n)
        return real_graph(g)

    def recording_matrix(a):
        matrices.append(len(a))
        return real_matrix(a)

    monkeypatch.setattr(spectral, "_char_poly_and_distinct", recording_graph)
    monkeypatch.setattr(spectral, "char_poly_int_matrix", recording_matrix)
    real_graph.cache_clear()
    report = cli.gain_report(f)
    assert report["two_ev"]["is_two_ev"]
    assert set(graphs) == {f.base.n}
    assert matrices == []


def _search_hits(base, group):
    return [(h.gain, h.two_ev) for h in run_search(SearchSpec(base, group)).records]


def test_a_hit_certificate_carries_the_char_poly_on_the_fiber_sum_zero_space():
    cases = [(f, classify_two_ev(f)) for f in map(huang_signing, range(1, 7))]
    cases.append((s3_cover_k5(), classify_two_ev(s3_cover_k5())))
    for base, group in [(complete_graph(4), GroupSpec.cyclic(2)),
                        (complete_graph(6), GroupSpec.cyclic(2)),
                        (octahedron(), GroupSpec.cyclic(2)),
                        (complete_bipartite(4, 4), GroupSpec.cyclic(2)),
                        (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
                        (complete_graph(5), GroupSpec.cyclic(3)),
                        (complete_graph(4), GroupSpec.abelian(2, 2))]:
        cases += _search_hits(base, group)
    for f, cert in cases:
        assert cert.is_two_ev
        assert cert.new_poly == spectral_difference_poly(f)[0] == _lift_over_base(f), f.gains
    # irrational roots, integer roots of equal and of unequal multiplicity
    certs = [cert for _, cert in cases]
    assert any(c.theta != round(c.theta) for c in certs)
    assert any(c.theta == round(c.theta) and c.mult_theta == c.mult_tau for c in certs)
    assert {(2, 1, 3), (-2, 3, 1), (4, 1, 5), (-4, 5, 1), (3, 2, 8), (2, 3, 9)} <= {
        (c.lambda_, c.mult_theta, c.mult_tau) for c in certs}


def test_a_miss_certificate_carries_the_char_poly_on_the_fiber_sum_zero_space(rng):
    for f in (k3n_nonexample(2), _random_gain(rng, hypercube(3), GroupSpec.cyclic(3))):
        cert = classify_two_ev(f)
        assert not cert.is_two_ev
        assert cert.new_poly == spectral_difference_poly(f)[0] == _lift_over_base(f)
        assert cert.new_distinct == squarefree_part(cert.new_poly).degree


def _pair_count(group):
    """Number of pairs {chi, conj chi} of nontrivial characters of an abelian
    group, a real character (one of order 2) counting as a pair of one."""
    real = sum(all(2 * c % r == 0 for c, r in zip(g, group.orders))
               for g in itertools.product(*map(range, group.orders))) - 1
    return (group.order - 1 + real) // 2


def test_a_miss_counts_its_new_eigenvalues_from_one_char_poly_per_conjugate_pair(rng):
    # an abelian miss counts its new distinct eigenvalues from roots, one
    # char poly per conjugate pair, which divides the char poly on W, has its
    # roots, and is bounded as a char poly of n * pairs rows
    cases = []
    for orders in [(3,), (4,), (5,), (6,), (8,), (2, 4), (3, 3)]:
        group = GroupSpec.abelian(*orders)
        while sum(f.group is group for f in cases) < 2:
            base = random_graph(rng, rng.randint(4, 7), 0.6)
            if is_connected(base):
                cases.append(_random_gain(rng, base, group))
    # misses whose roots repeat: every character matrix of identity gains is
    # the base adjacency, and k3n_nonexample's one signed matrix has three
    # distinct eigenvalues; squarefree_part cannot stop at its first prime
    repeated = [identity_gains(base, GroupSpec.cyclic(r))
                for base in (cycle(5), petersen()) for r in (3, 4, 5)]
    repeated.append(k3n_nonexample(2))
    misses = 0
    for f in cases + repeated:
        cert = classify_two_ev(f)
        if cert.is_two_ev:
            continue
        misses += 1
        new_poly, distinct = spectral_difference_poly(f)
        roots = spectral._character_difference_poly(f)[1]
        pairs = _pair_count(f.group)
        assert cert.new_poly == new_poly == char_poly_int_matrix(fiber_sum_zero_matrix(f))
        assert roots.degree == f.base.n * pairs and new_poly.divmod_monic(roots)[1].is_zero
        assert cert.new_distinct == distinct == prs_squarefree_part(_lift_over_base(f)).degree \
            == prs_squarefree_part(roots).degree, (f.gains, f.group)
        bound = spectral._coefficient_bound(roots.degree, 2 * f.base.m * pairs)
        assert max(map(abs, roots.coeffs)) <= bound
        if f in repeated:
            assert prs_squarefree_part(roots).degree < roots.degree
    assert misses >= 12 + len(repeated)


def quotient_verdict(f):
    """Test-local 2ev oracle from the exact char-poly quotient: the char poly
    of the whole lift over the base's, and its square-free part by the PRS gcd.

    2ev iff the square-free part sf of the quotient has degree 2; then
    lambda = -sf_1 and mu = -sf_0, and the multiplicities are the ones that
    rebuild the quotient exactly: from the integer roots when the
    discriminant is a square, else as a power of sf (conjugate roots).
    """
    quo = _lift_over_base(f)
    sf = prs_squarefree_part(quo)
    verdict = {"is_two_ev": sf.degree == 2, "theta": None, "tau": None,
               "mult_theta": None, "mult_tau": None, "lambda": None, "mu": None,
               "cover_connected": is_connected(lift(f).graph),
               "new_distinct": sf.degree}
    if sf.degree != 2:
        return verdict
    lam, mu = -sf.coeffs[1], -sf.coeffs[0]
    disc = lam * lam + 4 * mu
    root = math.isqrt(disc)
    deg = quo.degree
    if root * root == disc:
        theta, tau = (lam + root) // 2, (lam - root) // 2
        [m] = [m for m in range(deg + 1)
               if quo == IntPoly(poly_from_roots([theta] * m + [tau] * (deg - m)))]
        mults, values = (m, deg - m), (float(theta), float(tau))
    else:
        assert deg % 2 == 0 and quo == poly_pow(sf, deg // 2)
        mults = (deg // 2, deg // 2)
        values = ((lam + math.sqrt(disc)) / 2.0, (lam - math.sqrt(disc)) / 2.0)
    verdict.update({"theta": format(values[0], ".17g"), "tau": format(values[1], ".17g"),
                    "mult_theta": mults[0], "mult_tau": mults[1], "lambda": lam, "mu": mu})
    return verdict


def _gate_gains(rng):
    for base, group in [(complete_graph(4), GroupSpec.cyclic(2)),
                        (complete_graph(4), GroupSpec.cyclic(3)),
                        (complete_graph(4), GroupSpec.abelian(2, 2)),
                        (complete_graph(5), GroupSpec.cyclic(2)),
                        (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
                        (octahedron(), GroupSpec.cyclic(2)),
                        (petersen(), GroupSpec.cyclic(2))]:
        yield from spec_gains(SearchSpec(base, group))
    # non-regular bases, then seeded random connected graphs
    bases = [complete_bipartite(2, 3), complete_bipartite(1, 3)]
    while len(bases) < 8:
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        if is_connected(g):
            bases.append(g)
    for base in bases:
        for group in (GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.abelian(2, 2)):
            for _ in range(4):
                yield GainGraph(base, group, {e: tuple(rng.randrange(r) for r in group.orders)
                                              for e in base.edges})
    perms = list(itertools.permutations(range(3)))
    k5 = complete_graph(5)
    for _ in range(30):
        yield GainGraph(k5, GroupSpec.permutation(3), {e: rng.choice(perms) for e in k5.edges})
    yield s3_cover_k5()


def test_fiber_identity_matches_quotient_oracle(rng):
    integral_roots, misses = set(), 0
    for f in _gate_gains(rng):
        want = quotient_verdict(f)
        assert classify_two_ev(f).as_dict() == want, f.gains
        hit, _ = fiber_two_ev(f.base, *gain_row(f))
        assert hit.tolist() == [want["is_two_ev"]]
        if want["is_two_ev"]:
            integral_roots.add(float(want["theta"]).is_integer())
        else:
            misses += 1
    # misses, and hits with integer and with conjugate irrational roots
    assert integral_roots == {True, False} and misses > 500


def test_classify_edgeless_and_single_sheet():
    # one vertex: the two sheets add the single new eigenvalue 0
    cert = classify_two_ev(GainGraph(Graph(1, []), GroupSpec.cyclic(2), {}))
    assert not cert.is_two_ev and cert.new_distinct == 1
    # Sym(1) gives r = 1: the lift is the base, so nothing is new
    k3 = complete_graph(3)
    f = GainGraph(k3, GroupSpec.permutation(1), {e: (0,) for e in k3.edges})
    cert = classify_two_ev(f)
    assert not cert.is_two_ev and cert.new_distinct == 0
    assert fiber_two_ev(f.base, *gain_row(f))[0].tolist() == [False]


def test_mu_equals_valency_for_connected_two_ev():
    # connected 2ev cover of a k-regular base must have mu = k
    f = huang_signing(4)
    cert = classify_two_ev(f)
    assert cert.is_two_ev and cert.cover_connected and cert.mu == 4


# ---------------------------------------------------------------------------
# degree-2 minimal polynomials, decided exactly


def test_minpoly_huang4():
    for n in (3, 4):
        cert = classify_two_ev(huang_signing(n))
        assert cert.is_two_ev and (cert.lambda_, cert.mu) == (0, n)


def test_minpoly_q3_over_k4():
    f = GainGraph(complete_graph(4), GroupSpec.cyclic(2),
                  {(0, 1): (0,), (0, 2): (0,), (0, 3): (0,),
                   (1, 2): (1,), (1, 3): (1,), (2, 3): (1,)})
    assert char_poly(lift(f).graph) == char_poly(hypercube(3))
    cert = classify_two_ev(f)
    assert cert.is_two_ev and (cert.lambda_, cert.mu) == (-2, 3)


def test_minpoly_complete_graph_adjacency():
    for n in (3, 5, 8):
        # x^2 - (n-2)x - (n-1) = (x - (n-1))(x + 1)
        minpoly = IntPoly((-(n - 1), -(n - 2), 1))
        assert squarefree_part(char_poly(complete_graph(n))) == minpoly


def test_minpoly_fails_on_three_eigenvalues():
    assert squarefree_part(char_poly(cycle(5))).degree == 3


# ---------------------------------------------------------------------------
# block decomposition (master test)


def test_character_block_decomposition_random(rng):
    bases = [complete_graph(4), cycle(6), petersen()]
    groups = [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.abelian(2, 2)]
    for base in bases:
        for group in groups:
            for _ in range(3):
                gains = {e: tuple(rng.randrange(r) for r in group.orders)
                         for e in base.edges}
                f = GainGraph(base, group, gains)
                ok, dev = character_block_check(base, group, *gain_row(f))
                assert ok.tolist() == [True], dev


_AUDIT_BASES = [complete_graph(4), complete_graph(5), complete_bipartite(3, 3), cycle(6),
                hypercube(3), petersen(), octahedron()]
_AUDIT_GROUPS = [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4),
                 GroupSpec.abelian(2, 2), GroupSpec.cyclic(5), GroupSpec.abelian(3, 3)]


def _audit_batch(base, group, seed, budget):
    spec = SearchSpec(base, group, mode=RANDOM, budget=budget, seed=seed)
    rows = np.concatenate(list(assignment_rows(spec)))
    return spec, sheet_table(group, group.elements()), rows


@pytest.mark.parametrize("base", _AUDIT_BASES, ids=lambda g: f"n{g.n}m{g.m}")
def test_block_check_matches_the_per_gain_oracle(base):
    # the criterion-10 bases and groups, Petersen, the octahedron, Z5 and Z3xZ3
    for group in _AUDIT_GROUPS:
        spec, table, rows = _audit_batch(base, group, seed=base.m, budget=6)
        ok, dev = character_block_check(base, group, table, rows)
        want = [block_check_oracle(f) for f in spec_gains(spec)]
        assert ok.tolist() == [w_ok for w_ok, _ in want]
        assert np.abs(dev - [w_dev for _, w_dev in want]).max() <= 1e-12
        assert ok.all()


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_block_check_batch_size_does_not_change_it(monkeypatch, rows):
    real = spectral._eigvalsh
    for base, group in [(complete_graph(4), GroupSpec.cyclic(3)),
                        (petersen(), GroupSpec.cyclic(2)),
                        (octahedron(), GroupSpec.abelian(2, 2))]:
        _, table, all_rows = _audit_batch(base, group, seed=5, budget=100)
        ok, dev = character_block_check(base, group, table, all_rows)
        calls = []
        monkeypatch.setattr(spectral, "BATCH_ENTRIES", rows * (base.n * group.order) ** 2)
        monkeypatch.setattr(spectral, "_eigvalsh", lambda a: calls.append(len(a)) or real(a))
        ok_b, dev_b = character_block_check(base, group, table, all_rows)
        monkeypatch.undo()
        assert ok_b.tolist() == ok.tolist()
        assert np.abs(dev_b - dev).max() <= 1e-12
        # one character stack and one lift stack per batch
        sizes = [rows] * (100 // rows) + [100 % rows] * bool(100 % rows)
        assert calls == [n for n in sizes for _ in range(2)]


def test_block_check_flags_a_wrong_table():
    # a Z4 table checked against the characters of Z2 x Z2: the lifts are Z4
    # covers, so the spectra differ and the audit says so
    base, z4, klein = complete_graph(4), GroupSpec.cyclic(4), GroupSpec.abelian(2, 2)
    _, table, rows = _audit_batch(base, z4, seed=1, budget=20)
    ok, dev = character_block_check(base, klein, table, rows)
    assert not ok.all() and dev[~ok].min() > 1e-3
    # an edgeless base and an empty batch
    e = GainGraph(Graph(3, []), z4, {})
    assert character_block_check(e.base, z4, *gain_row(e))[0].tolist() == [True]
    ok, dev = character_block_check(base, z4, table, rows[:0])
    assert ok.shape == dev.shape == (0,)


def test_block_check_rejects_bad_input():
    k4 = complete_graph(4)
    z2 = GroupSpec.cyclic(2)
    table = sheet_table(z2, z2.elements())
    rows = np.zeros((1, 6), dtype=np.int64)
    with pytest.raises(ParameterError, match="abelian"):
        character_block_check(k4, GroupSpec.permutation(2), table, rows)
    with pytest.raises(ParameterError, match="act on the 3 group elements"):
        character_block_check(k4, GroupSpec.cyclic(3), table, rows)
    with pytest.raises(ParameterError, match="permutations"):
        character_block_check(k4, z2, [[0, 0], [1, 0]], rows)
    with pytest.raises(ParameterError, match="one column per edge"):
        character_block_check(k4, z2, table, rows[:, 1:])
    with pytest.raises(ParameterError, match="index"):
        character_block_check(k4, z2, table, rows + 2)


def test_stack_eigensolver_checks_each_matrix():
    eps = np.finfo(float).eps
    stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.0], [3.0, 0.0]]])
    vals, scale = spectral._checked_eigvalsh(stack)
    assert vals.tolist() == [[-1.0, 1.0], [-3.0, 3.0]] and scale.tolist() == [1.0, 3.0]
    # each matrix is held to its own scale: 25 eps passes at scale 3, not at 1
    skew = stack.copy()
    skew[1, 0, 1] += 25 * eps
    spectral._checked_eigvalsh(skew)
    skew = stack.copy()
    skew[0, 0, 1] += 25 * eps
    with pytest.raises(ContractViolation, match="not Hermitian"):
        spectral._checked_eigvalsh(skew)
    stack[1, 1, 1] = math.nan
    with pytest.raises(NumericError, match="non-finite"):
        spectral._checked_eigvalsh(stack)


# ---------------------------------------------------------------------------
# the batched gain kernel against the A^2-on-the-lift oracle


def _kernel_certs(base, table, rows, gains):
    hit, lam = fiber_two_ev(base, table, rows)
    return [two_ev_certificate(f, int(l)) if h else None
            for f, h, l in zip(gains, hit.tolist(), lam.tolist())]


def _oracle_certs(gains):
    return [lift_fiber_two_ev(f, edge_lift(f)) for f in gains]


@pytest.mark.parametrize("base, group", [
    (complete_graph(4), GroupSpec.cyclic(2)),
    (complete_graph(4), GroupSpec.cyclic(3)),
    (complete_graph(4), GroupSpec.abelian(2, 2)),
    (complete_graph(5), GroupSpec.cyclic(2)),
    (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
    (octahedron(), GroupSpec.cyclic(2)),
    (petersen(), GroupSpec.cyclic(2)),
], ids=["K4/Z2", "K4/Z3", "K4/Z2xZ2", "K5/Z2", "K33/Z3", "octahedron/Z2", "petersen/Z2"])
def test_kernel_matches_lift_oracle_exhaustively(base, group):
    spec = SearchSpec(base, group)
    rows = np.concatenate(list(assignment_rows(spec)))
    gains = spec_gains(spec)
    want = _oracle_certs(gains)
    assert _kernel_certs(base, sheet_table(group, group.elements()), rows, gains) == want
    # one gain at a time, through its own table of distinct gains
    assert [_kernel_certs(base, *gain_row(f), [f])[0] for f in gains] == want
    assert any(c is not None for c in want) == (base != petersen())


def test_kernel_matches_lift_oracle_on_irregular_and_permutation_gains(rng):
    perms = list(itertools.permutations(range(3)))
    gains = []
    for base in (complete_bipartite(2, 3), complete_bipartite(1, 3)):
        for group in (GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.abelian(2, 2)):
            for _ in range(6):
                gains.append(GainGraph(base, group, {
                    e: tuple(rng.randrange(r) for r in group.orders) for e in base.edges}))
    for base in (complete_graph(5), hypercube(3)):
        for _ in range(40):
            gains.append(GainGraph(base, GroupSpec.permutation(3),
                                   {e: rng.choice(perms) for e in base.edges}))
    gains.append(s3_cover_k5())
    # gains that fix sheet 0 on K4: rows (u, 0) see only the base, which meets
    # A^2 = 2A + 3I, while the signed K4 on sheets 1, 2 is the cube; every row,
    # not just the first of each block, must be checked
    swap = {(0, 1): (0, 2, 1), (1, 2): (0, 2, 1), (2, 3): (0, 2, 1)}
    k4 = complete_graph(4)
    gains.append(GainGraph(k4, GroupSpec.permutation(3),
                           {e: swap.get(e, (0, 1, 2)) for e in k4.edges}))
    want = _oracle_certs(gains)
    assert want[-1] is None
    assert [_kernel_certs(f.base, *gain_row(f), [f])[0] for f in gains] == want
    assert want[-2] is not None and want[-2].cover_connected
    # Sym(3) on K5 decided as one batch over the whole group
    k5 = [f for f in gains if f.base == complete_graph(5)]
    rows = np.array([[perms.index(f.gains[e]) for e in f.base.sorted_edges()] for f in k5])
    table = sheet_table(GroupSpec.permutation(3), perms)
    assert _kernel_certs(complete_graph(5), table, rows, k5) == _oracle_certs(k5)


def test_kernel_single_sheet_and_edgeless():
    k3 = complete_graph(3)
    f = GainGraph(k3, GroupSpec.permutation(1), {e: (0,) for e in k3.edges})
    for g in (f, GainGraph(Graph(1, []), GroupSpec.cyclic(2), {}),
              GainGraph(Graph(4, []), GroupSpec.cyclic(3), {})):
        hit, lam = fiber_two_ev(g.base, *gain_row(g))
        assert hit.tolist() == [False] and lift_fiber_two_ev(g, edge_lift(g)) is None
    # an empty batch decides nothing
    hit, lam = fiber_two_ev(k3, sheet_table(GroupSpec.cyclic(2), [(0,), (1,)]),
                            np.zeros((0, 3), dtype=np.int64))
    assert hit.shape == lam.shape == (0,)


def test_kernel_rejects_malformed_batches():
    k4 = complete_graph(4)
    table = sheet_table(GroupSpec.cyclic(2), [(0,), (1,)])
    with pytest.raises(ParameterError, match="permutations"):
        fiber_two_ev(k4, [[0, 0], [1, 0]], np.zeros((1, 6), dtype=np.int64))
    with pytest.raises(ParameterError, match="one column per edge"):
        fiber_two_ev(k4, table, np.zeros((1, 5), dtype=np.int64))
    for bad in (2, -1):
        with pytest.raises(ParameterError, match="index"):
            fiber_two_ev(k4, table, np.full((1, 6), bad, dtype=np.int64))


_PROPERTY_CASES = [(complete_graph(2), GroupSpec.cyclic(3)),
                   (cycle(4), GroupSpec.cyclic(2)),
                   (complete_graph(4), GroupSpec.cyclic(4)),
                   (complete_bipartite(3, 3), GroupSpec.abelian(2, 2)),
                   (cycle(6), GroupSpec.cyclic(3)),
                   (hypercube(3), GroupSpec.cyclic(2)),
                   (petersen(), GroupSpec.cyclic(2)),
                   (complete_bipartite(2, 3), GroupSpec.cyclic(2)),
                   (complete_graph(4), GroupSpec.permutation(3))]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_kernel_matches_lift_oracle_property(data):
    base, group = data.draw(st.sampled_from(_PROPERTY_CASES))
    elements = (group.elements() if group.is_abelian
                else list(itertools.permutations(range(group.degree))))
    rows = data.draw(st.lists(st.lists(st.integers(0, len(elements) - 1),
                                       min_size=base.m, max_size=base.m),
                              min_size=1, max_size=6))
    edges = base.sorted_edges()
    gains = [GainGraph(base, group, {e: elements[i] for e, i in zip(edges, row)})
             for row in rows]
    table = sheet_table(group, elements)
    assert _kernel_certs(base, table, np.array(rows), gains) == _oracle_certs(gains)


_W_BASES = [complete_graph(4), cycle(5), complete_bipartite(3, 3), hypercube(3), petersen(),
            complete_graph(2),
            complete_bipartite(2, 3), Graph(4, [(0, 1), (1, 2), (2, 3)]),  # not regular
            Graph(1, []), Graph(3, []),  # edgeless
            Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # disconnected, regular
            Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])]  # disconnected, not regular
_W_GROUPS = [GroupSpec.cyclic(r) for r in range(2, 7)] + [GroupSpec.abelian(2, 2),
                                                          GroupSpec.permutation(3)]


@pytest.mark.parametrize("group", _W_GROUPS,
                         ids=["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Sym3"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_kernel_on_w_matches_the_lift_oracle_property(group, data):
    base = data.draw(st.sampled_from(_W_BASES))
    elements = (group.elements() if group.is_abelian
                else list(itertools.permutations(range(group.degree))))
    # the identity, index 0, on about half the edges, so that hits occur
    index = st.one_of(st.just(0), st.integers(0, len(elements) - 1))
    rows = data.draw(st.lists(st.lists(index, min_size=base.m, max_size=base.m),
                              min_size=1, max_size=5))
    gains = [GainGraph(base, group, {e: elements[i] for e, i in zip(base.sorted_edges(), row)})
             for row in rows]
    table = sheet_table(group, elements)
    want = _oracle_certs(gains)
    assert _kernel_certs(base, table, np.array(rows, dtype=np.int64).reshape(len(rows), base.m),
                         gains) == want
    assert [_kernel_certs(base, *gain_row(f), [f])[0] for f in gains] == want


@pytest.mark.parametrize("base, group, hits", [
    (complete_graph(7), GroupSpec.cyclic(2), 2),
    (complete_graph(6), GroupSpec.cyclic(3), 1),
    (hypercube(4), GroupSpec.cyclic(2), 1),
], ids=["K7/Z2", "K6/Z3", "Q4/Z2"])
def test_exhaustive_hit_counts(base, group, hits):
    spec = SearchSpec(base, group)
    table = group.translations
    assert sum(int(fiber_two_ev(base, table, rows)[0].sum())
               for rows in assignment_rows(spec)) == hits


def _switched(f, v, g):
    """f switched at vertex v by g: the lift with (v, j) relabelled (v, g(j)),
    an isomorphic cover with the same spectrum."""
    grp = f.group
    gains = {(a, b): (grp.compose(g, x) if b == v else
                      grp.compose(x, grp.inverse(g)) if a == v else x)
             for (a, b), x in f.gains.items()}
    return GainGraph(f.base, grp, gains)


def test_a_switched_hit_keeps_its_verdict_and_lambda():
    # a normalized hit has the identity on its least edge, where the kernel
    # reads lambda; switching at the edge's ends moves that gain to every
    # element, so lambda is also read where M is -1 (sheet 1 sent to sheet 0),
    # e.g. for K4 with every edge negative, whose signed adjacency I - J has
    # lambda = -2
    hits = [s3_cover_k5()]
    for base, group in [(complete_graph(4), GroupSpec.cyclic(2)),
                        (complete_graph(4), GroupSpec.cyclic(3)),
                        (complete_graph(4), GroupSpec.abelian(2, 2)),
                        (complete_bipartite(3, 3), GroupSpec.cyclic(3)),
                        (octahedron(), GroupSpec.cyclic(2))]:
        gains = spec_gains(SearchSpec(base, group))
        hits += [f for f, c in zip(gains, _oracle_certs(gains)) if c]
    lams = set()
    for f in hits:
        want = _oracle_certs([f])[0]
        x, y = f.base.sorted_edges()[0]
        elements = (f.group.elements() if f.group.is_abelian
                    else list(itertools.permutations(range(f.group.degree))))
        for v, g in itertools.product((x, y), elements):
            h = _switched(f, v, g)
            assert _kernel_certs(h.base, *gain_row(h), [h]) == _oracle_certs([h]) == [want]
        lams.add(want.lambda_)
    assert lams == {-2, 0, 2}


def test_the_stack_on_w_is_the_lift_on_w(rng):
    perms = list(itertools.permutations(range(3)))
    cases = []
    for base, group in [(complete_graph(4), GroupSpec.cyclic(3)),
                        (complete_bipartite(3, 3), GroupSpec.abelian(2, 2)),
                        (cycle(5), GroupSpec.cyclic(5)), (cycle(3), GroupSpec.cyclic(7))]:
        spec = SearchSpec(base, group, mode=RANDOM, budget=20, seed=3)
        cases.append((base, group.translations, np.concatenate(list(assignment_rows(spec))),
                      spec_gains(spec)))
    k5 = complete_graph(5)
    gains = [GainGraph(k5, GroupSpec.permutation(3), {e: rng.choice(perms) for e in k5.edges})
             for _ in range(10)]
    rows = np.array([[perms.index(f.gains[e]) for e in k5.sorted_edges()] for f in gains])
    cases.append((k5, sheet_table(GroupSpec.permutation(3), perms), rows, gains))
    for base, table, rows, gains in cases:
        stack = spectral._fiber_sum_zero_stack(base, table, rows)
        assert stack.dtype == np.float64 and len(stack) == len(gains)
        for i, (w, f) in enumerate(zip(stack, gains)):
            # one row alone, which for C3/Z7 uses fewer gains than the table has
            assert (spectral._fiber_sum_zero_stack(base, table, rows[i:i + 1])[0] == w).all()
            # the lift's own adjacency in the basis e_(v,i) - e_(v,0)
            n, r = base.n, f.cover.r
            a = f.cover.graph.adjacency().reshape(n, r, n, r)
            assert (w == (a[:, 1:, :, 1:] - a[:, 1:, :, :1]).reshape(n * (r - 1), -1)).all()
            assert (w == fiber_sum_zero_matrix(f)).all()


def test_the_verdict_builds_nothing_of_the_lift_size():
    # Huang's signed Q9: the lift is 1024-square, 8 MiB in float64; A on W is
    # 512-square, 2 MiB
    f = huang_signing(9)
    table, rows = f.row
    f.base.edge_array, f.base.degrees  # the base's cached arrays, built before tracing
    tracemalloc.start()
    try:
        hit, lam = fiber_two_ev(f.base, table, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit.tolist() == [True] and lam.tolist() == [0]
    assert peak < 12 * 2**20


@pytest.mark.parametrize("base, r", [(complete_graph(2), 512), (complete_graph(4), 256)],
                         ids=["K2/Z512", "K4/Z256"])
def test_the_verdict_takes_no_table_sized_arrays(base, r):
    # a search hands the verdict all r translations of the group; each of the
    # two one-row batches takes its d-square stack on W, d = n(r-1), and the
    # stack's square, but no block of a table row it does not use
    table = GroupSpec.cyclic(r).translations
    rows = np.array([[0] * base.m, [1] * base.m])
    d = base.n * (r - 1)
    base.edge_array, base.degrees  # the base's cached arrays, built before tracing
    tracemalloc.start()
    try:
        hit, lam = fiber_two_ev(base, table, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K2's lifts are matchings (lambda = 0); K4's identity lift is r copies of K4
    assert hit.tolist() == [True, base.n == 2] and lam.tolist()[0] == base.n - 2
    assert peak < 2.5 * d * d * 8


# ---------------------------------------------------------------------------
# a report's cover spectrum from the character blocks, and a miss's count
# from the residues of its char polys


_SPECTRUM_GROUPS = [GroupSpec.cyclic(r) for r in range(2, 7)] + [GroupSpec.abelian(2, 2),
                                                                  GroupSpec.abelian(2, 3)]


def _assert_lift_spectrum(f):
    """cover_spectrum(f) against the whole lift's: equal multiplicities, and
    values within TOL * max(1, the lift's largest degree)."""
    got = cover_spectrum(f)
    want = hermitian_spectrum(lift(f).graph.adjacency(dtype=np.float64))
    assert [m for _, m in got] == [m for _, m in want], (f.gains, f.group)
    scale = max(1, max(f.base.degrees, default=0))
    assert all(abs(a - b) <= TOL * scale for a, b in zip(got.values, want.values))


@pytest.mark.parametrize("text", [
    "gainfile 1\ngroup cyclic 3\nvertices 1\n",  # edgeless: the gains array has no rows
    "gainfile 1\ngroup abelian 2 3\nvertices 4\n",
    "gainfile 1\ngroup cyclic 4\nvertices 2\nedge 0 1 1\n",  # a single edge
    "gainfile 1\ngroup cyclic 6\nvertices 2\nedge 0 1 3\n",
    # a disconnected base: two triangles, one balanced and one not
    "gainfile 1\ngroup cyclic 5\nvertices 6\nedge 0 1 0\nedge 0 2 0\nedge 1 2 0\n"
    "edge 3 4 1\nedge 3 5 2\nedge 4 5 4\n",
])
def test_cover_spectrum_of_small_and_disconnected_bases(text):
    _assert_lift_spectrum(parse_gain_file(text))


def test_cover_spectrum_of_the_families():
    # Huang's signed cube is the nontrivial Z2 block: the cover's spectrum is
    # Q_n's with +-sqrt(n), 2^(n-1) times each
    for n in range(1, 7):
        f = huang_signing(n)
        _assert_lift_spectrum(f)
        got = dict((round(v, 9), m) for v, m in cover_spectrum(f))
        assert got[round(math.sqrt(n), 9)] == got[round(-math.sqrt(n), 9)] >= 2 ** (n - 1)
    for f in (butson_gain(fourier_butson(4)), k3n_nonexample(3), s3_cover_k5()):
        _assert_lift_spectrum(f)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_cover_spectrum_matches_the_whole_lift_property(data):
    n = data.draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    group = data.draw(st.sampled_from(_SPECTRUM_GROUPS))
    base = Graph(n, edges)
    _assert_lift_spectrum(GainGraph(base, group, {e: data.draw(st.sampled_from(group.elements()))
                                                  for e in base.sorted_edges()}))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_miss_counts_its_new_eigenvalues_as_the_prs_oracle_does_property(data):
    base = data.draw(st.sampled_from([complete_graph(4), complete_graph(5), cycle(5), cycle(6),
                                      petersen(), complete_bipartite(2, 3), hypercube(3)]))
    group = data.draw(st.sampled_from(_SPECTRUM_GROUPS))
    f = GainGraph(base, group, {e: data.draw(st.sampled_from(group.elements()))
                                for e in base.sorted_edges()})
    cert = classify_two_ev(f)
    if not cert.is_two_ev:
        roots = spectral._character_difference_poly(f)[1]
        assert cert.new_distinct == spectral_difference_poly(f)[1] == \
            prs_squarefree_part(roots).degree


def test_a_miss_with_square_free_roots_takes_one_gcd(monkeypatch):
    # K(8,2)/Z4's Q is square-free, which one gcd modulo the first prime
    # decides; the misses of k3n_nonexample, Butson and identity gains repeat
    # a root, take more primes, and count as the PRS oracle does
    calls = []
    real = intpoly._monic_gcd_mod
    monkeypatch.setattr(intpoly, "_monic_gcd_mod", lambda *a: calls.append(a) or real(*a))
    with open(os.path.join(os.path.dirname(__file__), "data", "random_kn8_2_z4.gain")) as fh:
        f = parse_gain_file(fh.read())
    assert spectral_difference_poly(f)[1] == spectral._character_difference_poly(f)[1].degree \
        == 56 and len(calls) == 1
    assert classify_two_ev(f).new_distinct == 56
    for f in (k3n_nonexample(2), k3n_nonexample(5), butson_gain(fourier_butson(8)),
              identity_gains(petersen(), GroupSpec.cyclic(3))):
        calls.clear()
        cert = classify_two_ev(f)
        roots = spectral._character_difference_poly(f)[1]
        assert not cert.is_two_ev and len(calls) > 1
        assert cert.new_distinct == prs_squarefree_part(roots).degree < roots.degree
