import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaincover import (GainGraph, Graph, GroupSpec, char_poly,
                       character_block_check, classify_two_ev,
                       complete_bipartite, complete_graph, cycle, hypercube,
                       identity_gains, is_connected, kneser, lift, octahedron,
                       petersen, rep_matrix)
from gaincover.errors import (ContractViolation, DisconnectedError, NumericError,
                             ParameterError)
from gaincover.families import huang_signing, s3_cover_k5
from gaincover.intpoly import IntPoly, squarefree_part
from gaincover.search import SearchSpec, assignment_rows, enumerate_gains
from gaincover.gains import gain_row, sheet_table
from gaincover.spectral import (char_poly_int_matrix, cluster_values,
                                fiber_two_ev, hermitian_eigenvalues,
                                hermitian_spectrum, spectral_difference_poly,
                                two_ev_certificate)

from conftest import (edge_lift, edge_rep_matrix, lift_fiber_two_ev, mul_poly,
                      poly_from_roots, random_graph)


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


# ---------------------------------------------------------------------------
# the Hermitian eigensolver


def test_hermitian_eigenvalues_matches_numpy_on_random_hermitian(rng):
    nprng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13, 21):
        m = nprng.normal(size=(n, n)) + 1j * nprng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        hr = h.real + h.real.T
        for mat in (h, hr, hr.astype(np.float32)):
            ours = hermitian_eigenvalues(mat)
            assert ours.dtype == np.float64 and ours.shape == (n,)
            assert np.all(np.diff(ours) >= 0)
            ref = np.sort(np.linalg.eigvalsh(mat.astype(np.result_type(mat, np.float64))))
            assert np.abs(ours - ref).max() < 1e-9
    assert hermitian_eigenvalues(np.array([[-2.5]])).tolist() == [-2.5]


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [np.float64(5.0), np.zeros(3), np.zeros((2, 3)),
                                 np.zeros((2, 2, 2))])
def test_hermitian_eigenvalues_rejects_non_square(bad):
    with pytest.raises(ContractViolation):
        hermitian_eigenvalues(bad)


@pytest.mark.parametrize("bad", [[[0.0, 1.0], [1.0, math.nan]],
                                 [[0.0, math.inf], [math.inf, 0.0]],
                                 [[math.inf, 0.0], [0.0, 1.0]],
                                 [[0.0, complex(0, math.nan)], [0.0, 0.0]]])
def test_hermitian_eigenvalues_rejects_non_finite(bad):
    # NaN compares false in the Hermitian test, and eigvalsh itself returns a
    # spectrum for [[0,1],[1,nan]], so only the finite check stops these
    with pytest.raises(NumericError):
        hermitian_eigenvalues(np.array(bad))


def test_hermitian_eigenvalues_maps_linalg_error(monkeypatch):
    def no_convergence(*a, **k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        hermitian_eigenvalues(np.eye(3))


def test_zero_matrix_spectrum():
    spec = hermitian_spectrum(np.zeros((4, 4)))
    assert spec.pairs == ((0.0, 4),)


def test_cluster_values():
    spec = cluster_values([1.0, 1.0 + 1e-9, -2.0, 5.0], tol=1e-7, scale=1.0)
    assert spec.values == (5.0, pytest.approx(1.0), -2.0)
    assert [m for _, m in spec.pairs] == [1, 2, 1]
    assert spec.dimension == 4


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, None, "1e-7"])
def test_bad_tolerance_is_a_parameter_error(tol):
    with pytest.raises(ParameterError, match="tolerance must be finite and positive"):
        hermitian_spectrum(np.eye(3), tol=tol)
    with pytest.raises(ParameterError, match="tolerance must be finite and positive"):
        cluster_values([1.0, 2.0], tol, 1.0)
    with pytest.raises(ParameterError, match="tolerance must be finite and positive"):
        character_block_check(huang_signing(3), tol)


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
        quo = spectral_difference_poly(f)  # raises if division is inexact
        assert quo.degree == base.n * (group.sheet_count - 1)
        assert quo.is_monic


def quotient_verdict(f):
    """Test-local 2ev oracle from the exact char-poly quotient.

    2ev iff the square-free part sf of the quotient has degree 2; then
    lambda = -sf_1 and mu = -sf_0, and the multiplicities are the ones that
    rebuild the quotient exactly: from the integer roots when the
    discriminant is a square, else as a power of sf (conjugate roots).
    """
    quo = spectral_difference_poly(f)
    sf = squarefree_part(quo)
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
        assert deg % 2 == 0 and quo == sf.pow(deg // 2)
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
        yield from enumerate_gains(SearchSpec(base, group))
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
                ok, dev = character_block_check(f)
                assert ok, dev


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
    gains = list(enumerate_gains(spec))
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
