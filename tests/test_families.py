from itertools import combinations

import numpy as np
import pytest

from gaincover import (char_poly, classify_two_ev, cycle, girth, hypercube,
                       is_connected, is_distance_regular, is_walk_regular,
                       lift, line_graph, petersen, rep_matrix)
from gaincover.errors import ParameterError
from gaincover.families import (ButsonMatrix, butson_gain, cohen_tits_cover,
                                fourier_butson, huang_signing, is_butson,
                                k3n_nonexample, s3_cover_k5)
from gaincover.spectral import hermitian_spectrum


# ---------------------------------------------------------------------------
# the hypercube sign recursion


def test_huang_signing_base_case():
    f = huang_signing(1)
    assert f.base.edges == frozenset({(0, 1)})
    assert f.gains[(0, 1)] == (0,)  # the 2x2 seed matrix is all +1


def test_huang_signing_support_is_hypercube():
    for n in (2, 3, 4):
        f = huang_signing(n)
        assert f.base == hypercube(n)


def test_huang_character_matrix_squares_to_n_times_identity():
    for n in range(1, 7):
        s = rep_matrix(huang_signing(n), (1,)).real.astype(np.int64)
        assert np.array_equal(s @ s, n * np.eye(1 << n, dtype=np.int64))


def test_huang_square_identity_holds_to_dimension_ten():
    # out to the 1024-vertex cube; the float64 product (on BLAS) is exact,
    # since every entry and partial sum is an integer of size at most n
    for n in (9, 10):
        f = huang_signing(n)
        s = np.zeros((1 << n, 1 << n))
        for (u, v), g in f.gains.items():
            s[u, v] = s[v, u] = 1 - 2 * g[0]
        sq = s @ s
        assert np.array_equal(sq, n * np.eye(1 << n))


def test_huang_every_4cycle_has_odd_flip_count():
    n = 4
    f = huang_signing(n)
    g = f.base
    # 4-cycles of the cube: pick a vertex and two distinct flip bits
    seen = set()
    for v in range(g.n):
        for b1, b2 in combinations(range(n), 2):
            cyc = (v, v ^ (1 << b1), v ^ (1 << b1) ^ (1 << b2), v ^ (1 << b2))
            key = frozenset(cyc)
            if key in seen:
                continue
            seen.add(key)
            flips = sum(f.gains[(min(cyc[i], cyc[(i + 1) % 4]),
                                 max(cyc[i], cyc[(i + 1) % 4]))][0]
                        for i in range(4))
            assert flips % 2 == 1
    assert len(seen) == g.n * n * (n - 1) // 2 // 4


def test_cohen_tits_small_cases():
    c2 = cohen_tits_cover(2)
    assert char_poly(c2.graph) == char_poly(cycle(8))
    assert girth(c2.graph) == 8
    c3 = cohen_tits_cover(3)
    assert c3.graph.n == 16
    assert girth(c3.graph) == 6
    assert is_connected(c3.graph)
    assert is_distance_regular(c3.graph) is None
    assert is_walk_regular(cohen_tits_cover(4).graph)


def test_cohen_tits_no_4_cycles():
    for n in (2, 3, 4, 5):
        assert girth(cohen_tits_cover(n).graph) >= 6


# ---------------------------------------------------------------------------
# Butson gains


def test_fourier_butson_is_butson():
    for q in (1, 2, 3, 4, 5):
        assert is_butson(fourier_butson(q))


def test_non_butson_rejected():
    bad = ButsonMatrix(q=2, r=2, entries=((0, 0), (0, 0)))
    assert not is_butson(bad)
    with pytest.raises(ParameterError):
        butson_gain(bad)


def test_butson_entries_validated():
    with pytest.raises(ParameterError):
        ButsonMatrix(q=2, r=2, entries=((0, 3), (0, 1)))


def test_butson_q2_lift_is_8_cycle():
    f = butson_gain(fourier_butson(2))
    cov = lift(f)
    assert char_poly(cov.graph) == char_poly(cycle(8))
    arr = is_distance_regular(cov.graph)
    assert (arr.b, arr.c) == ((2, 1, 1, 1), (1, 1, 1, 2))


def test_butson_q3_distance_regular():
    f = butson_gain(fourier_butson(3))
    cov = f.cover
    assert cov.graph.n == 18
    cert = classify_two_ev(f)
    assert cert.is_two_ev and cert.cover_connected
    arr = is_distance_regular(cov.graph)
    assert (arr.b, arr.c) == ((3, 2, 2, 1), (1, 1, 2, 3))


def test_butson_q4_fourier_degenerates():
    # the entrywise square of the q=4 Fourier matrix has repeated rows, so
    # the order-2 character block is singular and the cover is not 2ev
    f = butson_gain(fourier_butson(4))
    cov = f.cover
    cert = classify_two_ev(f)
    assert not cert.is_two_ev
    assert cert.new_distinct == 5
    assert is_distance_regular(cov.graph) is None
    spec = hermitian_spectrum(rep_matrix(f, (2,)))
    assert any(abs(v) < 1e-9 for v in spec.values)  # singular block


# ---------------------------------------------------------------------------
# the Sym(3) gain on K5


def test_s3_cover_is_line_graph_of_petersen():
    f = s3_cover_k5()
    cov = lift(f)
    assert cov.graph.n == 15
    assert set(cov.graph.degrees) == {4}
    assert char_poly(cov.graph) == char_poly(line_graph(petersen()))
    assert sorted(cov.graph.degrees) == sorted(line_graph(petersen()).degrees)


def test_s3_cover_spectral_difference():
    cert = classify_two_ev(s3_cover_k5())
    assert cert.is_two_ev
    assert (cert.theta, cert.tau, cert.mult_theta, cert.mult_tau) == (2.0, -2.0, 5, 5)


def test_s3_cover_row0_identities():
    f = s3_cover_k5()
    ident = (0, 1, 2)
    for v in (1, 2, 3, 4):
        assert f.gains[(0, v)] == ident
    # transpositions are involutions, so both orientations agree
    assert f.gain(1, 2) == f.gain(2, 1) == (1, 0, 2)


# ---------------------------------------------------------------------------
# the signed K_{3n} non-example


def test_k3n_character_spectrum():
    for n in (2, 3):
        f = k3n_nonexample(n)
        spec = hermitian_spectrum(rep_matrix(f, (1,)))
        expect = [(2 * n - 1, 2), (-1.0, 3 * n - 3), (-n - 1, 1)]
        assert spec.distinct() == 3
        for (v, m), (ev, em) in zip(spec.pairs, expect):
            assert abs(v - ev) < 1e-9 and m == em


def test_k3n_not_two_ev_not_distance_regular():
    for n in (2, 3):
        f = k3n_nonexample(n)
        cov = f.cover
        cert = classify_two_ev(f)
        assert not cert.is_two_ev
        assert cert.new_distinct == 3
        assert is_distance_regular(cov.graph) is None


def test_k3n_requires_two_vertices_per_block():
    # at n = 1 the value -1 drops out: the lift is C_6 over K_3, a 2ev cover
    with pytest.raises(ParameterError, match="at least 2"):
        k3n_nonexample(1)


def test_k3n_support_pattern():
    f = k3n_nonexample(2)
    flipped = {e for e, g in f.gains.items() if g == (1,)}
    assert flipped == {(u, v) for u in range(2) for v in range(2, 4)}
