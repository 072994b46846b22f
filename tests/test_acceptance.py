"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Tolerances are pinned where stated; everything structural is exact integer
arithmetic. Intersection arrays are checked against the test-local BFS oracle
in conftest. Criterion 3 pins which Cohen-Tits covers are distance-regular
(n = 2 and n = 4). Criterion 6's q=4 sub-check pins that no Z4 gain on
K_{4,4} is a two-eigenvalue cover (an exhaustive, exact Hadamard count over
all dephased exponent matrices) and that the 32-vertex array {4,3,3,1;1,1,3,4}
arises from the Klein-group gain instead.
"""

import itertools
import math
import random
import time

import numpy as np

from gaincover import (GroupSpec, char_poly, classify_two_ev,
                       complete_bipartite, complete_graph, cycle, girth,
                       hypercube, is_distance_regular, is_walk_regular,
                       kneser, lift, line_graph, petersen, rep_matrix)
from gaincover.families import (butson_gain, cohen_tits_cover, fourier_butson,
                                huang_signing, k3n_nonexample, s3_cover_k5)
from gaincover.intpoly import IntPoly
from gaincover.regularity import two_ev_divisibility_obstruction
from gaincover.search import (SearchSpec, search_two_ev,
                              verify_bipartite_cover, verify_drackn,
                              verify_srg_cover, verify_walk_regularity)
from gaincover.spectral import cluster_values, hermitian_eigenvalues

from conftest import (brute_force_walk_regular, intersection_array,
                      klein_gf4_gain, poly_from_roots, poly_real_roots,
                      random_graph)


def report(num, ok, detail, t0):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.2f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_01_kneser_spectrum():
    t0 = time.time()
    expect = tuple(poly_from_roots([10] + [1] * 14 + [-4] * 6))
    got = char_poly(kneser(7, 2)).coeffs
    report(1, got == expect, "kneser(7,2) char poly = (x-10)(x-1)^14(x+4)^6 exactly", t0)


def test_criterion_02_huang_signings():
    t0 = time.time()
    ok = True
    detail = "sign matrices n=1..8: S^2 = n*I exact, spectrum +-sqrt(n) at 2^(n-1)"
    for n in range(1, 9):
        f = huang_signing(n)
        s_int = rep_matrix(f, (1,)).real.astype(np.int64)
        dim = 1 << n
        if not np.array_equal(s_int @ s_int, n * np.eye(dim, dtype=np.int64)):
            ok, detail = False, f"S^2 != {n}I at n={n}"
            break
        vals = np.sort(hermitian_eigenvalues(s_int.astype(np.float64)))
        root = math.sqrt(n)
        half = dim // 2
        if (np.abs(vals[:half] + root).max() > 1e-9
                or np.abs(vals[half:] - root).max() > 1e-9):
            ok, detail = False, f"numeric eigenvalues off +-sqrt({n}) beyond 1e-9"
            break
        spec = cluster_values(vals, 1e-7, float(n))
        if spec.distinct() != 2 or spec.pairs[0][1] != half or spec.pairs[1][1] != half:
            ok, detail = False, f"clustered multiplicities wrong at n={n}"
            break
    report(2, ok, detail, t0)


def test_criterion_03_cohen_tits_covers():
    t0 = time.time()
    problems = []
    for n in range(2, 7):
        g = girth(cohen_tits_cover(n).graph)
        want = 8 if n == 2 else 6
        if g != want:
            problems.append(f"girth(cover of cube {n}) = {g}, expected {want}")
    for n in range(3, 6):
        cov = cohen_tits_cover(n).graph
        if not is_walk_regular(cov):
            problems.append(f"cover of cube {n} not walk-regular")
    # n = 2 is the 8-cycle; n = 4 is the 4-fold antipodal cover of K_{4,4}.
    # The others have more distinct eigenvalues than diameter + 1 (n = 3:
    # diameter 4, six eigenvalues +-3, +-1, +-sqrt(3)).
    expected = {2: ((2, 1, 1, 1), (1, 1, 1, 2)), 3: None,
                4: ((4, 3, 3, 1), (1, 1, 3, 4)), 5: None, 6: None}
    for n, want in expected.items():
        cov = cohen_tits_cover(n).graph
        arr = is_distance_regular(cov)
        got = None if arr is None else (arr.b, arr.c)
        oracle = intersection_array(cov)
        if got != want or oracle != want:
            problems.append(f"cover of cube {n}: array {got}, oracle {oracle}, "
                            f"expected {want}")
    report(3, not problems,
           "; ".join(problems) or "girths 8/6 for n=2..6, walk-regular for "
           "n=3..5, distance-regular exactly at n=2 and n=4", t0)


def test_criterion_04_drackn_verification():
    t0 = time.time()
    ok = True
    detail = "K4 r=2/r=3 and K5 r=2 exhaustive: connected 2ev covers are drackns"
    s42 = verify_drackn(4, 2)
    s43 = verify_drackn(4, 3)
    s52 = verify_drackn(5, 2)
    for s, total in ((s42, 8), (s43, 27), (s52, 64)):
        if s.sampled != total or s.failures or s.verified != s.connected_two_ev:
            ok, detail = False, f"summary off: {s.as_dict()} (expected {total} sampled)"
    if ok:
        q3 = char_poly(hypercube(3))
        cube_hits = [r for r in s42.records
                     if r.two_ev.cover_connected
                     and char_poly(lift(r.gain).graph) == q3]
        if not cube_hits:
            ok, detail = False, "no K4 r=2 hit matches the 3-cube exactly"
    report(4, ok, detail, t0)


def test_criterion_05_petersen_obstruction():
    t0 = time.time()
    hits = search_two_ev(SearchSpec(petersen(), GroupSpec.cyclic(2)))
    filtered = two_ev_divisibility_obstruction(petersen(), 2)
    ok = hits == [] and filtered
    report(5, ok, f"64 signings of petersen: {len(hits)} 2ev hits; "
                  f"s = c/r non-integral prefilter = {filtered}", t0)


def hadamard_power(exps, r, s):
    """Per row of a stack of q x q exponent matrices mod r: is the matrix of
    s-th powers of omega^E (omega a primitive r-th root) complex Hadamard?

    Exact residue counting: rows j1, j2 are orthogonal iff the counts n_t of
    t = s(E[j1] - E[j2]) mod r, read at a primitive m-th root with
    m = r / gcd(s, r), sum to zero. For a prime power m = p^e that holds iff
    n_t = n_{t + m/p} for every t.
    """
    exps = np.asarray(exps)
    g = math.gcd(s, r)
    m = r // g
    p = min(d for d in range(2, m + 1) if m % d == 0)
    assert p ** round(math.log(m, p)) == m, "prime-power orders only"
    ok = np.ones(len(exps), dtype=bool)
    for j1, j2 in itertools.combinations(range(exps.shape[1]), 2):
        t = s * (exps[:, j1] - exps[:, j2]) % r // g
        counts = np.stack([(t == v).sum(axis=1) for v in range(m)], axis=1)
        ok &= (counts == np.roll(counts, m // p, axis=1)).all(axis=1)
    return ok


def butson_two_ev(exps, r):
    """Z_r gain on K_{q,q} with exponent matrices E: the s-th character block
    is [[0, H^(s)], [H^(s)*, 0]], whose eigenvalues are +- the singular values
    of H^(s). Every H^(s) has squared Frobenius norm q^2, so the new
    eigenvalues take exactly two values iff every H^(s) is complex Hadamard
    (s and r - s give conjugate matrices)."""
    return np.logical_and.reduce([hadamard_power(exps, r, s)
                                  for s in range(1, r // 2 + 1)])


def test_criterion_06_butson_and_bipartite():
    t0 = time.time()
    problems = []
    expected = {2: ((2, 1, 1, 1), (1, 1, 1, 2)),
                3: ((3, 2, 2, 1), (1, 1, 2, 3))}
    passed = []
    for q in (2, 3, 4):
        h = fourier_butson(q)
        f = butson_gain(h)
        cov = f.cover
        cert = classify_two_ev(f)
        if butson_two_ev([h.entries], q)[0] != cert.is_two_ev:
            problems.append(f"q={q}: Hadamard-power check disagrees with classify_two_ev")
        if q == 4:
            # H^(1) is Hadamard and H^(2) is not, so the s = 1 test at m = 4
            # can pass and the exhaustive count below is not vacuous
            if not hadamard_power([h.entries], 4, 1)[0] or hadamard_power([h.entries], 4, 2)[0]:
                problems.append("q=4: Fourier H^(1)/H^(2) Hadamard pattern wrong")
            if cert.is_two_ev or not cert.cover_connected:
                problems.append("q=4: Fourier Z4 cover should be connected and not 2ev")
            else:
                passed.append("q=4 Fourier connected, not 2ev ok")
            continue
        eb, ec = expected[q]
        arr = is_distance_regular(cov.graph)
        k, a, c, r = q, 0, q, q
        formula = ((k, k - a - 1, c * (r - 1) // r, 1), (1, c // r, k - a - 1, k))
        if not (cert.is_two_ev and cert.cover_connected):
            problems.append(f"q={q}: not a connected 2ev cover")
        elif (arr is None or arr.d != 4 or (arr.b, arr.c) != (eb, ec) or (eb, ec) != formula
              or intersection_array(cov.graph) != (eb, ec)):
            problems.append(f"q={q}: array {arr} != expected")
        else:
            passed.append(f"q={q} ok")
    # every Z4 gain on K_{4,4} switches to one that is 0 on the star of left
    # vertex 0 and right vertex 0, leaving 4^9 dephased exponent matrices
    free = np.arange(4 ** 9)[:, None] // 4 ** np.arange(9) % 4
    dephased = np.zeros((4 ** 9, 4, 4), dtype=np.int64)
    dephased[:, 1:, 1:] = free.reshape(-1, 3, 3)
    hits = int(butson_two_ev(dephased, 4).sum())
    if hits:
        problems.append(f"q=4: {hits} dephased Z4 exponent matrices pass")
    else:
        passed.append("q=4: 0 of 4^9 dephased Z4 gains 2ev ok")
    f = klein_gf4_gain()
    cov = f.cover
    cert = classify_two_ev(f)
    arr = is_distance_regular(cov.graph)
    want = ((4, 3, 3, 1), (1, 1, 3, 4))
    if not (cert.is_two_ev and cert.cover_connected):
        problems.append("q=4: Klein GF(4) gain is not a connected 2ev cover")
    elif arr is None or (arr.b, arr.c) != want or intersection_array(cov.graph) != want:
        problems.append(f"q=4: Klein GF(4) array {arr} != expected")
    else:
        passed.append("q=4 Klein GF(4) {4,3,3,1;1,1,3,4} ok")
    for m, n in ((2, 3), (3, 3)):
        s = verify_bipartite_cover(m, n, 2)
        if s.connected_two_ev != 0 or s.failures:
            problems.append(f"K{m},{n} r=2 found unexpected connected 2ev hits")
        else:
            passed.append(f"K{m},{n} zero hits ok")
    report(6, not problems,
           "; ".join(passed + problems), t0)


def test_criterion_07_octahedron_equivalence():
    t0 = time.time()
    from gaincover import octahedron
    base = octahedron()
    spec = SearchSpec(base, GroupSpec.cyclic(2))
    assert spec.exhaustive_size() == 128
    hits = search_two_ev(spec)
    audits = 0
    for h in hits:
        if h.two_ev.cover_connected:
            rec = verify_srg_cover(h.gain)  # raises on falsification
            assert rec.theorem_checks["drg-iff-a-equals-lambda"] == "pass"
            audits += 1
    report(7, True, f"128 octahedron signings, {audits} connected 2ev hits, "
                    f"drg iff a=lambda (a=2) with zero falsifications", t0)


def test_criterion_08_s3_cover():
    t0 = time.time()
    f = s3_cover_k5()
    cov = f.cover
    p = char_poly(cov.graph)
    ok = p == char_poly(line_graph(petersen()))
    ok = ok and p.coeffs == tuple(poly_from_roots([4] + [2] * 5 + [-1] * 4 + [-2] * 5))
    cert = classify_two_ev(f)
    ok = ok and (cert.theta, cert.tau, cert.mult_theta, cert.mult_tau) == (2.0, -2.0, 5, 5)
    # the exact quotient is (x^2 - 4)^5
    from gaincover.spectral import spectral_difference_poly
    ok = ok and spectral_difference_poly(f) == IntPoly((-4, 0, 1)).pow(5)
    report(8, ok, "Sym(3) gain on K5 lifts to the Petersen line graph; "
                  "difference exactly {2^5, (-2)^5}", t0)


def test_criterion_09_k3n_nonexample():
    t0 = time.time()
    ok = True
    detail = "signed K_{3n} spectrum {(2n-1)^2, -1^(3n-3), (-n-1)} within 1e-9; not 2ev; not DRG"
    for n in (2, 3):
        f = k3n_nonexample(n)
        vals = np.sort(hermitian_eigenvalues(rep_matrix(f, (1,))))
        expect = np.sort(np.array([2 * n - 1] * 2 + [-1] * (3 * n - 3) + [-n - 1], dtype=float))
        if np.abs(vals - expect).max() > 1e-9:
            ok, detail = False, f"n={n}: signed spectrum off by more than 1e-9"
            break
        cov = f.cover
        cert = classify_two_ev(f)
        if cert.is_two_ev or is_distance_regular(cov.graph) is not None:
            ok, detail = False, f"n={n}: classification or regularity wrong"
            break
    report(9, ok, detail, t0)


def test_criterion_10_walk_regularity_suite():
    t0 = time.time()
    bases = [complete_graph(4), complete_graph(5), complete_bipartite(3, 3),
             cycle(6), hypercube(3)]
    groups = [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4),
              GroupSpec.abelian(2, 2)]
    summary = verify_walk_regularity(bases, groups, budget=200, seed=20240817)
    ok = (summary.sampled == 4000 and not summary.failures
          and summary.verified == summary.two_ev)
    report(10, ok, f"{summary.sampled} samples, {summary.two_ev} 2ev, "
                   f"{summary.verified} walk-regular lifts, block spectra all matched "
                   f"within 1e-7", t0)


def test_criterion_11_infrastructure_oracles():
    t0 = time.time()
    rng = random.Random(11)
    checked_wr = 0
    worst_root_dev = 0.0
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5, 0.75]))
        assert is_walk_regular(g) == brute_force_walk_regular(g)
        checked_wr += 1
        if g.n:
            roots = poly_real_roots(char_poly(g))
            vals = np.sort(hermitian_eigenvalues(g.adjacency(dtype=np.float64)))
            worst_root_dev = max(worst_root_dev, float(np.abs(roots - vals).max()))
    ok = worst_root_dev <= 1e-7
    report(11, ok, f"{checked_wr} random graphs: walk-regularity matches brute force; "
                   f"max |char-poly root - eigensolver| = {worst_root_dev:.2e}", t0)
