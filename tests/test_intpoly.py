import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaincover import intpoly
from gaincover.intpoly import IntPoly, cyclotomic, integer_roots, squarefree_part

from conftest import (mul_poly, poly_from_roots, poly_gcd, poly_pow,
                      prs_squarefree_part, squarefree_decomposition)


def from_roots(roots):
    return IntPoly(poly_from_roots(roots))


def test_construction_trims_and_degrees():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).degree == -1
    assert IntPoly((0,)).is_zero
    assert IntPoly((5,)).degree == 0
    assert IntPoly((0, 0, 1)).is_monic


def test_arithmetic_matches_oracle():
    a = IntPoly((1, -3, 2))
    b = IntPoly((4, 0, 0, 1))
    assert (a * b).coeffs == tuple(mul_poly([1, -3, 2], [4, 0, 0, 1]))
    assert (a + b).coeffs == (5, -3, 2, 1)
    assert (b - b).is_zero
    assert a(7) == 1 - 21 + 98


def test_division_roundtrip():
    d = IntPoly((-1, 1))  # x - 1
    q = IntPoly((3, 0, 1))
    p = d * q + IntPoly((5,))
    quo, rem = p.divmod_monic(d)
    assert quo == q and rem == IntPoly((5,))
    with pytest.raises(ValueError):
        p.div_exact(d)
    assert (d * q).div_exact(d) == q


def test_division_requires_monic():
    with pytest.raises(ValueError):
        IntPoly((1, 1)).divmod_monic(IntPoly((1, 2)))


def test_gcd_of_shared_factor():
    shared = IntPoly((-2, 0, 1))  # x^2 - 2, irreducible
    a = shared * IntPoly((1, 1))
    b = shared * IntPoly((-5, 3, 1))
    assert poly_gcd(a, b) == shared


def test_gcd_random_products(rng):
    for _ in range(25):
        c = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        a = c * IntPoly([rng.randint(-3, 3) for _ in range(3)] + [1])
        b = c * IntPoly([rng.randint(-3, 3) for _ in range(3)] + [1])
        g = poly_gcd(a, b)
        # the shared factor divides the gcd
        _, rem = (g * IntPoly((1,))).divmod_monic(c) if c.is_monic else (None, None)
        assert rem is not None and rem.is_zero or g.degree >= c.degree


def test_squarefree_part():
    p = from_roots([1, 1, 1, -2, -2, 5])
    sf = squarefree_part(p)
    assert sorted(integer_roots(sf).items()) == [(-2, 1), (1, 1), (5, 1)]
    assert sf.degree == 3
    assert squarefree_part(from_roots([3])) == from_roots([3])


def test_squarefree_part_requires_monic_input():
    with pytest.raises(ValueError):
        squarefree_part(IntPoly((1, 0, 2)))
    with pytest.raises(ValueError):
        squarefree_part(IntPoly())
    assert squarefree_part(IntPoly((1,))) == IntPoly((1,))


_monic_factor = st.lists(st.integers(-40, 40), min_size=1, max_size=4).map(
    lambda low: IntPoly(low + [1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_monic_factor, st.integers(1, 4)), min_size=1, max_size=5),
       st.integers(0, 2**70))
def test_squarefree_part_matches_the_prs_oracle(factors, scale):
    # products of random monic factors with repeats, some with huge
    # coefficients, so that the modular gcd needs several primes
    p = IntPoly((1,))
    for factor, mult in factors:
        p = p * poly_pow(factor, mult)
    assert squarefree_part(p) == prs_squarefree_part(p)
    big = IntPoly((scale, 1)) * IntPoly((-scale - 3, 1))
    q = p * poly_pow(big, 2) * IntPoly((7, scale, 1))
    assert squarefree_part(q) == prs_squarefree_part(q)


def test_squarefree_part_drops_unlucky_primes():
    # 3 and 3 + q are distinct roots that meet mod the first prime q, where
    # the gcd has too high a degree; the next primes decide
    q = intpoly._prime(2**62, 0)
    assert squarefree_part(from_roots([3, 3 + q])) == from_roots([3, 3 + q])
    assert squarefree_part(from_roots([5, 5, 3, 3 + q])) == from_roots([5, 3, 3 + q])
    assert squarefree_part(from_roots([5, 5, 3, 3, 3 + q])) == from_roots([5, 3, 3 + q])


def test_prime_counts_down_and_raises_past_the_last_prime():
    assert [intpoly._prime(13, i) for i in range(6)] == [13, 11, 7, 5, 3, 2]
    assert [intpoly._prime(50, i, 7) for i in range(2)] == [43, 29]
    # no prime = 1 (mod 7) is at most 10, and only three primes at most 5
    for args in ((10, 0, 7), (5, 3), (1, 0)):
        with pytest.raises(ValueError):
            intpoly._prime(*args)


def test_squarefree_decomposition():
    p = from_roots([1, 1, 1, -2, -2, 5])
    dec = squarefree_decomposition(p)
    assert dec == [(from_roots([5]), 1), (from_roots([-2]), 2), (from_roots([1]), 3)]
    rebuilt = IntPoly((1,))
    for factor, mult in dec:
        rebuilt = rebuilt * poly_pow(factor, mult)
    assert rebuilt == p
    assert squarefree_decomposition(IntPoly((1,))) == []


def test_squarefree_decomposition_random(rng):
    for _ in range(20):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 7))]
        p = from_roots(roots)
        rebuilt = IntPoly((1,))
        for factor, mult in squarefree_decomposition(p):
            # every factor is monic and square-free
            assert factor.is_monic
            assert squarefree_part(factor) == factor
            rebuilt = rebuilt * poly_pow(factor, mult)
        assert rebuilt == p


def test_integer_roots_with_multiplicity():
    p = from_roots([0, 0, 2, -3])
    assert integer_roots(p) == {0: 2, 2: 1, -3: 1}
    assert integer_roots(IntPoly((-2, 0, 1))) == {}  # x^2 - 2 has no integer roots


def test_cyclotomic_small_orders():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(3) == IntPoly((1, 1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    # product over divisors reassembles x^r - 1
    r = 12
    prod = IntPoly((1,))
    for d in range(1, r + 1):
        if r % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == IntPoly((-1,) + (0,) * (r - 1) + (1,))


def test_str_rendering():
    assert str(IntPoly((-3, -8, -6, 0, 1))) == "x^4 - 6x^2 - 8x - 3"
    assert str(IntPoly(())) == "0"
    assert str(IntPoly((1,))) == "1"
    assert str(IntPoly((0, -1))) == "-x"
