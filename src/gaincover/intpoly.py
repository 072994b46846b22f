"""Exact univariate polynomials over arbitrary-precision integers.

Coefficients are stored ascending (coeffs[i] multiplies x**i) and the
characteristic polynomials handled here are always monic, which keeps every
division below exact. A product is numpy's convolution on object arrays of
Python ints. A gcd modulo a prime runs Euclid's algorithm on int64 arrays
(`_monic_gcd_mod`). The package's one CRT, `_crt`, is one object-dtype dot
product of its weights with the residue rows, and one symmetric lift. The
square-free part, the package's one test of square-freeness and one count of
distinct roots, is certified modularly: gcds mod the largest primes below
`_CERTIFICATE_LIMIT`, joined by `_crt`, and accepted only when the candidate
divides p and p' exactly over Z; a square-free p takes one gcd. Every
modulus in the package comes from one cached source of primes, `_prime`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# primes below 2^26: p^2 + p is exact in float64 (the certified char poly's
# powers), and p^2 < 2^63 in int64 (`_monic_gcd_mod`)
_CERTIFICATE_LIMIT = 2**26


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPoly:
    """Integer polynomial; ``coeffs[i]`` is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(int(c) for c in coeffs)

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return IntPoly()
        # numpy's convolution on Python ints, exact at any size
        return IntPoly(np.convolve(np.array(self.coeffs, dtype=object),
                                   np.array(other.coeffs, dtype=object)))

    def __pow__(self, k):
        """self^k for an int k >= 0, by repeated squaring."""
        if k < 0:
            raise ValueError("a polynomial power needs a non-negative exponent")
        out, square = IntPoly((1,)), self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def scale(self, k):
        return IntPoly(c * k for c in self.coeffs)

    def derivative(self):
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def divmod_monic(self, divisor):
        """Long division by a monic divisor; stays in Z[x]."""
        if not divisor.is_monic:
            raise ValueError("division requires a monic divisor")
        rem = list(self.coeffs)
        d = divisor.degree
        if len(rem) - 1 < d:
            return IntPoly(), IntPoly(rem)
        quo = [0] * (len(rem) - d)
        dc = divisor.coeffs
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i]
            if q == 0:
                continue
            quo[i - d] = q
            for j in range(d + 1):
                rem[i - d + j] -= q * dc[j]
        return IntPoly(quo), IntPoly(rem)

    def div_exact(self, divisor):
        quo, rem = self.divmod_monic(divisor)
        if not rem.is_zero:
            raise ValueError("division left a nonzero remainder")
        return quo

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag}{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


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


@lru_cache(maxsize=None)
def _prime(limit, i, e=1):
    """The i-th prime p = 1 (mod e) at most limit, counting down from it.
    Raises ValueError when fewer than i + 1 such primes exist."""
    p = limit - (limit - 1) % e if i == 0 else _prime(limit, i - 1, e) - e
    while not _is_prime(p):
        if p < 2:
            raise ValueError(f"fewer than {i + 1} primes = 1 (mod {e}) are at most {limit}")
        p -= e
    return p


def _crt_primes(limit, bound, e=1):
    """The fewest primes p = 1 (mod e), descending from the largest at most
    limit, whose product exceeds 2 * bound."""
    return list(_prime_stream(limit, bound, e))


def _prime_stream(limit, bound, e=1):
    """The primes of `_crt_primes`, each drawn only when it is asked for."""
    i, prod = 0, 1
    while prod <= 2 * bound:
        yield (p := _prime(limit, i, e))
        i, prod = i + 1, prod * p


def _strip(c):
    """The array c without its leading zeros."""
    nz = np.flatnonzero(c)
    return c[nz[0]:] if len(nz) else c[:0]


def _monic_gcd_mod(a, b, q):
    """Monic gcd of a and b mod a prime q with q^2 < 2^63, by Euclid's
    algorithm in int64, each step of a division one array operation on the
    divisor.

    a and b are coefficient sequences, highest degree first, reduced mod q, a
    with a nonzero lead; so is the result, an array.
    """
    a, b = np.array(a, dtype=np.int64), _strip(np.array(b, dtype=np.int64))
    while len(b):
        inv = pow(int(b[0]), -1, q)
        rem = a.copy()
        for i in range(len(rem) - len(b) + 1):
            c = int(rem[i]) * inv % q
            if c:
                part = rem[i:i + len(b)]
                part -= c * b
                part %= q
        a, b = b, _strip(rem[max(len(rem) - len(b) + 1, 0):])
    return a * pow(int(a[0]), -1, q) % q


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') for monic p: again monic, with the same root set, so
    its degree counts p's distinct roots. Every distinct eigenvalue count of
    the package is this degree.

    The monic gcd g of p and p' lies in Z[x], since p is monic. Its image
    mod any prime q divides the gcd of the images, so every gcd mod q has
    degree at least deg g: a gcd of degree 0 mod any one prime certifies a
    square-free p. Else the gcds are taken mod primes below
    `_CERTIFICATE_LIMIT`; primes whose gcd is not of the least degree seen
    are dropped, and the others' gcds are joined by `_crt`. A candidate is
    taken once one more prime leaves it unchanged and it divides both p and
    p' over Z: as a common divisor it divides g, and its degree is at least
    deg g, so it is g. Raises ValueError unless p is monic.
    """
    if not p.is_monic:
        raise ValueError("square-free part requires a monic polynomial")
    if p.degree <= 0:
        return p
    dp = p.derivative()
    high, dhigh = p.coeffs[::-1], dp.coeffs[::-1]
    rows, primes, cand = [], [], None  # the gcds of the least degree seen, ascending
    for i in itertools.count():
        q = _prime(_CERTIFICATE_LIMIT, i)
        g = _monic_gcd_mod([c % q for c in high], [c % q for c in dhigh], q)
        if len(g) == 1:
            return p
        if rows and len(g) > len(rows[0]):
            continue  # an unlucky prime
        if rows and len(g) < len(rows[0]):
            rows, primes = [], []
        rows.append(g[::-1])
        primes.append(q)
        new = _crt(np.array(rows), primes)
        if new == cand:
            quo, rem = p.divmod_monic(new)
            if rem.is_zero and dp.divmod_monic(new)[1].is_zero:
                return quo
        cand = new


def quadratic_roots(lam, mu):
    """(hi, lo), the integer roots of x^2 - lam*x - mu, or None when they are
    not integers: (lam +- s) / 2 when the discriminant lam^2 + 4 mu is a
    square s^2, which gives s the parity of lam."""
    disc = lam * lam + 4 * mu
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return None
    return (lam + s) // 2, (lam - s) // 2


@lru_cache(maxsize=None)
def cyclotomic(r: int) -> IntPoly:
    """The r-th cyclotomic polynomial, by exact division of x^r - 1."""
    if r < 1:
        raise ValueError("order must be positive")
    p = IntPoly((-1,) + (0,) * (r - 1) + (1,))
    for d in range(1, r):
        if r % d == 0:
            p = p.div_exact(cyclotomic(d))
    return p


# ---------------------------------------------------------------------------
# the integer side of the exact char polys of `spectral`: coefficient bounds,
# CRT reconstruction, power sums and arithmetic modulo primes


def _coefficient_bound(N, F):
    """Bound on every coefficient of a monic degree-N polynomial whose roots
    have sum |lambda|^2 <= F: the coefficient of x^(N-i) is +-e_i(lambda),
    and |e_i(lambda)| <= e_i(|lambda|) <= C(N,i) * (F/N)^(i/2) by Maclaurin's
    inequality."""
    f = -(-F // N)  # ceil(F / N)
    return max(math.isqrt(math.comb(N, i) ** 2 * f**i) + 1 for i in range(N + 1))


def _crt(residues, primes) -> IntPoly:
    """The polynomial whose coefficients are the signed integers of least
    absolute value congruent to row j of residues modulo primes[j]."""
    prod = math.prod(primes)
    weights = np.array([(quo := prod // p) * pow(quo % p, -1, p) for p in primes], dtype=object)
    half = prod // 2
    return IntPoly((weights @ residues.astype(object) + half) % prod - half)


def _power_sums(f: IntPoly, count):
    """The power sums s_0, ..., s_(count-1) of the roots of the monic f, by
    Newton's identities."""
    c, d = f.coeffs, f.degree
    sums = [d]
    for j in range(1, count):
        acc = j * c[d - j] if j <= d else 0
        for i in range(1, min(j - 1, d) + 1):
            acc += c[d - i] * sums[j - i]
        sums.append(-acc)
    return sums


def _root_of_unity(e, p):
    """An element of order e in F_p, for a prime p = 1 (mod e): g^((p-1)/e)
    for the least g >= 2 whose power is 1 at no proper divisor of e."""
    divisors = [d for d in range(1, e) if e % d == 0]
    g = 2
    while True:
        w = pow(g, (p - 1) // e, p)
        if all(pow(w, d, p) != 1 for d in divisors):
            return w
        g += 1


def _poly_mul_mod(a, b, q):
    """Row-wise products of the ascending coefficient rows of a and b, modulo
    the column q of moduli, one row per modulus."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for j in range(b.shape[1]):
        part = out[:, j:j + a.shape[1]]
        part += a * b[:, j, None]
        part %= q
    return out


def _binomial_power(a, m, step):
    """(x^step - a)^m as an IntPoly, from its binomial coefficients."""
    coeffs = [0] * (step * m + 1)
    coeffs[::step] = [math.comb(m, j) * (-a) ** (m - j) for j in range(m + 1)]
    return IntPoly(coeffs)
