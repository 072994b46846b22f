"""Exact univariate polynomials over arbitrary-precision integers.

Coefficients are stored ascending (coeffs[i] multiplies x**i) and the
characteristic polynomials handled here are always monic, which keeps every
division below exact. A gcd modulo a prime runs Euclid's algorithm on arrays
(`_monic_gcd_mod`), in int64 for a word-size prime. Whether a monic
polynomial is square-free takes one such gcd (`squarefree_mod`), for a prime
that the caller has at hand. The square-free part itself is certified
modularly: gcds mod the largest primes below 2**62, joined by the CRT, and
accepted only when the candidate divides p and p' exactly over Z. Every
modulus in the package comes from one cached source of primes, `_prime`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


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
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return IntPoly(out)

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
    """Monic gcd of a and b mod the prime q, by Euclid's algorithm, each step
    of a division one array operation on the divisor: in int64 while q^2 <
    2^63, so that every product fits, else on Python ints.

    a and b are coefficient sequences, highest degree first, reduced mod q, a
    with a nonzero lead; so is the result, an array.
    """
    dtype = np.int64 if q * q < 2**63 else object
    a, b = np.array(a, dtype=dtype), _strip(np.array(b, dtype=dtype))
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


def squarefree_mod(coeffs, q) -> bool:
    """Whether the monic polynomial p of ascending coefficients coeffs (ints)
    is square-free modulo the prime q: gcd(p, p') = 1 mod q. Then p is
    square-free over Z too, since a repeated monic factor of p over Z divides
    p and p' modulo every prime; the converse can fail, for the q that divide
    the discriminant."""
    high = [int(c) % q for c in reversed(coeffs)]
    d = len(high) - 1
    return len(_monic_gcd_mod(high, [(d - i) * c % q for i, c in enumerate(high[:-1])], q)) == 1


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') for monic p: again monic, with the same root set. A
    miss counts its distinct new eigenvalues by `squarefree_mod` first and
    takes this only where its roots repeat; so does a graph whose char poly
    is not certified from its spectrum, and the tests take it as an oracle.

    The monic gcd g of p and p' lies in Z[x], since p is monic. Its image
    mod any prime q divides the gcd of the images, so every gcd mod q has
    degree at least deg g. The gcds are taken mod primes below 2**62; primes
    whose gcd is not of the least degree seen are dropped, and the others'
    symmetric residues are joined by the CRT. A candidate is taken once one
    more prime leaves it unchanged and it divides both p and p' over Z: as a
    common divisor it divides g, and its degree is at least deg g, so it is g.
    Raises ValueError unless p is monic.
    """
    if not p.is_monic:
        raise ValueError("square-free part requires a monic polynomial")
    if p.degree <= 0:
        return p
    dp = p.derivative()
    high, dhigh = p.coeffs[::-1], dp.coeffs[::-1]
    best, res, mod, cand = None, None, 1, None
    for i in itertools.count():
        q = _prime(2**62, i)
        g = _monic_gcd_mod([c % q for c in high], [c % q for c in dhigh], q)
        if len(g) == 1:
            return p  # deg g = 0 is certified by any one prime
        if best is not None and len(g) > best:
            continue  # an unlucky prime
        if best is None or len(g) < best:
            best, res, mod = len(g), [0] * len(g), 1
        # CRT: res = res mod the old modulus, = g mod q
        inv = pow(mod % q, -1, q)
        res = [x + mod * ((y - x) * inv % q) for x, y in zip(res, g)]
        mod *= q
        half = mod // 2
        new = IntPoly((x + half) % mod - half for x in reversed(res))
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


def integer_roots(p: IntPoly):
    """Integer roots with multiplicities, by divisor trial on the constant term.

    For small-degree polynomials: the test oracles' quadratic x^2 - lambda*x -
    k of a 2ev verdict, whose roots the package takes by `quadratic_roots`.
    The benchmark's per-layer trace names it, so it stays here.
    """
    roots = {}
    while not p.is_zero and p.coeffs[0] == 0:
        roots[0] = roots.get(0, 0) + 1
        p = IntPoly(p.coeffs[1:])
    if p.degree <= 0:
        return roots
    c0 = abs(p.coeffs[0])
    cands = set()
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            cands.update((d, -d, c0 // d, -(c0 // d)))
        d += 1
    for r in sorted(cands):
        while p.degree > 0 and p(r) == 0:
            roots[r] = roots.get(r, 0) + 1
            p = p.div_exact(IntPoly((-r, 1)))
    return roots


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
    out = [0] * residues.shape[1]
    for row, p in zip(residues, primes):
        quo = prod // p
        weight = quo * pow(quo % p, -1, p)
        for i, r in enumerate(row.tolist()):
            out[i] += r * weight
    half = prod // 2
    return IntPoly((x + half) % prod - half for x in out)


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
