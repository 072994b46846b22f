"""Exact univariate polynomials over arbitrary-precision integers.

Coefficients are stored ascending (coeffs[i] multiplies x**i) and the
characteristic polynomials handled here are always monic, which keeps every
division below exact. Degrees stay at desk scale (a few hundred), so the
primitive pseudo-remainder sequence is fast enough for gcds.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _int_gcd


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

    def scale(self, k):
        return IntPoly(c * k for c in self.coeffs)

    def derivative(self):
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def pow(self, k):
        out = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def content(self):
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly(c // g for c in self.coeffs)

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


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, exact in Z[x]."""
    d = a.degree - b.degree
    lc = b.coeffs[-1]
    rem = list(a.scale(lc ** (d + 1)).coeffs)
    bc = b.coeffs
    db = b.degree
    for i in range(len(rem) - 1, db - 1, -1):
        q, r = divmod(rem[i], lc)
        assert r == 0  # guaranteed by the pseudo-remainder scaling
        if q == 0:
            continue
        for j in range(db + 1):
            rem[i - db + j] -= q * bc[j]
    return IntPoly(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] via the primitive PRS; positive leading coefficient."""
    a = a.primitive()
    b = b.primitive()
    if a.is_zero:
        g = b
    elif b.is_zero:
        g = a
    else:
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero:
            r = _pseudo_rem(a, b).primitive()
            a, b = b, r
        g = a
    if not g.is_zero and g.coeffs[-1] < 0:
        g = g.scale(-1)
    return g


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'); for monic p this is again monic with the same root set."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p
    return p.div_exact(g)


def integer_roots(p: IntPoly):
    """Integer roots with multiplicities, by divisor trial on the constant term.

    Only used on small-degree polynomials (the quadratic x^2 - lambda*x - k of
    a 2ev verdict), so trial division is plenty.
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
