"""Exact univariate polynomial arithmetic over the integers.

Polynomials are dense: index i of the coefficient sequence holds the
coefficient of x^i, the entry of highest index is nonzero, and the zero
polynomial stores no coefficients at all.  All arithmetic is exact.  The
only floats are two sentinels: the zero polynomial's degree is -inf and
valuation(0, p) is inf.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import ArgumentError, DegreeZero, ZeroPolynomial

NEG_INFINITY = float("-inf")


def decimal_text(n: int) -> str:
    """Exact decimal text of an int of any size.

    str() refuses ints past Python's int-string digit limit
    (sys.get_int_max_str_digits, 4300 digits by default).  Larger ints are
    split by divide and conquer on a power of ten until every piece fits;
    the limit itself is never changed.
    """
    try:
        return str(n)
    except ValueError:  # past the limit
        pass
    if n < 0:
        return "-" + decimal_text(-n)
    # About half of n's digits: log10(2) / 2 is just above 3/20.
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    The degree of the zero polynomial is reported as ``NEG_INFINITY`` so that
    degree comparisons behave sensibly.  Instances are immutable and hashable;
    they may be shared freely between threads.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if not isinstance(n, int) or n < 0:
            raise ArgumentError("exponent must be a nonnegative integer")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, a: int) -> int:
        """Exact value f(a) by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Divide out the content and flip the sign so the leading coefficient is positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly(c // g for c in self.coeffs)

    def to_text(self, var: str = "x") -> str:
        """Render in descending powers, e.g. ``2*x^2 + 3*x + 1``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            mag = abs(c)
            if i == 0:
                body = decimal_text(mag)
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if mag == 1 else f"{decimal_text(mag)}*{power}"
            parts.append(sign + body)
        return "".join(parts)


def _coerce(value) -> IntPoly | None:
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,))
    return None


def derivative(f: IntPoly) -> IntPoly:
    """Formal derivative."""
    return IntPoly(i * c for i, c in enumerate(f.coeffs) if i >= 1)


def compose_linear(f: IntPoly, a: int, b: int) -> IntPoly:
    """The polynomial f(a + b*x), expanded exactly by a Taylor shift on one
    coefficient list: n - 1 passes of synthetic division by x - a turn the
    coefficients of f into those of f(a + x) (Knuth, TAOCP 4.6.4), and the
    coefficient of x^i is then scaled by b^i.
    """
    cs = list(f.coeffs)
    n = len(cs)
    if a:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
    if b != 1:
        power = 1
        for i in range(1, n):
            power *= b
            cs[i] *= power
    return IntPoly(cs)


def valuation(a: int, p: int) -> int | float:
    """Exponent of the largest power of p dividing a; math.inf for a = 0."""
    if p < 2:
        raise ArgumentError("p must be at least 2")
    if a == 0:
        return math.inf
    v = 0
    a = abs(a)
    while a % p == 0:
        a //= p
        v += 1
    return v


def content_and_primitive(f: IntPoly, p: int) -> tuple[int, IntPoly]:
    """Split off the largest power of p dividing every coefficient.

    Returns (c, g) with f = p^c * g and g not identically zero mod p.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no p-content")
    c = math.inf
    for coef in f.coeffs:
        c = min(c, valuation(coef, p))
        if c == 0:
            return 0, f
    q = p**c
    return c, IntPoly(coef // q for coef in f.coeffs)


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Remainder of lc(b)^(deg a - deg b + 1) * a by b (Knuth, TAOCP 4.6.1,
    # Algorithm R), on dense coefficient lists with deg a >= deg b >= 0.
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        top = r[db + k]
        r[:k] = [lcb * c for c in r[:k]]
        r[k : db + k] = [lcb * c - top * bc for c, bc in zip(r[k : db + k], b)]
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Gcd over the rationals, returned as a primitive integer polynomial
    with positive leading coefficient (a positive constant for coprime inputs).
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcd of two zero polynomials is undefined")
    a, b = f.primitive(), g.primitive()
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = IntPoly(_pseudo_rem(a.coeffs, b.coeffs))
        a, b = b, r.primitive()
    return a


def exact_divide(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f / g when the division is exact over the integers."""
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    if f.is_zero:
        return IntPoly()
    dq = f.degree - g.degree
    if dq < 0:
        raise ArgumentError("division is not exact")
    rem = list(f.coeffs)
    quo = [0] * (dq + 1)
    lcg = g.leading_coefficient
    for i in range(dq, -1, -1):
        c = rem[g.degree + i]
        if c % lcg:
            raise ArgumentError("division is not exact")
        q = c // lcg
        quo[i] = q
        if q:
            for j, gc in enumerate(g.coeffs):
                rem[i + j] -= q * gc
    if any(rem):
        raise ArgumentError("division is not exact")
    return IntPoly(quo)


def squarefree_part(f: IntPoly) -> IntPoly:
    """Primitive squarefree polynomial with the same distinct roots as f.

    Computed as f divided by gcd(f, f') over the rationals, then scaled to a
    primitive integer polynomial with positive leading coefficient.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no squarefree part")
    if f.degree == 0:
        raise DegreeZero("constants have no squarefree part")
    g = poly_gcd(f, derivative(f))
    if g.degree == 0:
        return f.primitive()
    return exact_divide(f.primitive(), g).primitive()


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Exact resultant of f and g, defined as the determinant of the
    Sylvester-style matrix whose first deg(f) rows carry g's coefficients and
    whose remaining deg(g) rows carry f's.  With this layout Res(x - a, x - b)
    = b - a; it is the standard Res(g, f).

    Computed with Collins' subresultant PRS (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7): every division below is exact.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant requires nonzero polynomials")
    a, b = g.coeffs, f.coeffs
    da, db = len(a) - 1, len(b) - 1
    ca, cb = math.gcd(*a), math.gcd(*b)
    scale = ca**db * cb**da
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            sign = -1
    # lead and h are Cohen's g and h: each remainder is divided by g * h^delta.
    lead, h = 1, 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _pseudo_rem(a, b)
        if not r:
            return 0
        div = lead * h**delta
        a, b = b, [c // div for c in r]
        da, db = db, len(r) - 1
        lead = a[-1]
        h = lead**delta // h ** (delta - 1) if delta else h
    if da:
        h = b[-1] ** da // h ** (da - 1)
    return sign * scale * h


def discriminant(h: IntPoly) -> int:
    """Discriminant under the convention D(h) = lc^(2m-1) * prod (r_i - r_j)^2.

    This equals lc(h) times the standard discriminant, and works out to
    (-1)^(m(m-1)/2) * Res(h, h') with no division.  A linear polynomial has
    discriminant 1 by convention.
    """
    if h.is_zero:
        raise ZeroPolynomial("the zero polynomial has no discriminant")
    m = h.degree
    if m == 0:
        raise DegreeZero("constants have no discriminant here")
    if m == 1:
        return 1
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * resultant(h, derivative(h))
