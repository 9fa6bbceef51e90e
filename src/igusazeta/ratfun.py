"""Exact rational functions in the formal variable t.

Values are kept in a canonical reduced form so that equality is structural:
numerator and denominator are integer polynomials, coprime over the
rationals, with no common integer factor between their contents, and the
lowest-degree nonzero coefficient of the denominator is positive.  That is
the form in which results like p/(p - t) or (p + t)/(p - t^2) print the way
they are usually written.

The type holds results and has no arithmetic: callers build the numerator
and denominator as integer polynomials and let the constructor reduce them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError, DivisionByZero, PoleAtZero
from .exactpoly import IntPoly, decimal_text, exact_divide, poly_gcd


class RationalFunction:
    """A reduced ratio of two integer polynomials in t."""

    __slots__ = ("num", "den")

    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly = IntPoly((1,))):
        for value in (num, den):
            if not isinstance(value, IntPoly):
                raise TypeError(f"cannot interpret {type(value).__name__} as an integer polynomial")
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            num, den = IntPoly(), IntPoly((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = exact_divide(num, g)
                den = exact_divide(den, g)
            c = math.gcd(num.content(), den.content())
            if c > 1:
                num = IntPoly(x // c for x in num.coeffs)
                den = IntPoly(x // c for x in den.coeffs)
            low = next(x for x in den.coeffs if x != 0)
            if low < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def series(self, order: int) -> list[Fraction]:
        """Maclaurin coefficients c_0 .. c_order, by the linear recurrence
        c_j = (num_j - sum_{i>=1} den_i * c_{j-i}) / den_0.

        The recurrence runs on the integers a_j = den_0^(j+1) * c_j, for which
        a_j = num_j * den_0^j - sum_{i>=1} den_i * den_0^(i-1) * a_{j-i},
        and c_j is built once, as the Fraction a_j / den_0^(j+1).
        """
        if order < 0:
            raise ArgumentError("order must be nonnegative")
        den = self.den.coeffs
        d = den[0]
        if d == 0:
            raise PoleAtZero("denominator vanishes at t = 0")
        num = self.num.coeffs
        dd = len(den) - 1
        # w[i] = den_i * d^(i-1) for i >= 1
        w = [0] + [c * d ** (i - 1) for i, c in enumerate(den) if i]
        a: list[int] = []
        out: list[Fraction] = []
        power = 1  # d^j
        for j in range(order + 1):
            s = num[j] * power if j < len(num) else 0
            for i in range(1, min(j, dd) + 1):
                s -= w[i] * a[j - i]
            a.append(s)
            power *= d
            out.append(Fraction(s, power))
        return out

    def to_text(self) -> str:
        return f"({self.num.to_text('t')}) / ({self.den.to_text('t')})"

    def to_json_dict(self) -> dict:
        return {
            "num": [decimal_text(c) for c in self.num.coeffs],
            "den": [decimal_text(c) for c in self.den.coeffs],
        }
