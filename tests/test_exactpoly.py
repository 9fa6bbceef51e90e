import math
import random
import sys

import pytest

from igusazeta.errors import ArgumentError, DegreeZero, ZeroPolynomial
from igusazeta.exactpoly import (
    IntPoly,
    compose_linear,
    content_and_primitive,
    decimal_text,
    derivative,
    discriminant,
    exact_divide,
    poly_gcd,
    resultant,
    squarefree_part,
)
from igusazeta.ratfun import RationalFunction


# Independent resultant oracle: build the same Sylvester-style block matrix
# (deg f rows of g over deg g rows of f) and evaluate its determinant by
# cofactor expansion over exact rationals.
def sylvester_rows(f, g):
    m, n = f.degree, g.degree
    size = m + n
    fdesc = list(reversed(f.coeffs))
    gdesc = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + gdesc + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + fdesc + [0] * (size - m - 1 - i))
    return rows


def det_expansion(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * det_expansion(minor)
    return total


def rand_poly(rng, max_deg=4, lo=-9, hi=9, nonzero=True):
    while True:
        f = IntPoly([rng.randint(lo, hi) for _ in range(rng.randint(1, max_deg + 1))])
        if not (nonzero and f.is_zero):
            return f


class TestIntPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero

    def test_zero_degree_marker(self):
        assert IntPoly().degree == float("-inf")
        assert IntPoly([7]).degree == 0

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])

    def test_arithmetic(self):
        f = IntPoly([1, 1])
        assert (f * f).coeffs == (1, 2, 1)
        assert (f - f).is_zero
        assert (f + 1).coeffs == (2, 1)
        assert (f**3).coeffs == (1, 3, 3, 1)
        assert 1 - IntPoly([0, 1]) == IntPoly([1, -1])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ArgumentError, match="exponent must be a nonnegative integer"):
            IntPoly([1, 1]) ** -1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            IntPoly([1]).coeffs = (2,)

    def test_text_round_trip_forms(self):
        assert IntPoly([1, 3, 2]).to_text() == "2*x^2 + 3*x + 1"
        assert IntPoly([-12, 1, 0, -4]).to_text() == "-4*x^3 + x - 12"
        assert IntPoly().to_text() == "0"

    def test_text_past_the_int_string_limit(self):
        f = IntPoly([-(10**5000), 0, 10**5000 + 1])
        assert f.to_text() == "1" + "0" * 4999 + "1*x^2 - 1" + "0" * 5000


class TestDecimalText:
    def test_matches_str_with_the_limit_lifted(self):
        limit = sys.get_int_max_str_digits()
        rng = random.Random(43)
        values = [0, 1, -1, 2**2048, -(2**2048) - 1, 10**4300, 1 - 10**4300, 10**6000 - 1]
        values += [rng.getrandbits(rng.randint(1, 40000)) * rng.choice([1, -1]) for _ in range(100)]
        texts = [decimal_text(v) for v in values]
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert texts == [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_under_the_least_limit_python_accepts(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal_text(10**700 + 5) == "1" + "0" * 699 + "5"
            assert decimal_text(-(2**2048)) == "-" + str(2**2048)
        finally:
            sys.set_int_max_str_digits(limit)


class TestDerivative:
    def test_power_rule(self):
        assert derivative(IntPoly([-1, 0, 1])) == IntPoly([0, 2])

    def test_constant(self):
        assert derivative(IntPoly([5])).is_zero

    def test_quadratic(self):
        assert derivative(IntPoly([1, 3, 2])) == IntPoly([3, 4])


class TestEvaluate:
    def test_rational_root(self):
        assert IntPoly([1, 3, 2])(-1) == 0

    def test_direct(self):
        assert IntPoly([-1, 0, 1])(3) == 8

    def test_identity(self):
        assert IntPoly([0, 1])(0) == 0

    def test_ring_homomorphism(self):
        rng = random.Random(101)
        for _ in range(200):
            f, g = rand_poly(rng), rand_poly(rng)
            a = rng.randint(-20, 20)
            assert (f * g)(a) == f(a) * g(a)


class TestContentAndPrimitive:
    def test_constant(self):
        assert content_and_primitive(IntPoly([12]), 2) == (2, IntPoly([3]))

    def test_odd_coefficient(self):
        f = IntPoly([1, 3, 2])
        assert content_and_primitive(f, 2) == (0, f)

    def test_shared_power(self):
        assert content_and_primitive(IntPoly([8, 0, 4]), 2) == (2, IntPoly([2, 0, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            content_and_primitive(IntPoly(), 2)


class TestGcdAndExactDivide:
    def test_gcd_with_zero_is_the_primitive_part(self):
        f = IntPoly([4, -6])
        assert poly_gcd(f, IntPoly()) == poly_gcd(IntPoly(), f) == IntPoly([-2, 3])

    def test_gcd_of_two_zeros_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_gcd(IntPoly(), IntPoly())

    def test_zero_divided_is_zero(self):
        assert exact_divide(IntPoly(), IntPoly([1, 1])).is_zero

    def test_exact_divide_errors(self):
        x = IntPoly([0, 1])
        with pytest.raises(ZeroPolynomial):
            exact_divide(x, IntPoly())
        # a divisor of higher degree, a leading coefficient that does not
        # divide, and a nonzero remainder
        for f, g in [(IntPoly([1]), x), (x, IntPoly([0, 2])), (IntPoly([1, 1]), x)]:
            with pytest.raises(ArgumentError, match="division is not exact"):
                exact_divide(f, g)


class TestSquarefreePart:
    def test_repeated_factor(self):
        assert squarefree_part(IntPoly([0, 0, 1])) == IntPoly([0, 1])

    def test_mixed_multiplicities(self):
        # (x-1)^2 (x+1) = x^3 - x^2 - x + 1
        assert squarefree_part(IntPoly([1, -1, -1, 1])) == IntPoly([-1, 0, 1])

    def test_already_squarefree(self):
        f = IntPoly([1, 3, 2])
        assert squarefree_part(f) == f

    def test_errors(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(IntPoly())
        with pytest.raises(DegreeZero):
            squarefree_part(IntPoly([3]))

    def test_divides_and_is_squarefree(self):
        rng = random.Random(7)
        for _ in range(100):
            f = rand_poly(rng, max_deg=3)
            if f.degree < 1:
                continue
            u = rand_poly(rng, max_deg=2)
            w = f * f * u if rng.random() < 0.5 else f * u
            if w.degree < 1:
                continue
            s = squarefree_part(w)
            # s divides w over the rationals (raises if the division is inexact)
            exact_divide(w.primitive(), s)
            # and s itself is squarefree
            assert poly_gcd(s, derivative(s)).degree == 0


class TestResultant:
    def test_small_sylvester_block(self):
        assert resultant(IntPoly([-1, 0, 1]), IntPoly([0, 2])) == -4

    def test_linear_pair(self):
        assert resultant(IntPoly([-1, 1]), IntPoly([-3, 1])) == 2

    def test_common_root(self):
        assert resultant(IntPoly([0, 1]), IntPoly([0, 1])) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resultant(IntPoly(), IntPoly([1]))

    def test_matches_determinant_oracle(self):
        rng = random.Random(99)
        for _ in range(150):
            f, g = rand_poly(rng, max_deg=3), rand_poly(rng, max_deg=3)
            assert resultant(f, g) == det_expansion(sylvester_rows(f, g))

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(4242)
        for _ in range(150):
            u = rand_poly(rng, max_deg=2)
            w = rand_poly(rng, max_deg=2)
            g = rand_poly(rng, max_deg=2)
            assert resultant(u * w, g) == resultant(u, g) * resultant(w, g)


class TestDiscriminant:
    def test_basic(self):
        assert discriminant(IntPoly([-1, 0, 1])) == 4

    def test_non_monic(self):
        # roots -1 and -1/2; lc^3 * (difference)^2 = 8 * 1/4 = 2
        assert discriminant(IntPoly([1, 3, 2])) == 2

    def test_linear_convention(self):
        assert discriminant(IntPoly([7, 5])) == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            discriminant(IntPoly([3]))
        with pytest.raises(ZeroPolynomial):
            discriminant(IntPoly())

    def test_nonzero_iff_squarefree(self):
        rng = random.Random(55)
        for _ in range(120):
            h = rand_poly(rng, max_deg=4).primitive()
            if h.degree < 1:
                continue
            same_degree = squarefree_part(h).degree == h.degree
            assert (discriminant(h) != 0) == same_degree

    def test_divisibility_of_valuations(self):
        rng = random.Random(77)
        for _ in range(100):
            u = rand_poly(rng, max_deg=3)
            v = rand_poly(rng, max_deg=2)
            w = u * v
            if u.degree < 1 or w.degree < 1:
                continue
            du, dw = discriminant(u), discriminant(w)
            for p in (2, 3, 5, 7):
                vu = _vp(du, p)
                vw = _vp(dw, p)
                assert vu <= vw


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def big_poly(rng, degree, digits=30, lead_sign=None):
    bound = 10**digits
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.randint(1, bound) * (lead_sign or rng.choice((-1, 1)))
    return IntPoly(coeffs + [lead])


def to_sympy(sympy, f):
    return sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"))


def from_sympy(poly):
    return IntPoly(int(c) for c in reversed(poly.all_coeffs()))


class TestAgainstSympy:
    """Independent reference: resultant(f, g) is sympy's Res(g, f),
    discriminant(h) is lc(h) times sympy's discriminant, poly_gcd and
    squarefree_part are sympy's gcd and sqf_part made primitive, and a
    RationalFunction has the value of sympy's cancel in canonical form."""

    def check_resultant(self, sympy, f, g):
        expected = sympy.resultant(to_sympy(sympy, g), to_sympy(sympy, f))
        assert resultant(f, g) == int(expected)

    def test_resultant_at_degree(self, sympy):
        rng = random.Random(2024)
        for _ in range(6):
            f = big_poly(rng, rng.randint(10, 30))
            g = big_poly(rng, rng.randint(10, 30))
            self.check_resultant(sympy, f, g)

    def test_resultant_common_factor_is_zero(self, sympy):
        rng = random.Random(2025)
        for _ in range(4):
            u = big_poly(rng, rng.randint(1, 5))
            f = u * big_poly(rng, rng.randint(9, 20))
            g = u * big_poly(rng, rng.randint(9, 20))
            assert resultant(f, g) == 0
            self.check_resultant(sympy, f, g)

    def test_resultant_constant_argument(self, sympy):
        rng = random.Random(2026)
        for _ in range(4):
            f = big_poly(rng, rng.randint(10, 30))
            c = IntPoly([rng.choice((-1, 1)) * rng.randint(2, 10**30)])
            assert resultant(f, c) == c.coeffs[0] ** f.degree
            self.check_resultant(sympy, f, c)
            self.check_resultant(sympy, c, f)

    def test_resultant_negative_leading_coefficients(self, sympy):
        rng = random.Random(2027)
        for _ in range(4):
            f = big_poly(rng, rng.randint(10, 30), lead_sign=-1)
            g = big_poly(rng, rng.randint(10, 30), lead_sign=-1)
            self.check_resultant(sympy, f, g)

    def test_discriminant_at_degree(self, sympy):
        rng = random.Random(2028)
        for i in range(6):
            h = big_poly(rng, rng.randint(10, 30), lead_sign=(-1, 1)[i % 2])
            expected = h.leading_coefficient * sympy.discriminant(to_sympy(sympy, h))
            assert discriminant(h) == int(expected)

    def test_discriminant_of_repeated_factor_is_zero(self, sympy):
        rng = random.Random(2029)
        u = big_poly(rng, 3)
        h = u * u * big_poly(rng, 10, lead_sign=-1)
        assert discriminant(h) == 0 == int(sympy.discriminant(to_sympy(sympy, h)))

    def test_poly_gcd(self, sympy):
        rng = random.Random(2030)
        for i in range(6):
            u = big_poly(rng, rng.randint(1, 5), lead_sign=(-1, 1)[i % 2])
            f = u ** (1 + i % 2) * big_poly(rng, rng.randint(5, 15), lead_sign=-1)
            g = u * big_poly(rng, rng.randint(9, 20))
            expected = sympy.gcd(to_sympy(sympy, f), to_sympy(sympy, g))
            assert poly_gcd(f, g) == from_sympy(expected).primitive()
            assert poly_gcd(f, g).degree >= u.degree

    def test_squarefree_part(self, sympy):
        rng = random.Random(2031)
        for i in range(6):
            h = big_poly(rng, rng.randint(5, 10), lead_sign=(-1, 1)[i % 2])
            if i:
                u = big_poly(rng, rng.randint(1, 4))
                v = big_poly(rng, rng.randint(1, 3), lead_sign=-1)
                h = u**2 * v ** (1 + i % 3) * h
            expected = sympy.sqf_part(to_sympy(sympy, h))
            assert squarefree_part(h) == from_sympy(expected).primitive()

    def test_rational_function_reduced_form(self, sympy):
        rng = random.Random(2032)
        for i in range(6):
            u = big_poly(rng, rng.randint(1, 5), lead_sign=-1)
            scale = rng.randint(2, 10**6)
            num = u * big_poly(rng, rng.randint(9, 20)) * scale
            den = u ** (1 + i % 2) * big_poly(rng, rng.randint(9, 20)) * scale
            r = RationalFunction(num, den)
            a, b = (to_sympy(sympy, q).as_expr() for q in (num, den))
            n, d = sympy.fraction(sympy.cancel(a / b))
            r_num, r_den = (to_sympy(sympy, q).as_expr() for q in (r.num, r.den))
            assert sympy.expand(r_num * d - r_den * n) == 0
            assert sympy.gcd(to_sympy(sympy, r.num), to_sympy(sympy, r.den)).degree() == 0
            assert math.gcd(r.num.content(), r.den.content()) == 1
            assert next(c for c in r.den.coeffs if c) > 0


def _vp(a, p):
    if a == 0:
        return math.inf
    v = 0
    a = abs(a)
    while a % p == 0:
        a //= p
        v += 1
    return v


class TestComposeLinear:
    def test_agrees_with_substitution(self):
        rng = random.Random(31)
        for _ in range(100):
            f = rand_poly(rng)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            g = compose_linear(f, a, b)
            for x in range(-3, 4):
                assert g(x) == f(a + b * x)

    def test_fixed_cases(self):
        f = IntPoly([1, 2, 3])
        assert compose_linear(IntPoly(), 3, 5) == IntPoly()
        assert compose_linear(IntPoly([7]), -4, 9) == IntPoly([7])
        assert compose_linear(f, 0, 5) == IntPoly([1, 10, 75])
        assert compose_linear(f, 2, 0) == IntPoly([17])
        assert compose_linear(f, 2, 1) == IntPoly([17, 14, 3])
        assert compose_linear(f, -2, -3) == IntPoly([9, 30, 27])
        # a tree step: x^2 - 17 at the root 1 mod 2, shifted by 2
        assert compose_linear(IntPoly([-17, 0, 1]), 1, 2) == IntPoly([-16, 4, 4])
