import json
import random
from fractions import Fraction

import pytest

from igusazeta.errors import ArgumentError, DivisionByZero, PoleAtZero
from igusazeta.exactpoly import IntPoly
from igusazeta.ratfun import RationalFunction

RF = RationalFunction


def rand_rf(rng):
    while True:
        den = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if not den.is_zero:
            break
    num = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
    return RF(num, den)


class TestCanonicalForm:
    def test_reduction(self):
        # (1 - t^2) / (1 - t) reduces to 1 + t
        r = RF(IntPoly([1, 0, -1]), IntPoly([1, -1]))
        assert r == RF(IntPoly([1, 1]))

    def test_joint_content(self):
        r = RF(IntPoly([2, 2]), IntPoly([4]))
        assert (r.num.coeffs, r.den.coeffs) == ((1, 1), (2,))

    def test_low_coefficient_sign(self):
        r = RF(IntPoly([1]), IntPoly([-2, 1]))
        assert r.den.coeffs == (2, -1)
        assert r.num.coeffs == (-1,)

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            r = rand_rf(rng)
            again = RF(r.num, r.den)
            assert again == r

    def test_zero(self):
        r = RF(IntPoly(), IntPoly([3, 1]))
        assert r.num.is_zero
        assert r.den == IntPoly([1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RF(IntPoly([1]), IntPoly())

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RF(IntPoly([1])).num = IntPoly([2])

    def test_rejects_what_is_not_a_polynomial(self):
        for num, den, name in [
            ("t", IntPoly([1]), "str"),
            (1, IntPoly([1]), "int"),
            (IntPoly([1]), [1, -1], "list"),
        ]:
            with pytest.raises(TypeError, match=f"cannot interpret {name}"):
                RF(num, den)

    def test_repr_builds_an_equal_value(self):
        r = RF(IntPoly([2, 1]), IntPoly([2, 0, -1]))
        assert eval(repr(r), {"RationalFunction": RF, "IntPoly": IntPoly}) == r


class TestSeries:
    def test_geometric(self):
        r = RF(IntPoly([1]), IntPoly([1, -1]))
        assert r.series(3) == [1, 1, 1, 1]

    def test_geometric_halves(self):
        r = RF(IntPoly([2]), IntPoly([2, -1]))
        assert r.series(3) == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def test_even_odd_split(self):
        r = RF(IntPoly([2, 1]), IntPoly([2, 0, -1]))
        assert r.series(4) == [
            1,
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        ]

    def test_pole_at_zero(self):
        r = RF(IntPoly([1]), IntPoly([0, 1]))
        with pytest.raises(PoleAtZero):
            r.series(2)

    def test_negative_order_rejected(self):
        with pytest.raises(ArgumentError, match="order must be nonnegative"):
            RF(IntPoly([1])).series(-1)


class TestSerialization:
    def test_text(self):
        r = RF(IntPoly([6]), IntPoly([7, -1]))
        assert r.to_text() == "(6) / (-t + 7)"

    def test_json_past_the_int_string_limit(self):
        r = RF(IntPoly([10**5000]), IntPoly([1, -3]))
        assert r.to_json_dict() == {"num": ["1" + "0" * 5000], "den": ["1", "-3"]}
        assert r.to_text() == f"({'1' + '0' * 5000}) / (-3*t + 1)"

    def test_json_round_trip(self):
        rng = random.Random(17)
        for _ in range(50):
            r = rand_rf(rng)
            data = json.loads(json.dumps(r.to_json_dict()))
            back = RF(*(IntPoly(int(c) for c in data[k]) for k in ("num", "den")))
            assert back == r
            assert back.to_json_dict() == r.to_json_dict()
