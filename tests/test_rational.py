"""Exact rational substrate, checked against the stdlib Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from streaks.rational import (
    Cmp,
    DivisionByZero,
    Rational,
    parse_rational,
    rat_arith,
    rat_cmp,
    rat_decimal,
)


def to_fraction(r):
    return Fraction(r.num, r.den)


rationals = st.builds(
    Rational,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


class TestConstruction:
    def test_canonical_form(self):
        r = Rational(2, 4)
        assert (r.num, r.den) == (1, 2)

    def test_negative_denominator_normalized(self):
        r = Rational(3, -6)
        assert (r.num, r.den) == (-1, 2)

    def test_zero_canonical(self):
        assert (Rational(0, 7).num, Rational(0, 7).den) == (0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            Rational(1, 0)

    @pytest.mark.parametrize(
        "args", [(0.5,), ("1/2",), (1, 2.0), (Rational(1, 2), 1.0)]
    )
    def test_non_integer_parts_rejected(self, args):
        with pytest.raises(TypeError):
            Rational(*args)

    @given(rationals)
    def test_recanonicalization_is_identity(self, r):
        again = Rational(r.num, r.den)
        assert (again.num, again.den) == (r.num, r.den)


class TestArith:
    def test_add_example(self):
        assert rat_arith("add", Rational(1, 2), Rational(1, 3)) == Rational(5, 6)

    def test_mul_canonicalizes(self):
        assert rat_arith("mul", Rational(2, 4), Rational(2)) == Rational(1)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            rat_arith("div", Rational(1), Rational(0))

    @given(rationals, rationals)
    def test_add_matches_oracle(self, a, b):
        assert to_fraction(a + b) == to_fraction(a) + to_fraction(b)

    @given(rationals, rationals)
    def test_sub_matches_oracle(self, a, b):
        assert to_fraction(a - b) == to_fraction(a) - to_fraction(b)

    @given(rationals, rationals)
    def test_mul_matches_oracle(self, a, b):
        assert to_fraction(a * b) == to_fraction(a) * to_fraction(b)

    @given(rationals, rationals)
    def test_div_matches_oracle(self, a, b):
        if b.num == 0:
            with pytest.raises(DivisionByZero):
                a / b
        else:
            assert to_fraction(a / b) == to_fraction(a) / to_fraction(b)

    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Rational(0) == a
        assert a * Rational(1) == a
        assert a + (-a) == Rational(0)
        if a.num != 0:
            assert a * (Rational(1) / a) == Rational(1)


class TestCmp:
    def test_eq_after_canonicalization(self):
        assert rat_cmp(Rational(1, 3), Rational(2, 6)) is Cmp.EQ

    def test_sign_dominates(self):
        assert rat_cmp(Rational(-5), Rational(1, 100)) is Cmp.LT

    def test_cross_multiply(self):
        # 7/3 vs 9/4: 28 vs 27
        assert rat_cmp(Rational(7, 3), Rational(9, 4)) is Cmp.GT

    @given(rationals, rationals)
    def test_cmp_matches_subtraction_sign(self, a, b):
        d = to_fraction(a) - to_fraction(b)
        expected = Cmp.LT if d < 0 else Cmp.GT if d > 0 else Cmp.EQ
        assert rat_cmp(a, b) is expected

    @given(rationals, rationals, rationals)
    def test_transitive(self, a, b, c):
        if rat_cmp(a, b) is Cmp.LT and rat_cmp(b, c) is Cmp.LT:
            assert rat_cmp(a, c) is Cmp.LT


class TestDecimal:
    def test_one_third(self):
        assert rat_decimal(Rational(1, 3), 5) == "0.33333"

    def test_terminating(self):
        assert rat_decimal(Rational(-7, 4), 2) == "-1.75"

    def test_integer_no_point(self):
        assert rat_decimal(Rational(2), 0) == "2"

    def test_truncates_toward_zero(self):
        assert rat_decimal(Rational(-1, 3), 3) == "-0.333"
        assert rat_decimal(Rational(2, 3), 3) == "0.666"

    @given(rationals, st.integers(min_value=0, max_value=12))
    def test_truncation_error_bound(self, a, digits):
        printed = rat_decimal(a, digits)
        err = abs(to_fraction(a) - Fraction(printed))
        assert err < Fraction(1, 10**digits)


class TestParse:
    def test_plain_integer(self):
        assert parse_rational("17") == Rational(17)

    def test_fraction_form(self):
        assert parse_rational("-22/7") == Rational(-22, 7)

    def test_decimal_form_exact(self):
        assert parse_rational("0.25") == Rational(1, 4)
        assert parse_rational("-3.140") == Rational(-157, 50)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            parse_rational("1/0")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("1/2/3")
        with pytest.raises(ValueError):
            parse_rational("a")

    @given(rationals)
    def test_roundtrip(self, r):
        assert parse_rational(str(r)) == r
