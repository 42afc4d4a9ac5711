"""Exact rational substrate, checked against the stdlib Fraction oracle."""

import copy
import functools
import math
import operator
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from streaks.core import NO, YES
from streaks.rational import (
    DivisionByZero,
    Rational,
    int_text,
    parse_rational,
    rat_arith,
    rat_cmp,
    rat_decimal,
)
from streaks.real import (
    Apartness,
    Certificate,
    derive_apartness,
    real_add,
    real_from_rational,
    real_mul_total,
    real_recip,
    real_scale,
    real_to_decimal,
)
from streaks.registry import get_streak


def to_fraction(x):
    return Fraction(x.num, x.den) if isinstance(x, Rational) else Fraction(x)


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
        with pytest.raises(DivisionByZero):
            Rational(Rational(1), Rational(0))

    def test_zero_is_false(self):
        assert not Rational(0)
        assert Rational(-1, 3)

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

    # every part the constructor reads: ints (zero and negatives), bools
    # and Rationals, whichever path they take
    parts = st.one_of(st.integers(-50, 50), st.booleans(), rationals)

    @given(parts, parts)
    @example(True, False)
    @example(Rational(1, 2), -3)
    def test_any_pair_is_the_quotient(self, a, b):
        if to_fraction(b) == 0:
            with pytest.raises(DivisionByZero):
                Rational(a, b)
            return
        r = Rational(a, b)
        assert type(r.num) is int and type(r.den) is int and r.den > 0
        assert Fraction(r.num, r.den) == to_fraction(a) / to_fraction(b)
        assert math.gcd(r.num, r.den) == 1

    @given(parts, st.sampled_from([0.5, "1", None]), st.booleans())
    def test_a_non_rational_part_raises_type_error(self, good, bad, first):
        with pytest.raises(TypeError):
            Rational(bad, good) if first else Rational(good, bad)


class TestEntryPointsKeepTheirArgument:
    """A public entry point reads a Rational argument as it is given."""

    def test_real_from_rational(self):
        r = Rational(2, 3)
        assert real_from_rational(r).refine(1)[0] is r

    def test_certificate(self):
        lo, hi = Rational(1, 3), Rational(1, 2)
        cert = Certificate(lo, hi, 1)
        assert cert.lo is lo and cert.hi is hi

    def test_apartness(self):
        b = Rational(-1, 4)
        assert Apartness(b, 1).bound is b


class TestArith:
    def test_add_example(self):
        assert rat_arith("add", Rational(1, 2), Rational(1, 3)) == Rational(5, 6)

    def test_mul_canonicalizes(self):
        assert rat_arith("mul", Rational(2, 4), Rational(2)) == Rational(1)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            rat_arith("div", Rational(1), Rational(0))

    @given(rationals, rationals)
    def test_every_operation_against_fraction(self, a, b):
        oracle = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
        if b:
            oracle["div"] = operator.truediv
        for op, fn in oracle.items():
            got = rat_arith(op, a, b)
            assert Fraction(got.num, got.den) == fn(to_fraction(a), to_fraction(b))

    def test_ints_are_read_as_rationals(self):
        assert rat_arith("sub", 1, Rational(1, 3)) == Rational(2, 3)

    @pytest.mark.parametrize("op", ["pow", "ADD", ""])
    def test_unknown_operation(self, op):
        with pytest.raises(ValueError, match="unknown operation"):
            rat_arith(op, Rational(1), Rational(2))

    def test_powers(self):
        assert Rational(2, 3) ** 2 == Rational(4, 9)
        assert Rational(2, 3) ** -2 == Rational(9, 4)
        with pytest.raises(DivisionByZero):
            Rational(0) ** -1

    @pytest.mark.parametrize("k", [0.5, -1.5, "2"])
    def test_non_integer_powers_raise(self, k):
        # int() would truncate 0.5 to 0 and -1.5 to -1
        with pytest.raises(TypeError):
            Rational(4) ** k

    def test_bool_powers_are_ints(self):
        assert Rational(2, 3) ** True == Rational(2, 3)
        assert Rational(2, 3) ** False == Rational(1)

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
        assert rat_cmp(Rational(1, 3), Rational(2, 6)) == 0

    def test_sign_dominates(self):
        assert rat_cmp(Rational(-5), Rational(1, 100)) == -1

    def test_cross_multiply(self):
        # 7/3 vs 9/4: 28 vs 27
        assert rat_cmp(Rational(7, 3), Rational(9, 4)) == 1

    @given(rationals, rationals)
    def test_cmp_matches_subtraction_sign(self, a, b):
        d = to_fraction(a) - to_fraction(b)
        assert rat_cmp(a, b) == (d > 0) - (d < 0)
        assert type(rat_cmp(a, b)) is int

    @given(rationals, rationals, rationals)
    def test_transitive(self, a, b, c):
        if rat_cmp(a, b) == -1 and rat_cmp(b, c) == -1:
            assert rat_cmp(a, c) == -1


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

    @given(st.integers(0, 30000).flatmap(lambda b: st.integers(-(2**b), 2**b)))
    def test_ints_print_past_the_int_to_str_limit(self, i):
        text = int_text(i)
        assert text == "0" or text.lstrip("-")[0] != "0"
        # read back in chunks that int() accepts
        value = 0
        for k in range(text.startswith("-"), len(text), 600):
            value = value * 10 ** len(text[k:k + 600]) + int(text[k:k + 600])
        assert (-value if text.startswith("-") else value) == i
        assert str(Rational(i)) == text

    def test_decimal_past_the_int_to_str_limit(self):
        text = rat_decimal(Rational(1, 3), 5000)
        assert text == "0." + "3" * 5000


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

    @given(
        st.integers(0, 20000).flatmap(lambda b: st.integers(-(2**b), 2**b)),
        st.integers(0, 20000).flatmap(lambda b: st.integers(1, 2**b)),
    )
    @settings(max_examples=40)
    def test_roundtrip_past_the_int_to_str_limit(self, num, den):
        r = Rational(num, den)
        assert parse_rational(str(r)) == r

    @pytest.mark.parametrize("width", [639, 640, 641, 4400])
    def test_long_digit_strings(self, width):
        digits = "0" + "7" * (width - 1)
        value = int(Decimal(digits))
        assert parse_rational(digits) == Rational(value)
        assert parse_rational("-%s/%s" % (digits, digits)) == Rational(-1)
        assert parse_rational("-3." + digits) == -(3 + Rational(value, 10**width))


def assert_canonical(r):
    assert type(r) is Rational
    assert type(r.num) is int and type(r.den) is int
    assert r.den > 0 and math.gcd(r.num, r.den) == 1


def signed_parts(bound):
    return st.integers(min_value=-bound, max_value=bound)


# parts of either sign, zero included, so both constructor paths run;
# small parts make equal values and shared numerators common
signed_rationals = st.one_of(
    st.builds(Rational, signed_parts(12), signed_parts(12).filter(bool)),
    st.builds(Rational, signed_parts(10**6), signed_parts(10**6).filter(bool)),
)
operands = st.one_of(signed_rationals, signed_parts(12), signed_parts(10**6), st.booleans())
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDER = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


class TestFastPathsAgainstFraction:
    """Rational∘Rational, Rational∘int and int∘Rational (bool included)
    agree with Fraction, and every result is canonical."""

    @given(operands, operands)
    def test_arithmetic(self, a, b):
        if not (isinstance(a, Rational) or isinstance(b, Rational)):
            b = Rational(b)
        for op in ARITHMETIC:
            if op is operator.truediv and to_fraction(b) == 0:
                with pytest.raises(DivisionByZero):
                    op(a, b)
                continue
            result = op(a, b)
            assert_canonical(result)
            assert to_fraction(result) == op(to_fraction(a), to_fraction(b))

    @given(operands, operands)
    def test_inline_results_agree_and_stay_immutable(self, a, b):
        # +, - and * build their results without the constructor
        if not (isinstance(a, Rational) or isinstance(b, Rational)):
            b = Rational(b)
        for op in (operator.add, operator.sub, operator.mul):
            result = op(a, b)
            want = op(to_fraction(a), to_fraction(b))
            assert (result.num, result.den) == (want.numerator, want.denominator)
            for name in ("num", "den", "extra"):
                with pytest.raises(AttributeError):
                    setattr(result, name, 1)
            assert to_fraction(result) == want

    @given(operands, operands)
    @example(Rational(0), 0)
    @example(0, Rational(-1, 2))
    @example(Rational(-3, 2), -1)
    @example(-2, Rational(-3, 2))
    @example(Rational(1, 2), True)
    @example(False, Rational(-1, 3))
    def test_order(self, a, b):
        # an int on either side takes `Rational`'s int branch, a bool the
        # general one, and both compare as the int they are
        if not (isinstance(a, Rational) or isinstance(b, Rational)):
            a = Rational(a)
        for op in ORDER:
            assert op(a, b) is op(to_fraction(a), to_fraction(b))

    @given(signed_rationals)
    def test_unary(self, a):
        for result in (-a, abs(a), Rational(a)):
            assert_canonical(result)
        assert to_fraction(-a) == -to_fraction(a)
        assert to_fraction(abs(a)) == abs(to_fraction(a))

    @given(signed_rationals, signed_rationals)
    def test_equal_values_hash_alike(self, a, b):
        if to_fraction(a) == to_fraction(b):
            assert hash(a) == hash(b)
        assert (a == b) is ((a.num, a.den) == (b.num, b.den))

    def test_equal_numerators_different_denominators(self):
        assert Rational(1, 2) != Rational(1, 3)
        assert Rational(-2, 3) != Rational(-2, 5)
        assert Rational(3, 4) != 3

    def test_zero_and_negative_parts(self):
        assert_canonical(Rational(0, -5))
        assert (Rational(0, -5).num, Rational(0, -5).den) == (0, 1)
        assert Rational(-3, 4) - Rational(-3, 4) == 0
        assert Rational(-3, 4) * 0 == Rational(0)
        assert (Rational(-2, 3) / Rational(-4, 9)).den == 2
        assert abs(Rational(-3, 7)) == abs(Rational(3, 7)) == Rational(3, 7)

    def test_bool_parts_become_ints(self):
        for r in (Rational(True), Rational(True, 2), Rational(3) + True, False * Rational(1, 3)):
            assert_canonical(r)

    @pytest.mark.parametrize("op", ARITHMETIC + ORDER[2:])
    def test_float_operand_raises(self, op):
        with pytest.raises(TypeError):
            op(Rational(1, 2), 0.5)
        with pytest.raises(TypeError):
            op(0.5, Rational(1, 2))

    def test_float_is_never_equal(self):
        assert (Rational(1, 2) == 0.5) is False
        assert (0.5 == Rational(1, 2)) is False
        assert Rational(1, 2) != 0.5
        assert Rational(1, 2) != "1/2"


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("value", [Rational(1, 2), Rational(-7, 3), Rational(0)])
    def test_roundtrip(self, roundtrip, value):
        again = roundtrip(value)
        assert_canonical(again)
        assert again == value and hash(again) == hash(value)
        with pytest.raises(AttributeError):
            again.num = 5

    def test_containers(self):
        values = {"a": [Rational(1, 3), Rational(-2, 5)], "b": (Rational(4),)}
        assert pickle.loads(pickle.dumps(values)) == values
        assert copy.deepcopy(values) == values


# the operators a tracer wraps from outside the library; wrapping them
# with pass-through functions must change no answer
WRAPPED_OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__", "__eq__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


def _answers():
    third = real_from_rational(Rational(1, 3))
    x = real_add(third, real_scale(Rational(-2, 7), real_from_rational(Rational(5, 3))))
    y = real_recip(x, derive_apartness(x, 64))
    z = real_mul_total(y, real_from_rational(-2))
    decimals = []
    for value in (x, y, z):
        text, certificate = real_to_decimal(value, 6, 10**5)
        decimals.append((text, certificate.line()))
    values = [
        Rational(6, -4), Rational(Rational(1, 2), 3), Rational(2, Rational(4, 3)),
        Rational(1, 2) + Rational(1, 3), 1 - Rational(5, 4), Rational(3, 4) * 2,
        Rational(-3, 4) / Rational(9, 2), 2 / Rational(3), -Rational(1, 5),
        abs(Rational(-1, 5)), Rational(2, 3) ** -2,
    ]
    order = [
        Rational(1, 3) < Rational(1, 2), Rational(1, 2) <= 1, Rational(5, 2) > 2,
        Rational(2) >= 2, Rational(2, 4) == Rational(1, 2), Rational(2) == 2,
    ]
    return [repr(v) for v in values], order, decimals


class TestWrappedOperators:
    def test_passthrough_wrappers_keep_answers(self, monkeypatch):
        expected = _answers()

        def passthrough(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return fn(*args, **kwargs)

            return wrapped

        for name in WRAPPED_OPERATORS:
            monkeypatch.setattr(Rational, name, passthrough(getattr(Rational, name)))
        assert _answers() == expected
        assert pickle.loads(pickle.dumps(Rational(3, 9))) == Rational(1, 3)


class TestIntComparands:
    def test_int_comparisons_build_no_rational(self, monkeypatch):
        nat = get_streak("nat")
        half = Rational(1, 2)
        builds = []
        init = Rational.__init__

        @functools.wraps(init)
        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Rational, "__init__", counting)
        assert nat.cmp(3, 5) == -1
        assert nat.below(half, 3, 0) is YES
        assert nat.above(3, half, 0) is NO
        assert half < 3
        assert not 3 < half
        assert builds == []

    def test_int_order_is_one_frame(self):
        # `3 < a` is int.__lt__, then the reflected Rational.__gt__: one frame
        a = Rational(-7, 3)
        ops = (operator.lt, operator.le, operator.gt, operator.ge)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for op in ops:
                op(a, 3)
                op(-3, a)
        finally:
            sys.setprofile(None)
        assert calls == ["__lt__", "__gt__", "__le__", "__ge__", "__gt__", "__lt__",
                         "__ge__", "__le__"], calls

    @pytest.mark.parametrize("n", [-(2**70) - 3, -7, -1, 0, 1, 2, 2**64, 2**64 + 1, 2**100])
    def test_whole_rational_hashes_as_its_int(self, n):
        q = Rational(n)
        assert q == n and hash(q) == hash(n)
        assert len({n, q}) == 1
        assert {n: "int"}.get(q) == "int"
        assert {q: "rational"}.get(n) == "rational"
