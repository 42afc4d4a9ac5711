"""Tests for Cauchy sequences with explicit moduli of convergence."""

import gc
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from streaks import cli
from streaks.cauchy import (
    CauchyReal,
    cs_add,
    cs_limit,
    cs_lt,
    cs_mul,
    cs_neg,
    cs_positive,
    cs_to_real,
    cs_validate,
)
from streaks.core import ApartnessUndecided, Order
from streaks.rational import Rational
from streaks.real import derive_apartness, real_from_rational, real_sub


def q(*args):
    return Rational(*args)


def harmonic():
    return CauchyReal(lambda i: q(1, i + 1), lambda n: n)


class TestValidation:
    def test_constant_passes_with_any_modulus(self):
        assert cs_validate(CauchyReal.constant(q(3, 7)), 32, 128) is None

    def test_harmonic_with_identity_modulus(self):
        assert cs_validate(harmonic(), 16, 64) is None

    def test_overconfident_modulus_rejected(self):
        # claiming instant convergence for 1/(i+1) is wrong from n = 2 on
        bad = CauchyReal(lambda i: q(1, i + 1), lambda n: 0)
        n, i, j = cs_validate(bad, 8, 64)
        assert n >= 2

    def test_modulus_is_stated_per_n(self):
        x = CauchyReal(lambda i: q(0), lambda n: 10 if n == 1 else 0)
        assert x.modulus(0) == 0
        assert x.modulus(1) == 10
        assert x.modulus(2) == 0
        assert CauchyReal(lambda i: q(0), lambda n: -5).modulus(3) == 0

    def test_modulus_memo_is_per_index(self):
        calls = []

        def stated(n):
            calls.append(n)
            return n

        x = CauchyReal(lambda i: q(1, i + 1), stated)
        assert [x.modulus(1000), x.modulus(1), x.modulus(1000)] == [1000, 1, 1000]
        assert calls == [1000, 1]

    def test_each_index_is_computed_once(self):
        calls = []

        def term(i):
            calls.append(("term", i))
            return i // 2  # an int, read as a Rational once

        def modulus(n):
            calls.append(("modulus", n))
            return n - 3  # clamped at 0

        x = CauchyReal(term, modulus)
        terms = [x.term(i) for i in (5, 2, 5, 0, 2, 9, 5)]
        moduli = [x.modulus(n) for n in (4, 1, 4, 7, 1, 3)]
        assert terms == [q(2), q(1), q(2), q(0), q(1), q(4), q(2)]
        assert all(isinstance(t, Rational) for t in terms)
        assert x.term(5) is terms[0]
        assert moduli == [1, 0, 1, 4, 0, 0]
        assert sorted(calls) == sorted(
            [("term", i) for i in (5, 2, 0, 9)] + [("modulus", n) for n in (4, 1, 7, 3)]
        )

    def test_monotone_flag_is_accepted_and_ignored(self):
        for x in (CauchyReal(lambda i: q(1, i + 1), lambda n: n, True), harmonic()):
            assert [x.term(3), x.modulus(5)] == [q(1, 4), 5]
            assert cs_validate(x, 16, 64) is None


class TestOrder:
    def test_decides_against_separated_limit(self):
        x = CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: n)
        y = CauchyReal.constant(q(3, 2))
        assert cs_lt(x, y, 64) is Order.LESS
        assert cs_lt(y, x, 64) is Order.GREATER

    def test_equal_constants_unknown(self):
        x = CauchyReal.constant(q(5, 7))
        y = CauchyReal.constant(q(5, 7))
        assert cs_lt(x, y, 64) is Order.UNKNOWN

    def test_decided_answers_survive_larger_moduli(self):
        # a pointwise-larger valid modulus never flips a decided order
        x = CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: n)
        x_slow = CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: 3 * n + 5)
        y = CauchyReal.constant(q(3, 2))
        assert cs_lt(x, y, 64) is Order.LESS
        assert cs_lt(x_slow, y, 256) is Order.LESS

    def test_budgets_are_read_as_integers(self):
        # budget 13 is the first n with n/3 + 2 < n/2; a float or a string
        # is refused, not truncated to 12 or converted to 13
        x, y = CauchyReal.constant(q(1, 3)), CauchyReal.constant(q(1, 2))
        assert cs_lt(x, y, 12) is Order.UNKNOWN
        assert cs_lt(x, y, 13) is Order.LESS
        for budget in (12.9, "13"):
            with pytest.raises(TypeError):
                cs_lt(x, y, budget)
            with pytest.raises(TypeError):
                cs_positive(y, budget)
            with pytest.raises(TypeError):
                cs_validate(x, budget, 64)
            with pytest.raises(TypeError):
                cs_validate(x, 16, budget)


class TestArithmetic:
    def test_add_cancellation(self):
        s = cs_add(harmonic(), cs_neg(harmonic()))
        assert s.term(5) == q(0)
        assert cs_validate(s, 32, 256) is None

    def test_add_doubling(self):
        s = cs_add(harmonic(), harmonic())
        assert s.term(0) == q(2)
        assert cs_validate(s, 32, 256) is None

    def test_positive_search(self):
        assert cs_positive(CauchyReal.constant(q(1)), 64) >= 1
        assert cs_positive(CauchyReal.constant(q(-1)), 64) is None
        # x - x is never certified positive
        diff = cs_add(harmonic(), cs_neg(harmonic()))
        assert cs_positive(diff, 64) is None

    def test_mul_requires_positive_factors(self):
        with pytest.raises(ApartnessUndecided, match="needs both factors certified positive"):
            cs_mul(CauchyReal.constant(q(-2)), CauchyReal.constant(q(3)))

    def test_mul_termwise_product(self):
        p = cs_mul(CauchyReal.constant(q(2)), CauchyReal.constant(q(3)))
        assert p.term(0) == q(6)
        assert cs_validate(p, 32, 256) is None

    def test_mul_converging_factors(self):
        x = CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: n)
        p = cs_mul(x, x)
        assert cs_validate(p, 32, 256) is None
        # the factors tend to 1, so the product stays below 3/2 eventually
        assert cs_lt(p, CauchyReal.constant(q(3, 2)), 256) is Order.LESS

    @given(
        a=st.builds(Rational, st.integers(1, 400), st.integers(1, 6)),
        c=st.integers(1, 40),
        b=st.builds(Rational, st.integers(1, 400), st.integers(1, 6)),
        d=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_matches_the_counting_loop(self, a, c, b, d):
        # a - c/(i+1) is within 1/m past index c*m, and its early terms
        # may be negative; the product's modulus at 1 is 2*n*max(c, d)
        x = CauchyReal(lambda i: a - q(c, i + 1), lambda m: c * m)
        y = CauchyReal(lambda i: b - q(d, i + 1), lambda m: d * m)
        assume(cs_positive(x, 64) is not None and cs_positive(y, 64) is not None)
        p = cs_mul(x, y)
        assert p.modulus(1) == 2 * _reference_bound(x, y) * max(c, d)

    def test_large_early_term_is_one_step(self):
        start = time.perf_counter()
        p = cs_mul(CauchyReal.constant(q(10**6)), CauchyReal.constant(q(1)))
        assert time.perf_counter() - start < 1.0
        assert p.term(0) == q(10**6)


def _reference_bound(x, y, budget=64):
    """cs_mul's common bound before it was a closed form: count up from
    the positivity witnesses until it passes both early terms plus 1."""
    bound = max(cs_positive(x, budget), cs_positive(y, budget))
    for candidate in (x.term(x.modulus(1)), y.term(y.modulus(1))):
        while not Rational(candidate) + Rational(1) < Rational(bound):
            bound += 1
    return bound


class TestLimit:
    def test_diagonal_of_constant_members(self):
        fam = lambda n: CauchyReal.constant(q(1) - q(1, n + 1))
        lim = cs_limit(fam, lambda n: n)
        assert lim.term(3) == q(3, 4)
        assert cs_lt(lim, CauchyReal.constant(q(1)), 64) is Order.UNKNOWN
        assert cs_lt(lim, CauchyReal.constant(q(9, 10)), 64) is Order.GREATER

    def test_limit_of_constant_family_is_the_member(self):
        x = harmonic()
        lim = cs_limit(lambda n: x, lambda n: 0)
        assert cs_lt(lim, x, 64) is Order.UNKNOWN
        assert cs_validate(lim, 32, 256) is None

    def test_validates(self):
        fam = lambda n: CauchyReal.constant(q(2) - q(1, 2 ** n))
        lim = cs_limit(fam, lambda n: max(n.bit_length() + 1, 1))
        assert cs_validate(lim, 32, 256) is None

    def test_decimal_reads_outer_modulus_per_precision(self):
        from streaks.real import real_to_decimal

        calls = [0]

        def outer(n):
            calls[0] += 1
            return max(n.bit_length() + 1, 1)

        fam = lambda n: CauchyReal.constant(q(2) - q(1, 2 ** n))
        lim = cs_limit(fam, outer)
        text, _ = real_to_decimal(cs_to_real(lim), 6, 1 << 22)
        assert text == "1.999999"
        # one outer query per refined precision, not one per k <= n
        assert calls[0] <= 200


class TestConversion:
    def test_anchor_interval(self):
        x = CauchyReal(lambda i: q(1, 11), lambda n: 0)
        r = cs_to_real(x)
        assert r.refine(10) == (q(1, 11) - q(1, 10), q(1, 11) + q(1, 10))

    def test_limit_value_comparable(self):
        from streaks.real import real_cmp_rat

        r = cs_to_real(harmonic())
        assert real_cmp_rat(r, q(1, 4), 64) is Order.LESS
        assert real_cmp_rat(r, q(-1, 4), 64) is Order.GREATER

    def test_width_contract(self):
        r = cs_to_real(harmonic())
        for n in range(1, 65):
            lo, hi = r.refine(n)
            assert hi - lo <= q(2, n)

    def test_stated_modulus_valid_per_n_suffices(self):
        from streaks.real import real_cmp_rat

        # valid for 1/(i+1) at every n, but not monotone in n
        stated = lambda n: n if n % 2 else 3 * n
        x = CauchyReal(lambda i: q(1, i + 1), stated)
        for n in range(1, 65):
            anchor = x.term(stated(n))
            assert cs_to_real(x).refine(n) == (anchor - q(1, n), anchor + q(1, n))
        r = cs_to_real(x)
        for n in range(1, 65):
            lo, hi = r.refine(n)
            assert hi - lo <= q(2, n)
            assert lo <= q(0) <= hi
        for bound, decided in ((q(1, 4), Order.LESS), (q(-1, 4), Order.GREATER)):
            answers = [real_cmp_rat(cs_to_real(x), bound, b) for b in range(1, 65)]
            first = answers.index(decided)
            assert set(answers[:first]) == {Order.UNKNOWN}
            assert set(answers[first:]) == {decided}
        moduli = [x.modulus(n) for n in range(65)]
        assert moduli == [stated(n) for n in range(65)]

    def test_stated_modulus_per_n_serves_order_and_positivity(self):
        stated = lambda n: n if n % 2 else 3 * n
        x = CauchyReal(lambda i: q(1, i + 1), stated)
        assert cs_validate(x, 32, 256) is None
        quarter = CauchyReal.constant(q(1, 4))
        for left, right, decided in ((x, quarter, Order.LESS), (quarter, x, Order.GREATER)):
            answers = [cs_lt(left, right, b) for b in range(1, 65)]
            first = answers.index(decided)
            assert set(answers[:first]) == {Order.UNKNOWN}
            assert set(answers[first:]) == {decided}
        above_one = CauchyReal(lambda i: q(1) + q(1, i + 1), stated)
        assert cs_positive(above_one, 64) is not None


def _memoized_constant(value):
    """A constant sequence built the general way, through the per-index memo."""
    return CauchyReal(lambda i: value, lambda n: 0)


small_rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))


class TestTermsAndConstants:
    def test_int_terms_become_rationals(self):
        x = CauchyReal(lambda i: i - 2, lambda n: 0)
        terms = [x.term(i) for i in range(5)]
        assert terms == [q(-2), q(-1), q(0), q(1), q(2)]
        assert all(type(t) is Rational for t in terms)

    @pytest.mark.parametrize("value", [1, q(2, 3)])
    def test_constant_answers_its_value_and_modulus_zero(self, value):
        x = CauchyReal.constant(value)
        for i in (0, 1, 2, 63, 10**3, 10**6 - 1, 10**6):
            assert x.term(i) == value and type(x.term(i)) is Rational
            assert x.modulus(i) == 0

    def test_geometric_partial_sums(self):
        for i in range(201):
            member = cli._geometric_family(i)
            for index in (0, i):
                term = member.term(index)
                assert Fraction(term.num, term.den) == 2 - Fraction(1, 2**i)
        # geom2 anchors precision 2^(i-1) at term i, the midpoint of a
        # fresh node's interval
        for i in range(1, 201):
            lo, hi = cli.CONSTANTS["geom2"]().refine(1 << (i - 1))
            anchor = (lo + hi) / 2
            assert Fraction(anchor.num, anchor.den) == 2 - Fraction(1, 2**i)
            assert hi - lo == q(2, 1 << (i - 1))

    @given(a=small_rationals, b=small_rationals, budget=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_order_and_validation_match_the_memoized_constant(self, a, b, budget):
        x, y = CauchyReal.constant(a), CauchyReal.constant(b)
        mx, my = _memoized_constant(a), _memoized_constant(b)
        assert cs_lt(x, y, budget) is cs_lt(mx, my, budget)
        assert cs_lt(x, my, budget) is cs_lt(mx, y, budget)
        assert cs_positive(x, budget) == cs_positive(mx, budget)
        assert cs_validate(x, 16, 64) == cs_validate(mx, 16, 64)


anchors = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Rational, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
)


class TestLeafKernel:
    """The raw refinement of a Cauchy leaf and the per-index memos."""

    @given(anchor=anchors, n=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_raw_interval_is_the_anchor_plus_minus_one_over_n(self, anchor, n):
        for x in (CauchyReal.constant(anchor), _memoized_constant(anchor)):
            lo, hi = cs_to_real(x).refine(n)
            a = Fraction(anchor.num, anchor.den) if type(anchor) is Rational else Fraction(anchor)
            for end, want in ((lo, a - Fraction(1, n)), (hi, a + Fraction(1, n))):
                assert type(end) is Rational
                assert (end.num, end.den) == (want.numerator, want.denominator)

    @given(stated=st.lists(st.integers(-50, 50), min_size=1, max_size=20),
           asks=st.lists(st.integers(0, 19), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_memos_ask_once_per_index_and_coerce(self, stated, asks):
        term_calls, modulus_calls = [], []

        def term(i):
            term_calls.append(i)
            return stated[i % len(stated)]  # an int, coerced to a Rational

        def modulus(n):
            modulus_calls.append(n)
            return stated[n % len(stated)]  # negative ones clamp to 0

        x = CauchyReal(term, modulus)
        for i in asks:
            t, m = x.term(i), x.modulus(i)
            assert type(t) is Rational and t == stated[i % len(stated)]
            assert m == max(stated[i % len(stated)], 0)
        assert sorted(term_calls) == sorted(set(asks))
        assert sorted(modulus_calls) == sorted(set(asks))


class TestLeafWork:
    """Python frames that `derive_apartness` enters on two exact-zero
    differences of Cauchy leaves, run to their budgets, counted as
    `sys.setprofile` call events with garbage collection off (see
    `TestProbeWork` in test_core.py).  When the memos were closures
    around a dict, a leaf's raw refine built anchor -+ 1/n with three
    Rational operations, `refine` coerced and intersected through
    Rational methods and the arithmetic results went through a
    `_canonical` frame, the two ladders entered 881 and 715 frames."""

    @pytest.mark.parametrize("make, budget, frames", [
        (lambda: real_sub(cs_to_real(cs_limit(*cli.FAMILIES["geom"])),
                          cli.CONSTANTS["geom2"]()), 2**14, 362),
        (lambda: real_sub(cli.CONSTANTS["geom2"](), real_from_rational(2)), 2**41, 255),
    ], ids=["lim(geom) - geom2", "geom2 - 2"])
    def test_frames_per_ladder(self, make, budget, frames):
        x = make()
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        with pytest.raises(ApartnessUndecided):
            gc.disable()
            sys.setprofile(profile)
            try:
                derive_apartness(x, budget)
            finally:
                sys.setprofile(None)
                gc.enable()
        assert calls[0] <= frames, calls[0]
