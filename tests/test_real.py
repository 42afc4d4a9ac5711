"""Tests for interval-refinement reals and their certified operations."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from streaks.cauchy import CauchyReal, cs_to_real
from streaks.core import BudgetExceeded, Element, Order, Sampler, axiom_suite, locate
from streaks.rational import DivisionByZero, Rational
from streaks.real import (
    Apartness,
    ApartnessUndecided,
    Certificate,
    RefinedReal,
    decimal_precision,
    derive_apartness,
    real_abs,
    real_add,
    real_cmp_rat,
    real_dist,
    real_embed,
    real_from_rational,
    real_inf,
    real_mul_pos,
    real_mul_total,
    real_neg,
    real_recip,
    real_scale,
    real_sub,
    real_sup,
    real_to_decimal,
)
from streaks.registry import get_streak


def q(*args):
    return Rational(*args)


def harmonic_real():
    return cs_to_real(CauchyReal(lambda i: q(1, i + 1), lambda n: n))


def overlap(x, y, n):
    xlo, xhi = x.refine(n)
    ylo, yhi = y.refine(n)
    return max(xlo, ylo) <= min(xhi, yhi)


def _shifted_product(x, y, m, n):
    """The paper's ring-from-positives reduction, the reference that
    real_mul_total is checked against here and in test_acceptance:
    x*y = (x+m)(y+n) - n*x - m*y - m*n for naturals m, n making the
    shifted factors positive.  Only the
    certified-positive product goes through real_mul_total; the correction
    term is built from real_scale, so it never does."""
    xs = real_add(x, real_from_rational(m))
    ys = real_add(y, real_from_rational(n))
    prod = real_mul_pos(xs, ys, derive_apartness(xs, 4), derive_apartness(ys, 4))
    correction = real_add(real_add(real_scale(n, x), real_scale(m, y)),
                          real_from_rational(m * n))
    return real_sub(prod, correction)


small_rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 15))


class TestFromRational:
    def test_degenerate_everywhere(self):
        assert real_from_rational(q(0)).refine(7) == (q(0), q(0))
        assert real_from_rational(q(22, 7)).refine(1) == (q(22, 7), q(22, 7))


class TestAdditive:
    def test_rational_sum_degenerate(self):
        s = real_add(real_from_rational(q(1, 2)), real_from_rational(q(1, 3)))
        assert s.refine(4) == (q(5, 6), q(5, 6))

    def test_symmetric_cancellation(self):
        x = harmonic_real()
        s = real_add(x, real_neg(x))
        for n in (1, 4, 16, 64):
            lo, hi = s.refine(n)
            assert lo <= q(0) <= hi
            assert hi - lo <= q(2, n)

    def test_sub_self_contains_zero(self):
        d = real_sub(real_from_rational(q(1)), real_from_rational(q(1)))
        lo, hi = d.refine(9)
        assert lo <= q(0) <= hi


class TestPositiveMultiplication:
    def test_rational_products(self):
        two, three = real_from_rational(q(2)), real_from_rational(q(3))
        cert = lambda x: derive_apartness(x, 8)
        assert real_mul_pos(two, three, cert(two), cert(three)).refine(5) == (q(6), q(6))
        x = real_from_rational(q(3, 2))
        assert real_mul_pos(x, x, cert(x), cert(x)).refine(3) == (q(9, 4), q(9, 4))

    def test_containment_and_width(self):
        x = cs_to_real(CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: n))
        y = real_from_rational(q(2))
        p = real_mul_pos(x, y, derive_apartness(x, 8), derive_apartness(y, 8))
        for n in (1, 3, 9, 27, 64):
            lo, hi = p.refine(n)
            assert lo <= q(2) <= hi
            assert hi - lo <= q(2, n)

    def test_invalid_certificate_rejected(self):
        x = real_from_rational(q(2))
        bogus = Apartness(q(5), 1)  # claims x > 5
        with pytest.raises(ValueError, match="needs valid positivity certificates"):
            real_mul_pos(x, x, bogus, derive_apartness(x, 8))
        y = real_from_rational(q(-2))
        negative = derive_apartness(y, 8)  # valid, but not positive
        assert negative.bound < 0 and negative.check(y)
        with pytest.raises(ValueError, match="needs valid positivity certificates"):
            real_mul_pos(y, y, negative, negative)

    def test_streak_product_of_a_tiny_positive_needs_no_search(self):
        # no apartness search runs, so no search budget can fail it
        x = cs_to_real(CauchyReal.constant(q(1, 10**6)))
        lo, hi = get_streak("real").mul_pos(x, x).refine(10**7)
        assert lo <= q(1, 10**12) <= hi
        assert hi - lo <= q(2, 10**7)


class TestTotalMultiplication:
    def test_sign_cases(self):
        assert real_mul_total(
            real_from_rational(q(-2)), real_from_rational(q(3))
        ).refine(4) == (q(-6), q(-6))
        assert real_mul_total(
            real_from_rational(q(-1)), real_from_rational(q(-1))
        ).refine(4) == (q(1), q(1))

    def test_zero_absorbs_up_to_width(self):
        p = real_mul_total(real_from_rational(q(0)), harmonic_real())
        for n in (1, 8, 32):
            lo, hi = p.refine(n)
            assert lo <= q(0) <= hi

    def test_shift_choice_does_not_matter(self):
        x, y = real_from_rational(q(-3, 2)), real_from_rational(q(5, 3))
        a = _shifted_product(x, y, 2, 1)
        b = _shifted_product(x, y, 3, 3)
        for n in (1, 4, 16, 64):
            assert overlap(a, b, n)
        assert real_cmp_rat(real_sub(a, b), q(0), 64) is Order.UNKNOWN


class TestLattice:
    def test_inf_sup_of_rationals(self):
        one, two = real_from_rational(q(1)), real_from_rational(q(2))
        assert real_inf(one, two).refine(3) == (q(1), q(1))
        assert real_sup(one, two).refine(3) == (q(2), q(2))

    def test_sup_idempotent_overlaps(self):
        x = harmonic_real()
        s = real_sup(x, x)
        for n in (1, 8, 32):
            assert overlap(s, x, n)

    def test_inf_against_converging_sequence(self):
        z = real_inf(real_from_rational(q(1, 3)), harmonic_real())
        assert real_cmp_rat(z, q(1, 4), 64) is Order.LESS


class TestAbsDist:
    def test_rational_abs(self):
        assert real_abs(real_from_rational(q(-5, 2))).refine(4) == (q(5, 2), q(5, 2))

    def test_near_zero_band(self):
        x = harmonic_real()
        band = real_abs(real_sub(x, x))
        for n in (1, 8, 32):
            lo, hi = band.refine(n)
            assert q(0) <= hi and lo <= q(2, n)

    def test_multiplicativity_never_apart(self):
        left = real_abs(real_mul_total(real_from_rational(q(3)), real_from_rational(q(-2))))
        right = real_mul_total(
            real_abs(real_from_rational(q(3))), real_abs(real_from_rational(q(-2)))
        )
        assert real_cmp_rat(real_sub(left, right), q(0), 64) is Order.UNKNOWN

    def test_dist(self):
        assert real_dist(real_from_rational(q(1)), real_from_rational(q(4))).refine(3) == (
            q(3),
            q(3),
        )
        x, y = harmonic_real(), real_from_rational(q(1, 5))
        assert overlap(real_dist(x, y), real_dist(y, x), 16)


def _detour_recip(x, cert):
    """The reference reciprocal: a negative x goes through real_neg, the
    positive case and real_neg again, and the positive case clamps its
    lower endpoint to the bound."""
    if not cert.check(x):
        raise ValueError("certificate does not re-verify")
    if cert.bound < 0:
        flipped = Apartness(-cert.bound, cert.precision)
        return real_neg(_detour_recip(real_neg(x), flipped))
    beta = cert.bound

    def raw(n):
        lo, hi = x.refine(max(n * beta.den**2 // beta.num**2 + 1, cert.precision))
        return q(1) / hi, q(1) / max(lo, beta)

    return RefinedReal(raw)


@pytest.fixture
def raw_counts(monkeypatch):
    """Counts the RefinedReal nodes built and the raw refinements they run."""
    counts = {"nodes": 0, "raw": 0}
    init = RefinedReal.__init__

    def counting_init(self, raw):
        counts["nodes"] += 1

        def counted(n):
            counts["raw"] += 1
            return raw(n)

        init(self, counted)

    monkeypatch.setattr(RefinedReal, "__init__", counting_init)
    return counts


class TestReciprocal:
    def test_rational_reciprocal(self):
        two = real_from_rational(q(2))
        r = real_recip(two, derive_apartness(two, 8))
        assert r.refine(6) == (q(1, 2), q(1, 2))

    def test_involution_overlaps(self):
        four = real_from_rational(q(4))
        once = real_recip(four, derive_apartness(four, 8))
        twice = real_recip(once, derive_apartness(once, 8))
        for n in (1, 8, 32):
            assert overlap(twice, four, n)

    def test_negative_operand(self):
        x = real_from_rational(q(-1, 2))
        r = real_recip(x, Apartness(q(-1, 4), 1))
        assert r.refine(8) == (q(-2), q(-2))

    def test_stale_certificate_rejected(self):
        x = real_from_rational(q(1, 8))
        with pytest.raises(ValueError, match="certificate does not re-verify"):
            real_recip(x, Apartness(q(1), 1))

    def test_bound_is_nonzero_and_names_the_side(self):
        with pytest.raises(ValueError, match="bound must be nonzero"):
            Apartness(q(0), 1)
        x = real_from_rational(q(-1, 2))
        assert Apartness(q(-1, 4), 1).check(x)
        assert not Apartness(q(1, 4), 1).check(x)
        assert derive_apartness(x, 8).bound == q(-1, 4)

    def test_exact_zero_divides_by_zero(self):
        # the point 0 is no budget failure: no precision could separate it
        for budget in (1, 64, 10**5000):
            with pytest.raises(DivisionByZero, match="^division by zero$"):
                derive_apartness(real_from_rational(q(0)), budget)

    def test_undecided_message_prints_a_budget_past_the_int_to_str_limit(self):
        # (-eps, eps) meets every precision up to 10^6000, so one
        # refinement ends the search
        with pytest.raises(ApartnessUndecided, match=r"within budget 10{5000}$"):
            derive_apartness(_near_zero(), 10**5000)

    def test_power_of_two_budgets_print_as_powers(self):
        # every default cap past 10^7 is a power of two, so the message
        # stays short however many digits were asked
        with pytest.raises(ApartnessUndecided, match=r"within budget 2\^3323$"):
            derive_apartness(_near_zero(), 1 << 3323)
        third = RefinedReal(lambda n: (q(1, 3) - q(1, n), q(1, 3) + q(1, n)))
        with pytest.raises(BudgetExceeded, match=r"at precision 2\^10$"):
            real_to_decimal(third, 8, 1 << 10)


def _near_zero():
    """A real whose every raw answer is (-eps, eps), eps = 10^-6000."""
    eps = q(1, 10**6000)
    return RefinedReal(lambda n: (-eps, eps))


class TestComparison:
    def test_equality_never_decided(self):
        x = real_from_rational(q(1, 3))
        assert real_cmp_rat(x, q(1, 3), 256) is Order.UNKNOWN

    def test_strict_gap_decided(self):
        x = real_from_rational(q(1, 3))
        assert real_cmp_rat(x, q(1, 2), 64) is Order.LESS
        y = cs_to_real(CauchyReal(lambda i: q(1) + q(1, i + 1), lambda n: n))
        assert real_cmp_rat(y, q(2), 16) is Order.LESS


class TestEmbedding:
    def test_rational_element(self):
        rat = get_streak("rat")
        r = real_embed(Element(rat, q(5, 3)), 1 << 12)
        assert r.refine(3) == (q(4, 3), q(2))

    def test_zero(self):
        rat = get_streak("rat")
        r = real_embed(Element(rat, q(0)), 1 << 12)
        for n in (1, 5, 25):
            lo, hi = r.refine(n)
            assert lo <= q(0) <= hi

    def test_difference_pair_matches_rational(self):
        from streaks.reflections import FormalDifference

        ring = get_streak("ring:rat")
        r = real_embed(Element(ring, FormalDifference(q(2), q(5))), 1 << 12)
        direct = real_from_rational(q(-3))
        for n in (1, 8, 32):
            assert overlap(r, direct, n)
        assert real_cmp_rat(real_sub(r, direct), q(0), 64) is Order.UNKNOWN


class TestDecimal:
    def test_third(self):
        text, cert = real_to_decimal(real_from_rational(q(1, 3)), 3, 1 << 20)
        assert text == "0.333"
        assert cert.hi - cert.lo <= q(1, 1000)

    def test_exact_integer(self):
        text, _ = real_to_decimal(real_from_rational(q(2)), 5, 1 << 20)
        assert text == "2.00000"

    def test_geometric_series(self):
        geo = cs_to_real(
            CauchyReal(
                lambda i: q(2) - q(1, 2 ** i),
                lambda n: max(n.bit_length(), 1),
                monotone=True,
            )
        )
        text, _ = real_to_decimal(geo, 4, 1 << 22)
        assert text in ("1.9999", "2.0000")

    def test_zero_digits(self):
        text, cert = real_to_decimal(real_from_rational(q(7, 3)), 0, 1 << 20)
        assert text == "2"
        assert cert.hi - cert.lo <= q(1)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budgets_below_one_ask_precision_one(self, budget):
        # as at budget 1: an exact value prints, any other value is too wide
        text, cert = real_to_decimal(real_from_rational(q(1, 3)), 2, budget)
        assert (text, cert.precision) == ("0.33", 1)
        with pytest.raises(BudgetExceeded, match=r"^width 2 still above 1/100 at precision 2\^0$"):
            real_to_decimal(geom2(), 2, budget)

    def test_negative_digits_raise_value_error(self):
        from streaks.rational import rat_decimal

        calls = (
            lambda: rat_decimal(q(1, 3), -1),
            lambda: real_to_decimal(real_from_rational(q(1, 3)), -1, 64),
            lambda: decimal_precision(-1),
        )
        for call in calls:
            with pytest.raises(ValueError, match="digits must be non-negative"):
                call()

    def test_certificate_line_format(self):
        cert = Certificate(q(1, 3), q(2, 3), 12)
        assert cert.line() == "interval lo=1/3 hi=2/3 precision=12"

    def test_certificate_line_past_the_int_to_str_limit(self):
        big = 2**20000  # 6,021 decimal digits
        line = Certificate(q(-1, big), q(1, big), big).line()
        digits = line.rsplit("=", 1)[1]
        assert len(digits) == 6021 and digits.startswith("3980") and digits.endswith("9376")
        assert line.startswith("interval lo=-1/3980")

    @pytest.mark.parametrize("n", [2.9, "2"])
    @pytest.mark.parametrize("site", [
        "rat_decimal", "real_to_decimal digits", "real_to_decimal budget",
        "decimal_precision", "real_cmp_rat", "derive_apartness", "Apartness",
        "Certificate", "EvalConfig digits", "EvalConfig budget",
    ])
    def test_a_non_integer_count_raises(self, site, n):
        # int() would read 2.9 and "2" as 2: rat_decimal printed 0.33
        from streaks.cli import EvalConfig
        from streaks.rational import rat_decimal

        third = real_from_rational(q(1, 3))
        call = {
            "rat_decimal": lambda: rat_decimal(q(1, 3), n),
            "real_to_decimal digits": lambda: real_to_decimal(third, n, 64),
            "real_to_decimal budget": lambda: real_to_decimal(third, 2, n),
            "decimal_precision": lambda: decimal_precision(n),
            "real_cmp_rat": lambda: real_cmp_rat(third, q(0), n),
            "derive_apartness": lambda: derive_apartness(third, n),
            "Apartness": lambda: Apartness(1, n),
            "Certificate": lambda: Certificate(0, 1, n),
            "EvalConfig digits": lambda: EvalConfig(n),
            "EvalConfig budget": lambda: EvalConfig(2, n),
        }[site]
        with pytest.raises(TypeError):
            call()


class TestInvariants:
    @given(a=small_rationals, b=small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_add_width_and_nesting(self, a, b):
        s = real_add(real_from_rational(a), real_from_rational(b))
        prev = None
        for n in range(1, 33):
            lo, hi = s.refine(n)
            assert lo <= a + b <= hi
            assert hi - lo <= q(2, n)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)

    def test_streak_handle_laws(self):
        report = axiom_suite(get_streak("real"), Sampler(11), 40, budget=24)
        assert report.passed, report.summary()


CENTRE = q(1, 3)


@st.composite
def raw_tables(draw, top=16, steps=8):
    """For n in 1..top an interval around CENTRE of width at most 2/n;
    the intervals need not be nested."""
    table = {}
    for n in range(1, top + 1):
        below = draw(st.integers(0, steps))
        above = draw(st.integers(0, steps - below))
        table[n] = (CENTRE - q(2 * below, n * steps), CENTRE + q(2 * above, n * steps))
    return table


class TestRunningInterval:
    @given(table=raw_tables(), queries=st.lists(st.integers(1, 16), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_raw_runs_only_when_the_running_width_exceeds_2_over_n(self, table, queries):
        calls = []

        def raw(n):
            calls.append(n)
            return table[n]

        x = RefinedReal(raw)
        prev, asked = None, set()
        for n in queries:
            before = len(calls)
            lo, hi = x.refine(n)
            ran = calls[before:] == [n]
            assert ran or len(calls) == before
            assert ran == (prev is None or prev[1] - prev[0] > q(2, n))
            assert not (ran and n in asked)
            assert lo <= CENTRE <= hi and hi - lo <= q(2, n)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
                assert ran or (lo, hi) == prev
            prev = (lo, hi)
            asked.add(n)


def _step_by_one(x, bound, budget):
    """The loop real_cmp_rat must match: ask every precision up to budget."""
    for n in range(1, budget + 1):
        lo, hi = x.refine(n)
        if hi < bound:
            return Order.LESS
        if bound < lo:
            return Order.GREATER
    return Order.UNKNOWN


def _doubling(x, budget):
    """The loop derive_apartness must match: ask every power of two up to
    budget; the point 0 gives DivisionByZero, an undecided search None."""
    n = 1
    while n <= max(budget, 1):
        lo, hi = x.refine(n)
        if 0 < lo:
            return Apartness(lo / q(2), n)
        if hi < 0:
            return Apartness(hi / q(2), n)
        if lo == hi == 0:
            return DivisionByZero
        n *= 2
    return None


def _table_real(table, shift, calls):
    def raw(n):
        calls.append(n)
        lo, hi = table[n]
        return lo - shift, hi - shift

    return RefinedReal(raw)


class TestSkippedPrecisions:
    """real_cmp_rat and derive_apartness skip the asks the running
    interval already meets; the raw calls and answers stay those of
    asking every precision."""

    def test_an_exact_value_is_refined_once(self, monkeypatch):
        calls = []
        refine = RefinedReal.refine

        def counting(self, n):
            calls.append(n)
            return refine(self, n)

        monkeypatch.setattr(RefinedReal, "refine", counting)
        zero = real_from_rational(q(0))
        assert real_cmp_rat(zero, q(0), 10**6) is Order.UNKNOWN
        assert calls == [1]
        with pytest.raises(DivisionByZero):
            derive_apartness(zero, 10**6)
        assert calls == [1, 1]

    @given(
        table=raw_tables(),
        offset=st.integers(-12, 12),
        budget=st.integers(1, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_comparison_matches_stepping_by_one(self, table, offset, budget):
        calls, reference_calls = [], []
        x = _table_real(table, q(0), calls)
        reference = _table_real(table, q(0), reference_calls)
        bound = CENTRE + q(offset, 48)
        assert real_cmp_rat(x, bound, budget) is _step_by_one(reference, bound, budget)
        assert calls == reference_calls

    @given(
        table=raw_tables(),
        offset=st.integers(-12, 12),
        budget=st.integers(1, 16),
    )
    # the point 0 from the first ask on
    @example(table={n: (CENTRE, CENTRE) for n in range(1, 17)}, offset=0, budget=16)
    @settings(max_examples=200, deadline=None)
    def test_apartness_matches_doubling(self, table, offset, budget):
        calls, reference_calls = [], []
        shift = CENTRE + q(offset, 48)
        x = _table_real(table, shift, calls)
        expected = _doubling(_table_real(table, shift, reference_calls), budget)
        try:
            cert = derive_apartness(x, budget)
        except ApartnessUndecided:
            cert = None
        except DivisionByZero:
            cert = DivisionByZero
        assert repr(cert) == repr(expected)
        assert calls == reference_calls


def geom2():
    """The geometric series summing to 2, as the CLI builds it."""
    return cs_to_real(
        CauchyReal(lambda i: q(2) - q(1, 2**i), lambda n: max(n.bit_length(), 1))
    )


@st.composite
def rational_geom2_trees(draw, depth=3):
    """A real built from rational and geom2 leaves by total operations,
    with its exact value as a Fraction."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return geom2(), Fraction(2)
        a = draw(small_rationals)
        return real_from_rational(a), Fraction(a.num, a.den)
    op = draw(st.sampled_from(["add", "sub", "mul", "min", "max", "neg", "abs"]))
    x, xv = draw(rational_geom2_trees(depth=depth - 1))
    if op == "neg":
        return real_neg(x), -xv
    if op == "abs":
        return real_abs(x), abs(xv)
    y, yv = draw(rational_geom2_trees(depth=depth - 1))
    if op == "add":
        return real_add(x, y), xv + yv
    if op == "sub":
        return real_sub(x, y), xv - yv
    if op == "mul":
        return real_mul_total(x, y), xv * yv
    if op == "min":
        return real_inf(x, y), min(xv, yv)
    return real_sup(x, y), max(xv, yv)


class TestDecimalPrecision:
    @given(
        tree=rational_geom2_trees(),
        digits=st.integers(0, 12),
        extra=st.integers(0, 1 << 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_certificate_contains_the_value_within_the_width(self, tree, digits, extra):
        x, value = tree
        # any budget at or above the precision asked succeeds
        _, cert = real_to_decimal(x, digits, decimal_precision(digits) + extra)
        lo = Fraction(cert.lo.num, cert.lo.den)
        hi = Fraction(cert.hi.num, cert.hi.den)
        assert lo <= value <= hi
        assert hi - lo <= Fraction(1, 10**digits)
        assert cert.precision in (1, decimal_precision(digits))

    def test_precision_is_the_smallest_power_of_two_meeting_the_width(self):
        for digits in range(40):
            p = decimal_precision(digits)
            assert p & (p - 1) == 0
            assert q(2, p) <= q(1, 10**digits) < q(4, p)

    def test_raw_refines_per_node_do_not_grow_with_digits(self, raw_counts):
        for k in range(2, 9):
            per_node = []
            for digits in (6, 30):
                raw_counts.update(nodes=0, raw=0)
                x = geom2()
                for _ in range(k - 1):
                    x = real_mul_total(x, geom2())
                real_to_decimal(x, digits, decimal_precision(digits))
                per_node.append(Fraction(raw_counts["raw"], raw_counts["nodes"]))
                # k leaves and one node per product
                assert raw_counts["nodes"] == 2 * k - 1
            assert per_node[0] == per_node[1], (k, per_node)


def _smallest_positive_shift(x):
    """The smallest natural m with 0 < lo + m, lo the precision-1 lower endpoint."""
    lo = x.refine(1)[0]
    return max(0, -lo.num // lo.den + 1)


class TestEndpointProduct:
    @given(a=rational_geom2_trees(), b=rational_geom2_trees(), extra=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_shift_formula(self, a, b, extra):
        (x, xv), (y, yv) = a, b
        product = real_mul_total(x, y)
        m, n = _smallest_positive_shift(x), _smallest_positive_shift(y)
        for shifts in ((m, n), (m + extra, n + 2 * extra)):
            reference = _shifted_product(x, y, *shifts)
            for p in (1, 4, 16, 64):
                assert overlap(product, reference, p)
                lo, hi = product.refine(p)
                assert Fraction(lo.num, lo.den) <= xv * yv <= Fraction(hi.num, hi.den)
                assert hi - lo <= q(2, p)
            assert real_cmp_rat(real_sub(product, reference), q(0), 64) is Order.UNKNOWN


class TestOneNodeReciprocal:
    @given(tree=rational_geom2_trees())
    @settings(max_examples=60, deadline=None)
    def test_one_node_matches_negate_invert_negate(self, tree):
        x, value = real_neg(tree[0]), -tree[1]
        assume(value != 0)
        try:
            cert = derive_apartness(x, 64)
        except ApartnessUndecided:
            assume(False)
        one_node = real_recip(x, cert)
        reference = _detour_recip(x, cert)
        for n in (1, 4, 16, 64):
            lo, hi = one_node.refine(n)
            assert (lo, hi) == reference.refine(n)
            assert Fraction(lo.num, lo.den) <= 1 / value <= Fraction(hi.num, hi.den)
            assert hi - lo <= q(2, n)

    def test_one_node_for_either_sign(self, raw_counts):
        for v in (q(2), q(-2), q(1, 3), q(-1, 3)):
            x = real_from_rational(v)
            cert = derive_apartness(x, 8)
            raw_counts.update(nodes=0)
            r = real_recip(x, cert)
            assert raw_counts["nodes"] == 1
            assert r.refine(16) == (1 / v, 1 / v)


class _MaxMinReal:
    """refine's bookkeeping the long way, the reference for RefinedReal:
    intersect by max and min, then read 2/width off a width Rational."""

    def __init__(self, raw):
        self._raw, self._current, self._meets = raw, None, 0

    def refine(self, n):
        if 0 < n <= self._meets:
            return self._current
        lo, hi = (Rational(end) for end in self._raw(n))
        if self._current is not None:
            lo, hi = max(lo, self._current[0]), min(hi, self._current[1])
        if hi < lo:
            raise ValueError("refinement produced an empty interval at n=%d" % n)
        width = hi - lo
        self._meets = 2 * width.den // width.num if width.num else math.inf
        self._current = (lo, hi)
        return self._current


endpoints = st.one_of(
    st.integers(-3, 3), st.builds(Rational, st.integers(-36, 36), st.integers(1, 12))
)


@st.composite
def overlapping_tables(draw, top=12):
    """For n in 1..top any interval with int or Rational endpoints: raws
    may overlap, nest or miss the running interval."""
    table = {}
    for n in range(1, top + 1):
        a, b = draw(endpoints), draw(endpoints)
        table[n] = (a, b) if a <= b else (b, a)
    return table


@st.composite
def nested_tables(draw, top=12):
    """For n in 1..top an interval inside the last, shrinking by a drawn
    amount at each end, so a run of asks stays consistent."""
    lo, hi = draw(endpoints), draw(endpoints)
    lo, hi = min(lo, hi), max(lo, hi) + 1
    table = {}
    for n in range(1, top + 1):
        table[n] = (lo, hi)
        step = (Rational(hi) - lo) / 4
        lo, hi = lo + draw(st.integers(0, 2)) * step, hi - draw(st.integers(0, 2)) * step
    return table


class TestRefineBookkeeping:
    @given(
        table=st.one_of(overlapping_tables(), nested_tables()),
        queries=st.lists(st.integers(1, 12), max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_max_min_reference(self, table, queries):
        x, reference = RefinedReal(table.__getitem__), _MaxMinReal(table.__getitem__)
        for n in queries:
            try:
                expected = reference.refine(n)
            except ValueError as error:
                with pytest.raises(ValueError) as failure:
                    x.refine(n)
                assert str(failure.value) == str(error)
            else:
                assert x.refine(n) == expected
            assert x._current == reference._current
            assert x._meets == reference._meets
            assert all(type(end) is Rational for end in x._current or ())

    def test_a_disjoint_raw_raises(self):
        table = {1: (q(0), q(1)), 3: (2, 3)}
        x = RefinedReal(table.__getitem__)
        x.refine(1)
        with pytest.raises(ValueError, match="empty interval at n=3"):
            x.refine(3)
        assert x._current == (q(0), q(1)) and x._meets == 2

    def test_a_reversed_raw_raises(self):
        with pytest.raises(ValueError, match="empty interval at n=1"):
            RefinedReal(lambda n: (q(1), q(0))).refine(1)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_a_non_integer_precision_raises(self, n):
        # int() would ask precision 2 for 2.5, whose interval may be
        # wider than 2/2.5
        asked = []
        x = RefinedReal(lambda n: asked.append(n) or (q(0), q(1)))
        with pytest.raises(TypeError):
            x.refine(n)
        assert asked == []


class TestRepr:
    def test_a_fresh_node_prints_without_a_raw(self):
        calls = []

        def raw(n):
            calls.append(n)
            return q(1, 3) - q(1, n), q(1, 3) + q(1, n)

        x, twin = RefinedReal(raw), RefinedReal(raw)
        assert repr(x) == "RefinedReal[unrefined]"
        assert calls == []
        answers = [x.refine(n) for n in (4, 2, 16)]
        assert answers == [twin.refine(n) for n in (4, 2, 16)]
        assert repr(x) == "RefinedReal[%s, %s]" % answers[-1]

    def test_a_failed_locate_formats_without_a_raw(self, monkeypatch):
        # locate formats its BudgetExceeded message eagerly, with %r
        def search():
            calls = []

            def raw(n):
                calls.append(n)
                return q(-10), q(10)

            with pytest.raises(BudgetExceeded) as failure:
                locate(Element(get_streak("real"), RefinedReal(raw)), 3, 4)
            return calls, str(failure.value)

        calls, message = search()
        assert "RefinedReal[-10, 10]" in message
        monkeypatch.setattr(RefinedReal, "__repr__", lambda self: "unprinted")
        assert search()[0] == calls
