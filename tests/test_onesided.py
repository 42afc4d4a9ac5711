"""Tests for lower/upper reals as monotone bound streams."""

import functools
import gc

import pytest
from hypothesis import given, settings, strategies as st

from streaks.cauchy import CauchyReal, cs_to_real
from streaks.core import (
    NO, YES, ApartnessUndecided, BudgetExceeded, Element, Order, Sampler, axiom_suite, locate)
from streaks.onesided import (
    BOTTOM,
    LowerReal,
    UpperReal,
    _positive_product,
    lower_add,
    lower_cmp_rat,
    lower_mul_pos,
    lower_sup,
    pair_to_real,
    real_to_pair,
    upper_add,
    upper_cmp_rat,
    upper_inf,
    upper_mul_pos,
)
from streaks.rational import Rational
from streaks.real import RefinedReal, real_cmp_rat, real_from_rational
from streaks.registry import get_streak


def q(*args):
    return Rational(*args)


def approaching_one():
    return lower_sup(lambda k: LowerReal.from_rational(q(1) - q(1, k + 1)))


class TestComparisons:
    def test_constant_lower(self):
        x = LowerReal.from_rational(q(1))
        assert lower_cmp_rat(q(1, 2), x, 10) is YES
        for budget in (1, 50, 1000):
            assert lower_cmp_rat(q(1), x, budget) is NO

    def test_sup_threshold(self):
        assert lower_cmp_rat(q(9, 10), approaching_one(), 100) is YES

    def test_bottom_prefix_skipped(self):
        x = LowerReal(lambda k: BOTTOM if k < 3 else q(5))
        assert lower_cmp_rat(q(4), x, 10) is YES
        assert lower_cmp_rat(q(6), x, 10) is NO

    def test_constant_upper(self):
        x = UpperReal.from_rational(q(1))
        assert upper_cmp_rat(x, q(2), 10) is YES
        assert upper_cmp_rat(x, q(1), 100) is NO

    @pytest.mark.parametrize("budget", [12.9, "13"])
    def test_budgets_are_read_as_integers(self, budget):
        lower, upper = LowerReal.from_rational(q(1)), UpperReal.from_rational(q(1))
        with pytest.raises(TypeError):
            lower_cmp_rat(q(1, 2), lower, budget)
        with pytest.raises(TypeError):
            upper_cmp_rat(upper, q(2), budget)
        with pytest.raises(TypeError):
            pair_to_real(lower, upper, budget)

    def test_a_negative_budget_reads_the_first_entry(self):
        assert lower_cmp_rat(q(1, 2), LowerReal.from_rational(q(1)), -5) is YES
        assert upper_cmp_rat(UpperReal.from_rational(q(1)), q(2), -5) is YES

    def test_probes_walk_the_doubling_ladder(self):
        for budget, ladder in ((0, [0]), (1, [0, 1]), (10, [0, 1, 2, 4, 8, 10]),
                               (16, [0, 1, 2, 4, 8, 16])):
            probes = []
            x = LowerReal(lambda k: probes.append(k) or BOTTOM, monotone=True)
            assert lower_cmp_rat(q(0), x, budget) is NO
            assert probes == ladder

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_budget_zero(self, budget):
        # entry 0 alone answers, whatever earlier probes have folded
        assert lower_cmp_rat(q(0), LowerReal(lambda k: q(1)), budget) is YES
        lower, upper = LowerReal(lambda k: q(k)), UpperReal(lambda k: q(-k))
        assert lower_cmp_rat(q(0), lower, 8) is YES
        assert upper_cmp_rat(upper, q(0), 8) is YES
        assert lower_cmp_rat(q(0), lower, budget) is NO
        assert upper_cmp_rat(upper, q(0), budget) is NO

    def test_forced_monotone(self):
        # a raw stream that regresses is folded into its running max
        w = LowerReal(lambda k: q(10 - k))
        assert w.approx(5) == q(10)
        u = UpperReal(lambda k: q(k))
        assert u.approx(5) == q(0)


class TestArithmetic:
    def test_constant_sum(self):
        s = lower_add(LowerReal.from_rational(q(2)), LowerReal.from_rational(q(3)))
        assert lower_cmp_rat(q(9, 2), s, 10) is YES
        assert lower_cmp_rat(q(5), s, 100) is NO

    def test_sum_with_converging_part(self):
        s = lower_add(approaching_one(), LowerReal.from_rational(q(1)))
        assert lower_cmp_rat(q(19, 10), s, 200) is YES
        assert lower_cmp_rat(q(2), s, 400) is NO

    def test_product_of_converging_parts(self):
        p = lower_mul_pos(approaching_one(), approaching_one())
        assert lower_cmp_rat(q(9, 10), p, 500) is YES
        assert lower_cmp_rat(q(1), p, 500) is NO

    def test_mul_needs_positive_entries(self):
        with pytest.raises(ApartnessUndecided, match="no positive lower bound"):
            lower_mul_pos(
                LowerReal.from_rational(q(-1)), LowerReal.from_rational(q(2))
            )

    def test_upper_duals(self):
        s = upper_add(UpperReal.from_rational(q(2)), UpperReal.from_rational(q(3)))
        assert upper_cmp_rat(s, q(11, 2), 10) is YES
        assert upper_cmp_rat(s, q(5), 100) is NO
        p = upper_mul_pos(UpperReal.from_rational(q(2)), UpperReal.from_rational(q(3)))
        assert upper_cmp_rat(p, q(7), 10) is YES


class TestCountableLattice:
    def test_sup_of_constant_family(self):
        s = lower_sup(lambda k: LowerReal.from_rational(q(3, 7)))
        assert lower_cmp_rat(q(2, 7), s, 10) is YES
        assert lower_cmp_rat(q(3, 7), s, 100) is NO

    def test_unbounded_family_represents_infinity(self):
        s = lower_sup(lambda k: LowerReal.from_rational(q(k)))
        for probe in (q(10), q(100), q(1000)):
            assert lower_cmp_rat(probe, s, 10**4) is YES

    def test_sup_dominates_members(self):
        family = lambda k: LowerReal.from_rational(q(1) - q(1, k + 1))
        s = lower_sup(family)
        for k in (0, 3, 9):
            member_bound = q(1) - q(1, k + 1) - q(1, 100)
            if lower_cmp_rat(member_bound, family(k), 50) is YES:
                assert lower_cmp_rat(member_bound, s, 200) is YES

    def test_inf_threshold(self):
        i = upper_inf(lambda k: UpperReal.from_rational(q(1) + q(1, k + 1)))
        assert upper_cmp_rat(i, q(11, 10), 100) is YES
        assert upper_cmp_rat(i, q(1), 200) is NO

    def test_sup_entries_are_computed_once(self):
        # entry k builds members 0..k: the ladder 0, 1, 2, 4, ..., 64 builds
        # 135, and asking the same entries again builds none
        built = []
        s = lower_sup(lambda i: built.append(i) or LowerReal.from_rational(q(1) - q(1, i + 1)))
        assert lower_cmp_rat(q(1), s, 64) is NO
        assert len(built) == 135
        assert lower_cmp_rat(q(1), s, 64) is NO
        assert len(built) == 135

    def test_sup_keeps_no_members(self):
        # a budget-bounded query holds bounded memory: the diagonal
        # rebuilds members on demand instead of keeping each one it scans
        s = lower_sup(lambda i: LowerReal.from_rational(q(i)))
        assert lower_cmp_rat(q(5000), s, 1 << 13) is YES
        gc.collect()
        alive = sum(isinstance(o, LowerReal) for o in gc.get_objects())
        assert alive <= 4
        assert lower_cmp_rat(q(5000), s, 1 << 13) is YES


def _rescanning_pair_to_real(lower, upper, budget):
    """The reference pair_to_real: every raw ask scans the stream indices
    from 0."""
    def raw(n):
        for k in range(budget + 1):
            lo, hi = lower.approx(k), upper.approx(k)
            if lo is not BOTTOM and hi is not BOTTOM and hi - lo <= q(2, n):
                return lo, hi
        raise BudgetExceeded("bounds never came within 2/%d" % n)

    return RefinedReal(raw)


class TestConversions:
    def test_round_trip(self):
        x = real_from_rational(q(1, 3))
        back = pair_to_real(*real_to_pair(x), 100)
        assert back.refine(10) == (q(1, 3), q(1, 3))
        assert real_cmp_rat(back, q(1, 3), 64) is Order.UNKNOWN

    def test_interval_endpoints_are_one_sided_bounds(self):
        x = cs_to_real(CauchyReal(lambda i: q(1, i + 1), lambda n: n))
        lower, upper = real_to_pair(x)
        assert lower_cmp_rat(q(-1, 2), lower, 20) is YES
        assert upper_cmp_rat(upper, q(1, 2), 20) is YES

    def test_unlocated_pair_rejected(self):
        gap_lower = LowerReal(lambda k: q(1) - q(1, k + 1))
        gap_upper = UpperReal.from_rational(q(2))
        with pytest.raises(BudgetExceeded, match="bounds never came within 2/4 of each other"):
            pair_to_real(gap_lower, gap_upper, 50).refine(4)

    def test_symmetric_squeeze(self):
        lo = LowerReal(lambda k: q(-1, k + 1))
        hi = UpperReal(lambda k: q(1, k + 1))
        x = pair_to_real(lo, hi, 10**4)
        for n in (1, 4, 16):
            a, b = x.refine(n)
            assert a <= q(0) <= b
            assert b - a <= q(2, n)

    def test_scans_resume_where_the_last_precision_was_met(self):
        lower = LowerReal(lambda k: 2 - q(1, k + 1), monotone=True)
        upper = UpperReal(lambda k: 2 + q(1, k + 1), monotone=True)
        approx, reads = lower.approx, [0]

        def counted(k):
            reads[0] += 1
            return approx(k)

        lower.approx = counted
        x = pair_to_real(lower, upper, 10**6)
        assert real_cmp_rat(x, q(2), 500) is Order.UNKNOWN
        # one scan per precision 1..500; rescanning from 0 reads 125,250 entries
        assert reads[0] <= 2 * 500
        reference = _rescanning_pair_to_real(lower, upper, 10**6)
        assert real_cmp_rat(reference, q(2), 500) is Order.UNKNOWN
        assert x.refine(500) == reference.refine(500)

    @given(
        lows=st.lists(st.integers(0, 8), min_size=1, max_size=12),
        highs=st.lists(st.integers(0, 8), min_size=1, max_size=12),
        bottoms=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        budget=st.integers(0, 16),
        asks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_match_rescanning_from_zero(self, lows, highs, bottoms, budget, asks):
        # bounds 1/3 -+ d/16 with d nonincreasing in the index, after a BOTTOM prefix
        def stream(sign, gaps, prefix):
            gaps = sorted(gaps, reverse=True)
            return lambda k: BOTTOM if k < prefix else (
                q(1, 3) + sign * q(gaps[min(k - prefix, len(gaps) - 1)], 16))

        pair = (LowerReal(stream(-1, lows, bottoms[0])), UpperReal(stream(1, highs, bottoms[1])))
        x, reference = pair_to_real(*pair, budget), _rescanning_pair_to_real(*pair, budget)
        for n in asks:
            try:
                expected = reference.refine(n)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded, match="bounds never came within 2/%d" % n):
                    x.refine(n)
            else:
                assert x.refine(n) == expected

    def test_negation_swaps_streams(self):
        from streaks.real import real_neg

        x = cs_to_real(CauchyReal(lambda i: q(1, i + 1), lambda n: n))
        lower, upper = real_to_pair(x)
        neg_lower, neg_upper = real_to_pair(real_neg(x))
        for k in range(10):
            assert neg_lower.approx(k) == -upper.approx(k)
            assert neg_upper.approx(k) == -lower.approx(k)


class TestShiftInvariance:
    def test_integer_shifts_preserve_cut_answers(self):
        x = approaching_one()
        for n in (1, 3, 7):
            shifted = lower_add(x, LowerReal.from_rational(q(n)))
            for probe in (q(1, 2), q(9, 10), q(1), q(3, 2)):
                assert lower_cmp_rat(probe, x, 300) is lower_cmp_rat(
                    probe + q(n), shifted, 300
                )


class TestHandles:
    def test_lower_laws_one_sided(self):
        report = axiom_suite(get_streak("lower"), Sampler(2), 40, budget=32)
        assert report.passed, report.summary()

    def test_upper_laws_one_sided(self):
        report = axiom_suite(get_streak("upper"), Sampler(2), 40, budget=32)
        assert report.passed, report.summary()


def _counting_rationals(monkeypatch):
    """A list that gets one entry per `Rational(...)` built from now on."""
    builds = []
    init = Rational.__init__

    @functools.wraps(init)
    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rational, "__init__", counting)
    return builds


def test_positive_product_builds_no_rational(monkeypatch):
    a, b, product, negative = q(1, 2), q(1, 3), q(1, 6), q(-1, 2)
    builds = _counting_rationals(monkeypatch)
    assert _positive_product(a, b) == product
    assert _positive_product(negative, b) is BOTTOM
    assert builds == []


class TestProbeBounds:
    """`lower_cmp_rat`, `upper_cmp_rat` and `real_cmp_rat` compare an int or
    `Rational` q as it is, as the decidable handles do.  Converting every q
    through `_as_rat` built 8 Rationals for the `real` locate below, 7 for
    the `upper` one and 1 for `lower_cmp_rat(2, ...)`."""

    def test_int_grid_points_build_no_rational(self, monkeypatch):
        real, lower, upper = get_streak("real"), get_streak("lower"), get_streak("upper")
        seven_thirds = real_from_rational(q(7, 3))
        low, up = LowerReal.from_rational(q(7, 3)), UpperReal.from_rational(q(7, 3))
        builds = _counting_rationals(monkeypatch)
        assert locate(Element(real, seven_thirds), 1, 64) == 2
        for streak, value in ((lower, low), (upper, up)):
            with pytest.raises(BudgetExceeded, match="no integer bound"):
                locate(Element(streak, value), 1, 64)
        assert lower_cmp_rat(2, low, 8) is YES
        assert upper_cmp_rat(up, 3, 8) is YES
        assert builds == []

    @pytest.mark.parametrize("bound", [2.5, "2", None])
    @pytest.mark.parametrize("budget", [0, 1, 8])
    def test_other_bounds_raise_at_every_budget(self, bound, budget):
        x = real_from_rational(q(7, 3))
        with pytest.raises(TypeError):
            real_cmp_rat(x, bound, budget)
        with pytest.raises(TypeError):
            lower_cmp_rat(bound, LowerReal.from_rational(q(7, 3)), budget)
        with pytest.raises(TypeError):
            upper_cmp_rat(UpperReal.from_rational(q(7, 3)), bound, budget)


def _tracing_inits(monkeypatch):
    """Wrap `LowerReal.__init__` and `UpperReal.__init__` the way the
    benchmark tracer does, passing `monotone` on positionally and wrapping
    the built value's `approx`.  Returns the values built and the number
    of `approx` calls made through the wrappers."""
    built, asks = [], [0]

    def wrap(cls):
        init = cls.__init__

        def stream_init(self, stream, monotone=False):
            init(self, stream, monotone)
            approx = self.approx

            def counted(k):
                asks[0] += 1
                return approx(k)

            self.approx = counted
            built.append(self)

        monkeypatch.setattr(cls, "__init__", stream_init)

    wrap(LowerReal)
    wrap(UpperReal)
    return built, asks


CONSTRUCTORS = {
    "lower.from_rational": lambda: LowerReal.from_rational(q(1, 2)),
    "upper.from_rational": lambda: UpperReal.from_rational(q(1, 2)),
    "lower_add": lambda: lower_add(LowerReal.from_rational(1), LowerReal.from_rational(2)),
    "upper_add": lambda: upper_add(UpperReal.from_rational(1), UpperReal.from_rational(2)),
    "lower_mul_pos": lambda: lower_mul_pos(
        LowerReal.from_rational(2), LowerReal.from_rational(3)),
    "lower_sup": lambda: lower_sup(lambda i: LowerReal.from_rational(q(1) - q(1, i + 1))),
    "upper_inf": lambda: upper_inf(lambda i: UpperReal.from_rational(q(1) + q(1, i + 1))),
    "real_to_pair.lower": lambda: real_to_pair(real_from_rational(q(1, 3)))[0],
    "real_to_pair.upper": lambda: real_to_pair(real_from_rational(q(1, 3)))[1],
}


class TestOneConstructor:
    """Every one-sided value is built by `_OneSidedReal.__init__`, so a
    wrapper on it, like the benchmark tracer's, sees each value and each
    ask of its stream."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_values_are_built_by_init(self, monkeypatch, name):
        built, asks = _tracing_inits(monkeypatch)
        x = CONSTRUCTORS[name]()
        assert any(v is x for v in built)
        before = asks[0]
        x.approx(3)
        assert asks[0] > before

    def test_a_monotone_stream_is_kept_as_given(self):
        stream = lambda k: q(k)
        assert LowerReal(stream, True).approx is stream
        assert UpperReal(stream, monotone=True).approx is stream


# expression trees over constants: ("const", n, d), ("add", a, b),
# ("mul", a, b) and ("sup", ((n, d), ...)), whose members cycle
_CONSTANT = st.tuples(st.just("const"), st.integers(-4, 9), st.integers(1, 4))
_TREES = st.recursive(
    st.one_of(_CONSTANT, st.tuples(
        st.just("sup"), st.lists(st.tuples(st.integers(-4, 9), st.integers(1, 6)),
                                 min_size=1, max_size=5).map(tuple))),
    lambda sub: st.tuples(st.sampled_from(["add", "mul"]), sub, sub),
    max_leaves=5,
)


def _build(tree, cls, memo):
    """The value of tree as a `cls`, with memo applied to every node."""
    if cls is LowerReal:
        add, mul, lattice = lower_add, lower_mul_pos, lower_sup
    else:
        add, mul, lattice = upper_add, upper_mul_pos, upper_inf
    if tree[0] == "const":
        return memo(cls.from_rational(q(tree[1], tree[2])))
    if tree[0] == "sup":
        members = tree[1]
        return memo(lattice(lambda i: memo(cls.from_rational(q(*members[i % len(members)])))))
    op = add if tree[0] == "add" else mul
    return memo(op(_build(tree[1], cls, memo), _build(tree[2], cls, memo)))


def _cached(x):
    """x with a `functools.cache` memo on its stream."""
    return type(x)(functools.cache(x.approx), True)


def _answers(tree, cls, memo, bounds):
    try:
        x = _build(tree, cls, memo)
    except ApartnessUndecided as err:
        return str(err)
    if cls is LowerReal:
        return [lower_cmp_rat(b, x, budget) for b in bounds for budget in range(65)]
    return [upper_cmp_rat(x, b, budget) for b in bounds for budget in range(65)]


class TestAgainstMemoizedStreams:
    @given(
        tree=_TREES,
        bounds=st.lists(st.one_of(st.integers(-6, 12), st.builds(
            Rational, st.integers(-30, 60), st.integers(1, 12))), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_answers_match_cached_streams(self, tree, bounds):
        # the same values with a `functools.cache` memo on every node and
        # every family member answer every bound alike at budgets 0-64
        for cls in (LowerReal, UpperReal):
            assert _answers(tree, cls, lambda x: x, bounds) == _answers(
                tree, cls, _cached, bounds)
