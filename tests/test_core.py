"""Tests for the streak contract and its derived algorithms."""

import collections
import dataclasses
import gc
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from streaks.core import (
    NO,
    YES,
    BudgetExceeded,
    Element,
    Order,
    Sampler,
    StreakHandle,
    _Side,
    _dense_value,
    _grid_walk,
    _magnitude_bound,
    _rounded_witness,
    archimedean_witness,
    axiom_suite,
    dense_generate,
    dense_substreak,
    interpolate,
    locate,
    morphism_check,
    nat_scale,
    rational_prefix,
    scale_value,
    strict_lt,
)
from streaks.cauchy import CauchyReal, cs_to_real
from streaks.onesided import LowerReal, UpperReal
from streaks.rational import Rational
from streaks.real import real_add, real_from_rational
from streaks.reflections import Dyadic, FiniteSubset, FormalDifference, FormalFraction
from streaks.registry import get_streak

RAT = get_streak("rat")


def q(*args):
    return Rational(*args)


def rat_elem(*args):
    return Element(RAT, Rational(*args))


small_rationals = st.builds(Rational, st.integers(-50, 50), st.integers(1, 20))


class TestRationalEnumeration:
    def test_starts_at_zero(self):
        assert rational_prefix(1) == [q(0)]

    def test_fair_and_duplicate_free(self):
        prefix = rational_prefix(300)
        assert len(set(prefix)) == 300
        for v in (q(0), q(1), q(-1), q(1, 2), q(2), q(-1, 2)):
            assert v in prefix

    def test_sign_interleaving(self):
        prefix = rational_prefix(3)
        assert prefix == [q(0), q(1), q(-1)]


class TestStrictLt:
    def test_rationals_compare(self):
        assert strict_lt(rat_elem(1), rat_elem(2), 8) is Order.LESS
        assert strict_lt(rat_elem(2), rat_elem(1), 8) is Order.GREATER

    def test_equal_elements_unknown(self):
        x = rat_elem(5, 7)
        y = rat_elem(5, 7)
        for budget in (1, 8, 64):
            assert strict_lt(x, y, budget) is Order.UNKNOWN

    def test_decision_stable_across_budgets(self):
        x, y = rat_elem(1, 3), rat_elem(2, 3)
        # a small budget may leave the order unknown, but once decided the
        # answer never changes as the budget grows
        seen = [strict_lt(x, y, b) for b in (1, 4, 8, 16, 128)]
        decided = [d for d in seen if d is not Order.UNKNOWN]
        assert decided and set(decided) == {Order.LESS}
        first = seen.index(Order.LESS)
        assert all(d is Order.LESS for d in seen[first:])

    def test_mixed_streaks_rejected(self):
        nat = get_streak("nat")
        with pytest.raises(ValueError, match="rat vs nat"):
            strict_lt(rat_elem(1), Element(nat, nat.sample.__self__ if False else nat.zero), 4)

    @given(a=small_rationals, b=small_rationals)
    @example(a=q(-8, 17), b=q(-9, 19))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_rational_order(self, a, b):
        """Distinct small rationals differ by at least 1/380 (denominators
        19 and 20), and grids of fineness 1024 separate any two points
        2/1024 apart by two steps, so budget 1024 decides every pair.
        Budget 256 need not (the pinned example differs by 1/323), but
        whatever it decides agrees."""
        want = Order.LESS if a < b else Order.GREATER if b < a else Order.UNKNOWN
        assert strict_lt(Element(RAT, a), Element(RAT, b), 1024) is want
        assert strict_lt(Element(RAT, a), Element(RAT, b), 256) in (want, Order.UNKNOWN)


def _walk_lt(x, y, budget):
    """The witness walk, the reference the difference rule is checked
    against: a rational x < r < y (or y < r < x) among the first
    2*budget + 1 of the enumeration."""
    s, vx, vy = x.streak, x.value, y.value
    for r in rational_prefix(2 * budget + 1):
        if s.above(vx, r, budget) is YES and s.below(r, vy, budget) is YES:
            return Order.LESS
        if s.above(vy, r, budget) is YES and s.below(r, vx, budget) is YES:
            return Order.GREATER
    return Order.UNKNOWN


def _approaching(a, c):
    """The limit of a + c*(1 - 2^-i), as a Cauchy sequence whose modulus
    M(n) has 2^M(n) > 2*|c|*n."""
    return cs_to_real(CauchyReal(
        lambda i: a + c * (1 - q(1, 2**i)),
        lambda n: (2 * abs(c) * n).bit_length(),
    ))


# (a, c, limit?) builds real_from_rational(a) or the limit of
# a + c*(1 - 2^-i); each rule gets freshly built values, since a value
# keeps the intervals it was asked for
real_specs = st.tuples(small_rationals, st.integers(-4, 4), st.booleans())
small_nonneg_specs = st.tuples(
    st.builds(Rational, st.integers(0, 12), st.integers(1, 6)),
    st.integers(0, 2),
    st.booleans(),
)
nonneg_specs = st.tuples(
    st.builds(Rational, st.integers(0, 50), st.integers(1, 20)),
    st.integers(0, 4),
    st.booleans(),
)


def _real(spec):
    a, c, limit = spec
    return _approaching(a, c) if limit else real_from_rational(a)


def _exact(spec):
    """The rational value of _real(spec)."""
    a, c, limit = spec
    return a + c if limit else a


class TestStrictLtAgainstTheWalk:
    """Wherever the rational walk decides, the difference rule (and, on
    streaks without `sub`, UNKNOWN) gives the same answer, at the walk's
    budget or, on `ring:real`, at twice it."""

    def _agree(self, name, build, u, v, budget, lt_budget=None):
        s = get_streak(name)
        walked = _walk_lt(Element(s, build(u)), Element(s, build(v)), budget)
        got = strict_lt(Element(s, build(u)), Element(s, build(v)), lt_budget or budget)
        if walked is not Order.UNKNOWN:
            assert got is walked, (u, v, budget)
        return got

    @given(u=real_specs, v=real_specs, budget=st.sampled_from([4, 8, 16]))
    @settings(max_examples=150, deadline=None)
    def test_real(self, u, v, budget):
        self._agree("real", _real, u, v, budget)

    @given(
        u=st.tuples(nonneg_specs, nonneg_specs),
        v=st.tuples(nonneg_specs, nonneg_specs),
        budget=st.sampled_from([4, 8, 16]),
    )
    @example(
        u=((q(30, 11), 0, False), (q(29, 17), 0, False)),
        v=((q(16, 3), 1, True), (q(12, 5), 3, True)),
        budget=8,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_ring_of_reals(self, u, v, budget):
        """`strict_lt` at twice the budget decides wherever the walk at the
        budget does, and the same way.  At equal budget it may not: it
        refines the cleared difference, a sum of four reals, to precision
        at most the budget, so its interval can be 2/budget wide while the
        walk's probes of each side clear (the pinned example: the walk
        answers GREATER at 8, `strict_lt` UNKNOWN at 8 and GREATER at 16).
        Twice the budget is a measured margin, not a proven one: it missed
        none of 3,000 random pairs, so the draws are derandomized."""

        def build(spec):
            return FormalDifference(_real(spec[0]), _real(spec[1]))

        self._agree("ring:real", build, u, v, budget, lt_budget=2 * budget)

    @given(a=small_rationals, b=small_rationals, budget=st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_one_sided_reals_decide_nothing(self, a, b, budget):
        # one side of their cuts always answers NO, so neither rule decides
        assert self._agree("lower", LowerReal.from_rational, a, b, budget) is Order.UNKNOWN
        assert self._agree("upper", UpperReal.from_rational, a, b, budget) is Order.UNKNOWN

    def test_the_difference_decides_what_the_walk_cannot(self):
        # 1/1000 apart: no rational among the first 17 lies between them
        real = get_streak("real")
        x = Element(real, real_from_rational(q(1, 3)))
        y = Element(real, real_add(x.value, real_from_rational(q(1, 1000))))
        assert _walk_lt(x, y, 8) is Order.UNKNOWN
        assert strict_lt(x, y, 8) is Order.LESS
        assert strict_lt(y, x, 8) is Order.GREATER


class TestLocate:
    def test_worked_values(self):
        assert locate(rat_elem(5, 3), 3, 64) == 5
        assert locate(rat_elem(0), 1, 64) == 0
        assert locate(rat_elem(-7, 2), 2, 64) == -7

    def test_non_integer_fineness_raises(self):
        # int() would search the 1/2 grid for k = 2.9
        with pytest.raises(TypeError):
            locate(rat_elem(5, 3), 2.9, 64)
        assert locate(rat_elem(5, 3), True, 64) == 1

    @pytest.mark.parametrize("name, make", [
        ("rat", lambda v: v), ("real", real_from_rational)], ids=["rat", "real"])
    def test_non_integer_budgets_raise(self, name, make):
        # locate and strict_lt read the budget with operator.index, as
        # locate reads k: on rat a budget of 2.5 used to be searched under
        s = get_streak(name)
        x, y = Element(s, make(q(1, 3))), Element(s, make(q(1, 2)))
        for budget in (2.5, "2"):
            for call in (lambda: locate(x, 4, budget), lambda: strict_lt(x, y, budget)):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    call()

    @given(v=small_rationals, k=st.integers(1, 24))
    @settings(max_examples=80, deadline=None)
    def test_sound(self, v, k):
        i = locate(Element(RAT, v), k, 1 << 12)
        assert Rational(i - 1, k) < v < Rational(i + 1, k)

    @given(v=small_rationals, k=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_smallest_valid_index(self, v, k):
        i = locate(Element(RAT, v), k, 1 << 12)
        assert not Rational(i - 2, k) < v < Rational(i, k)

    @given(
        v=st.builds(Rational, st.integers(-12, 12), st.integers(1, 12)),
        k=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_semidecidable_scan_agrees_with_bisection(self, v, k):
        # one search for both: on monotone cuts it lands on the smallest
        # valid index, and the extra lower probe confirms it
        real = Element(get_streak("real"), real_from_rational(v))
        assert locate(real, k, 16) == locate(Element(RAT, v), k, 16)

    def test_semidecidable_worked_values(self):
        real = get_streak("real")
        for v, k, want in [(q(1, 3), 4, 1), (q(-7, 5), 8, -12), (q(5, 2), 3, 7), (q(0), 2, 0)]:
            assert locate(Element(real, real_from_rational(v)), k, 16) == want

    def test_lower_element_has_no_upper_bound(self):
        # the upper cut of a lower real never answers YES
        x = Element(get_streak("lower"), LowerReal.from_rational(q(1, 2)))
        with pytest.raises(BudgetExceeded):
            locate(x, 4, 64)


def _fresh(x):
    """An element with x's value and nothing learnt about it."""
    return Element(x.streak, x.value)


def _per_grid_strict_lt(x, y, budget):
    """The decidable branch of `strict_lt` with one `locate` per element
    and grid, each on a fresh element: the reference for the shared walk."""
    k = 1
    while k <= max(budget, 1):
        try:
            i = locate(_fresh(x), k, budget)
            j = locate(_fresh(y), k, budget)
        except BudgetExceeded:
            return Order.UNKNOWN
        if j >= i + 2:
            return Order.LESS
        if i >= j + 2:
            return Order.GREATER
        k *= 2
    return Order.UNKNOWN


def _per_grid_rounded_witness(x, q, side):
    """`_rounded_witness` with one `locate` per grid, each on a fresh
    element: the reference for the shared walk."""
    k = 1
    while k <= 1 << 12:
        try:
            i = locate(_fresh(x), k, 1 << 12)
        except BudgetExceeded:
            return None
        r = Rational(i - 1, k) if side.lower else Rational(i + 1, k)
        if side.outside(q, r):
            return r
        k *= 2
    return None


def _scan_locate(x, k, budget):
    """The linear grid scan `locate` once ran on semidecidable streaks:
    the smallest i in [-nk, nk] that both cuts certify."""
    s, v = x.streak, x.value
    n = _magnitude_bound(x, budget)
    if n is None:
        raise BudgetExceeded("no integer bound")
    for i in range(-n * k, n * k + 1):
        if (
            s.below(Rational(i - 1, k), v, budget) is YES
            and s.above(v, Rational(i + 1, k), budget) is YES
        ):
            return i
    raise BudgetExceeded("unresolved")


# a value of each decidable streak with the given rational value; the
# integer streaks are only asked for integers, `dyadic` only for
# power-of-two denominators
DECIDABLE_VALUES = {
    "rat": lambda v: v,
    "int": lambda v: v.num,
    "dyadic": lambda v: Dyadic(v.num, v.den.bit_length() - 1),
    "ring:nat": lambda v: FormalDifference(max(v.num, 0) + 3, max(-v.num, 0) + 3),
    "field:rat": lambda v: FormalFraction(v * q(3, 2), q(3, 2)),
    "finmeet:rat": lambda v: FiniteSubset([v + 1, v, v + q(1, 3)]),
}
INTEGER_STREAKS = ("int", "ring:nat")

# pairs in [-3, 3], d * 2^-e apart: down to 2^-12
close_pairs = st.builds(
    lambda m, e, d: (q(m, 1 << 12), q(m + (d << (12 - e)), 1 << 12)),
    st.integers(-3 << 12, 3 << 12),
    st.integers(0, 12),
    st.integers(-3, 3),
)
integer_pairs = st.builds(
    lambda m, d: (q(m), q(m + d)), st.integers(-40, 40), st.integers(-3, 3)
)
walk_budgets = st.sampled_from([0, 1, 3, 8, 12, 64, 4096])


@st.composite
def decidable_pairs(draw):
    name = draw(st.sampled_from(sorted(DECIDABLE_VALUES)))
    a, b = draw(integer_pairs if name in INTEGER_STREAKS else close_pairs)
    s = get_streak(name)
    build = DECIDABLE_VALUES[name]
    return Element(s, build(a)), Element(s, build(b)), b


class TestGridWalk:
    """The shared walk answers as one `locate` per grid did, and
    `locate` as the linear scan did on monotone cuts."""

    def test_no_bound_within_budget_walks_no_grid(self):
        # |100| has no integer bound up to 8: the walk yields nothing
        assert list(_grid_walk(rat_elem(100), 8)) == []

    @given(pair=decidable_pairs(), budget=walk_budgets)
    @settings(max_examples=300, deadline=None)
    def test_strict_lt_matches_per_grid_locate(self, pair, budget):
        x, y, _ = pair
        assert strict_lt(x, y, budget) is _per_grid_strict_lt(x, y, budget)

    @given(pair=decidable_pairs(), lower=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rounded_witness_matches_per_grid_locate(self, pair, lower):
        # b is the other element's value: a rational near x, or at x
        x, _, b = pair
        side = _Side(x.streak, 12, lower)
        for r in (b, q(0), q(-2), q(1, 3)):
            assert _rounded_witness(x, r, side) == _per_grid_rounded_witness(x, r, side)

    @given(pair=decidable_pairs(), budget=walk_budgets)
    @settings(max_examples=150, deadline=None)
    def test_a_decided_answer_survives_more_budget(self, pair, budget):
        x, y, _ = pair
        got = strict_lt(x, y, budget)
        if got is not Order.UNKNOWN:
            assert strict_lt(x, y, budget + 1) is got
            assert strict_lt(x, y, 2 * budget) is got

    def _agree_with_scan(self, s, build, k, budget):
        try:
            scanned = _scan_locate(Element(s, build()), k, budget)
        except BudgetExceeded:
            scanned = None
        v = build()
        try:
            i = locate(Element(s, v), k, budget)
        except BudgetExceeded:
            assert scanned is None
            return
        assert scanned in (None, i)
        assert s.below(Rational(i - 1, k), v, budget) is YES
        assert s.above(v, Rational(i + 1, k), budget) is YES

    @given(spec=real_specs, k=st.integers(1, 16), budget=st.sampled_from([4, 8, 16]))
    @settings(max_examples=80, deadline=None)
    def test_real_locate_matches_the_scan(self, spec, k, budget):
        self._agree_with_scan(get_streak("real"), lambda: _real(spec), k, budget)

    @given(
        u=st.tuples(small_nonneg_specs, small_nonneg_specs),
        k=st.integers(1, 8),
        budget=st.sampled_from([4, 8]),
    )
    @example(u=((q(2, 3), 0, False), (q(3, 4), 0, True)), k=2, budget=4)
    @example(u=((q(2, 3), 0, True), (q(5, 6), 0, True)), k=8, budget=4)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_ring_of_reals_locate_matches_the_scan(self, u, k, budget):
        """Each search's index, where it finds one, is certified by both
        cuts and valid for the exact value, so the two are at most one
        apart.  Neither need be the other's: the `ring:real` cuts depend
        on which precisions the shared nodes were asked before, so they
        are not monotone in the rational.  In the first pinned example
        (the value -1/12 on the grid of halves) the scan answers -1 and
        `locate` 0; in the second the scan answers -2 and `locate` finds
        no index within the budget."""
        s, x = get_streak("ring:real"), _exact(u[0]) - _exact(u[1])
        found = []
        for search in (_scan_locate, locate):
            v = FormalDifference(_real(u[0]), _real(u[1]))
            try:
                i = search(Element(s, v), k, budget)
            except BudgetExceeded:
                continue
            assert s.below(Rational(i - 1, k), v, budget) is YES
            assert s.above(v, Rational(i + 1, k), budget) is YES
            assert Rational(i - 1, k) < x < Rational(i + 1, k)
            found.append(i)
        assert max(found, default=0) - min(found, default=0) <= 1


# up to 2^13 times the pairs above: magnitude bounds from 1 to 2^15
scaled_pairs = st.builds(
    lambda pair, e: (pair[0] * (1 << e), pair[1] * (1 << e)),
    close_pairs | integer_pairs,
    st.integers(0, 13),
)
memo_budgets = st.sampled_from([0, 1, 3, 8, 12, 4096, 16384])


def _answer(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return "BudgetExceeded: %s" % exc


@st.composite
def memo_questions(draw):
    """(op, budget, k) triples: one question each to `strict_lt`,
    `_rounded_witness`, `locate` and `_magnitude_bound`, in a drawn order
    and some asked twice."""
    ops = draw(st.permutations(["strict_lt", "rounded", "locate", "bound"]))
    ops += draw(st.lists(st.sampled_from(ops), max_size=3))
    return [(op, draw(memo_budgets), draw(st.integers(1, 40))) for op in ops]


class TestGridMemo:
    """An element that keeps its bound and grids answers every question
    as a fresh element per question does."""

    def _ask(self, op, x, y, r, budget, k):
        if op == "strict_lt":
            return strict_lt(x, y, budget)
        if op == "rounded":
            return _rounded_witness(x, r, _Side(x.streak, budget, k % 2 == 0))
        if op == "locate":
            return _answer(lambda: locate(x, k, budget))
        return _magnitude_bound(x, budget)

    @given(
        name=st.sampled_from(sorted(DECIDABLE_VALUES)),
        pair=scaled_pairs,
        questions=memo_questions(),
    )
    @settings(max_examples=300, deadline=None)
    def test_kept_grids_answer_as_fresh_elements(self, name, pair, questions):
        a, b = pair
        if name in INTEGER_STREAKS:
            a, b = q(a.num // a.den), q(b.num // b.den)
        s, build = get_streak(name), DECIDABLE_VALUES[name]
        x, y = Element(s, build(a)), Element(s, build(b))
        for op, budget, k in questions:
            kept = self._ask(op, x, y, b, budget, k)
            fresh = self._ask(op, _fresh(x), _fresh(y), b, budget, k)
            assert kept == fresh, (op, budget, k)
        assert x.grid is None or x.grid[0] == _magnitude_bound(_fresh(x), 1 << 16)

    def test_semidecidable_elements_keep_nothing(self):
        x = Element(get_streak("real"), real_from_rational(q(1, 3)))
        y = Element(get_streak("real"), real_from_rational(q(1, 2)))
        assert strict_lt(x, y, 64) is Order.LESS
        assert locate(x, 8, 64) == 2
        assert _magnitude_bound(x, 64) == 1
        assert x.grid is None and y.grid is None


class TestSearchCost:
    def _count_bounds(self, monkeypatch):
        calls = []

        def counted(x, budget):
            calls.append(x)
            return _magnitude_bound(x, budget)

        monkeypatch.setattr("streaks.core._magnitude_bound", counted)
        return calls

    @pytest.mark.parametrize("budget", [8, 4096])
    def test_strict_lt_bounds_each_element_once(self, monkeypatch, budget):
        # too close for any grid up to 4096, so every grid is walked
        calls = self._count_bounds(monkeypatch)
        y = rat_elem(1, 3) + rat_elem(1, 5000)
        assert strict_lt(rat_elem(1, 3), y, budget) is Order.UNKNOWN
        assert len(calls) == 2

    def test_rounded_witness_bounds_once(self, monkeypatch):
        calls = self._count_bounds(monkeypatch)
        side = _Side(RAT, 12, True)
        assert _rounded_witness(rat_elem(1, 3), q(1, 3) - q(1, 1000), side) is not None
        assert len(calls) == 1

    def test_finer_grids_cost_one_probe_and_a_second_walk_none(self):
        probes = []

        def below(q_, v, budget):
            probes.append(q_)
            return RAT.below(q_, v, budget)

        def above(v, q_, budget):
            probes.append(q_)
            return RAT.above(v, q_, budget)

        x = Element(dataclasses.replace(RAT, below=below, above=above), q(1, 3))
        walked = list(_grid_walk(x, 4096))
        assert walked == [(1 << e, (1 << e) // 3) for e in range(13)]
        # the bound 1 (two probes), a bisection over [-2, 1], then 12 grids
        assert len(probes) == 2 + 2 + 12, probes
        probes.clear()
        assert list(_grid_walk(x, 4096)) == walked
        assert list(_grid_walk(x, 8)) == walked[:4]
        assert _magnitude_bound(x, 1 << 14) == 1
        assert probes == []

    def test_locate_bisects_on_semidecidable_streaks(self):
        # the linear scan made 2,433 probes here
        ring = get_streak("ring:real")
        probes = []

        def below(q_, v, budget):
            probes.append(q_)
            return ring.below(q_, v, budget)

        def above(v, q_, budget):
            probes.append(q_)
            return ring.above(v, q_, budget)

        counted = dataclasses.replace(ring, below=below, above=above)
        v = FormalDifference(_approaching(q(7, 3), 2), real_from_rational(q(1, 5)))
        x = Element(counted, v)
        i = locate(x, 100, 64)
        assert Rational(i - 1, 100) < q(7, 3) + 2 - q(1, 5) < Rational(i + 1, 100)
        n = _magnitude_bound(Element(ring, v), 64)
        assert len(probes) <= 2 * (2 * n * 100).bit_length() + 4, len(probes)


class TestArchimedeanWitness:
    def test_worked_values(self):
        assert archimedean_witness(rat_elem(10), rat_elem(0), rat_elem(0), rat_elem(1), 64) == 11
        assert archimedean_witness(rat_elem(0), rat_elem(0), rat_elem(1), rat_elem(1), 64) == 0
        assert (
            archimedean_witness(rat_elem(5, 2), rat_elem(1, 3), rat_elem(0), rat_elem(1, 2), 64)
            == 16
        )

    def test_minimality(self):
        a, b, c, d = rat_elem(5, 2), rat_elem(1, 3), rat_elem(0), rat_elem(1, 2)
        n = archimedean_witness(a, b, c, d, 64)
        assert n > 0
        prev = n - 1
        lhs = a + nat_scale(prev, b)
        rhs = c + nat_scale(prev, d)
        assert strict_lt(lhs, rhs, 64) is not Order.LESS

    def test_precondition(self):
        with pytest.raises(BudgetExceeded, match="b < d not established"):
            archimedean_witness(rat_elem(0), rat_elem(1), rat_elem(0), rat_elem(1), 16)


class TestDecidableProbes:
    @pytest.mark.parametrize("name, v", [("rat", q(1)), ("nat", 1)])
    def test_non_rational_bounds_raise(self, name, v):
        s = get_streak(name)
        with pytest.raises(TypeError):
            s.below(0.5, v, 0)
        with pytest.raises(TypeError):
            s.above(v, "1/2", 0)

    @pytest.mark.parametrize("name, v", [("rat", q(1, 2)), ("nat", 1), ("int", -1)])
    def test_int_and_bool_bounds_compare_as_rationals(self, name, v):
        s = get_streak(name)
        for bound in (-1, 0, 1, True, False, q(-1), q(1, 2)):
            assert (s.below(bound, v, 0) is YES) == (q(bound) < v)
            assert (s.above(v, bound, 0) is YES) == (v < q(bound))


class TestNatScale:
    def test_zero_gives_identity(self):
        assert nat_scale(0, rat_elem(7)).value == q(0)

    @pytest.mark.parametrize("n", [2.5, "2"])
    def test_non_integer_factors_raise(self, n):
        # int() would truncate 2.5 to 2
        with pytest.raises(TypeError):
            scale_value(RAT, n, q(1))
        with pytest.raises(TypeError):
            nat_scale(n, Element(get_streak("nat"), 1))

    def test_bool_factors_are_ints(self):
        assert scale_value(RAT, True, q(3)) == q(3)

    def test_repeated_addition(self):
        assert nat_scale(3, rat_elem(1, 2)).value == q(3, 2)

    def test_difference_pairs_scale_componentwise(self):
        ring = get_streak("ring:rat")
        from streaks.reflections import FormalDifference

        x = Element(ring, FormalDifference(q(2), q(5)))
        scaled = nat_scale(4, x)
        # 4 * (2 - 5) = -12, i.e. equivalent to the pair (8, 20)
        assert ring.cmp(scaled.value, FormalDifference(q(8), q(20))) == 0


def _repeated_sum(s, n, v):
    """The n-fold sum by plain repeated addition: the reference for the
    closed form and for doubling."""
    acc = s.zero
    for _ in range(n):
        acc = s.add(acc, v)
    return acc


class TestNFoldSum:
    @pytest.mark.parametrize("name", ["nat", "int", "rat", "dense"])
    def test_closed_form_equals_repeated_sum(self, name):
        sampler = Sampler(5)
        if name == "dense":
            s = dense_substreak(q(-1, 3))
            values = [sampler.rational() for _ in range(6)]
        else:
            s = get_streak(name)
            values = [s.sample(sampler.rng) for _ in range(6)]
        assert s.scale is not None
        for v in values + [s.zero, s.one]:
            for n in range(71):
                got, want = scale_value(s, n, v), _repeated_sum(s, n, v)
                assert type(got) is type(want) and got == want, (n, v)

    @pytest.mark.parametrize("name", ["ring:nat", "ring:rat"])
    def test_ring_closed_form_equals_repeated_sum(self, name):
        s = get_streak(name)
        rng = Sampler(5).rng
        for v in [s.sample(rng) for _ in range(6)] + [s.zero, s.one]:
            for n in range(71):
                got, want = s.scale(n, v), _repeated_sum(s, n, v)
                assert s.cmp(got, want) == 0, (n, v)
                assert type(got.pos) is type(want.pos), (n, v)
                assert type(got.neg) is type(want.neg), (n, v)

    def test_doubling_equals_repeated_sum(self):
        s = get_streak("dyadic")
        assert s.scale is None
        v = s.sample(Sampler(5).rng)
        for n in range(71):
            assert s.cmp(scale_value(s, n, v), _repeated_sum(s, n, v)) == 0


class TestInterpolate:
    def test_rational_midpoint(self):
        assert interpolate(RAT, q(0), q(1)).value == q(1, 2)

    def test_dyadic(self):
        dy = get_streak("dyadic")
        got = interpolate(dy, q(0), q(1))
        assert int(got.value.mantissa) == 1 and got.value.exponent == 1

    def test_not_dense(self):
        with pytest.raises(ValueError, match="does not interpolate"):
            interpolate(get_streak("nat"), q(0), q(1))

    def test_dense_substreak_interpolation(self):
        handle = dense_substreak(q(-1, 2))
        assert interpolate(handle, q(1, 4), q(1, 2)).value == q(3, 8)

    def test_dense_interpolation_builds_no_handle(self, monkeypatch):
        handle = dense_substreak(q(-1, 2))
        calls = []

        def counted(z):
            calls.append(z)
            return dense_substreak(z)

        monkeypatch.setattr("streaks.core.dense_substreak", counted)
        assert interpolate(handle, q(-3, 4), q(-1, 4)).value == q(-1, 2)
        assert calls == []


class TestDenseGenerate:
    def test_worked_values(self):
        z = q(-1, 2)
        assert dense_generate(z, q(1, 4), q(1, 2), 1 << 10).value == q(3, 8)
        assert dense_generate(z, q(0), q(1), 1 << 10).value == q(1, 2)
        assert dense_generate(z, q(-3, 4), q(-1, 4), 1 << 10).value == q(-1, 2)

    @pytest.mark.parametrize("budget", [12.9, "13"])
    def test_budget_is_read_as_an_integer(self, budget):
        with pytest.raises(TypeError):
            dense_generate(q(-1, 2), q(1, 4), q(1, 2), budget)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            dense_generate(q(-3, 2), q(0), q(1), 16)
        with pytest.raises(ValueError):
            dense_generate(q(-1, 2), q(1), q(0), 16)

    @given(
        a=st.builds(Rational, st.integers(-30, 30), st.integers(1, 10)),
        width=st.builds(Rational, st.integers(1, 20), st.integers(20, 60)),
    )
    @settings(max_examples=80, deadline=None)
    def test_lands_inside_interval(self, a, width):
        r = a + width
        got = dense_generate(q(-1, 2), a, r, 1 << 14).value
        assert a < got < r

    @given(
        den=st.integers(2, 9),
        num=st.integers(1, 8),
        a=st.builds(Rational, st.integers(-80, 20), st.integers(1, 7)),
        width=st.builds(Rational, st.integers(1, 30), st.integers(1, 40)),
        budget=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_shift_loop(self, den, num, a, width, budget):
        z = q(-min(num, den - 1), den)
        expected = _outcome(_reference_dense_value, z, a, a + width, budget)
        assert _outcome(_dense_value, z, a, a + width, budget) == expected

    def test_far_negative_interval_is_one_step(self):
        start = time.perf_counter()
        got = dense_generate(q(-1, 2), q(-10**6), q(-10**6) + q(1, 3), 10**7).value
        assert time.perf_counter() - start < 1.0
        assert q(-10**6) < got < q(-10**6) + q(1, 3)


def _reference_dense_value(z, q, r, budget):
    """The search before its shift was a closed form: n*z built by
    adding z until it drops below q."""
    if not q < r:
        raise ValueError("need q < r")
    if q > 0:
        return _dense_value(z, q, r, budget)
    shift = z
    n = 1
    while not shift < q:
        n += 1
        shift = shift + z
        if n > budget:
            raise BudgetExceeded("shift search exhausted")
    return _reference_dense_value(z, q - shift, r - shift, budget) + shift


def _outcome(search, z, q, r, budget):
    try:
        return search(z, q, r, budget)
    except BudgetExceeded as exc:
        return "BudgetExceeded: %s" % exc


def _broken_streak():
    base = get_streak("rat")
    return StreakHandle(
        name="broken",
        below=lambda q_, v, budget: YES,
        above=base.above,
        add=base.add,
        zero=base.zero,
        mul_pos=base.mul_pos,
        one=base.one,
        sample=base.sample,
        describe=str,
    )


class TestAxiomSuite:
    def test_rationals_pass(self):
        report = axiom_suite(RAT, Sampler(7), 60)
        assert report.passed, report.summary()

    def test_planted_fault_caught(self):
        report = axiom_suite(_broken_streak(), Sampler(7), 60)
        asym = next(law for law in report.laws if law.name == "asymmetry")
        assert not asym.passed

    def test_upper_makes_no_positive_draws(self):
        # upper cannot certify 0 < 1, so each trial draws a, b and c only
        upper = get_streak("upper")
        calls = []

        def sample(rng):
            calls.append(None)
            return upper.sample(rng)

        report = axiom_suite(dataclasses.replace(upper, sample=sample), Sampler(0), 20)
        assert report.passed, report.summary()
        assert len(calls) == 20 * 3

    def _shifted_real(self):
        """`real` with a + b off by 1/1000, too little for the first rationals
        of the enumeration to see."""
        real = get_streak("real")
        shift = real_from_rational(q(1, 1000))
        return dataclasses.replace(
            real, name="shifted", add=lambda u, v: real_add(real_add(u, v), shift)
        )

    def test_shifted_real_addition_is_killed(self):
        report = axiom_suite(self._shifted_real(), Sampler(1), 40)
        failing = {law.name for law in report.laws if not law.passed}
        assert "add-identity" in failing, report.summary()

    def test_equality_trusts_subtraction(self):
        # the semidecidable order reads the sign of sub, so a sub that
        # answers 0 hides the shifted addition
        shifted = self._shifted_real()
        masked = dataclasses.replace(shifted, sub=lambda u, v: shifted.zero)
        assert axiom_suite(masked, Sampler(1), 40).passed

    def test_report_lists_all_laws(self):
        report = axiom_suite(RAT, Sampler(0), 5)
        names = {law.name for law in report.laws}
        assert {"boundedness", "asymmetry", "distributivity", "add-monotone"} <= names


SAMPLER_RANGES = [(-24, 24), (1, 12), (-15, 15), (0, 15), (1, 4), (0, 5), (1, 9), (-12, 12)]


class TestSampler:
    @pytest.mark.parametrize("seed", range(10))
    def test_draws_follow_the_random_stream(self, seed):
        # the law suites' draws are pinned by the digests of their seeds
        for lo, hi in SAMPLER_RANGES:
            ours, reference = Sampler(seed).rng, random.Random(seed)
            got = [ours.randint(lo, hi) for _ in range(2000)]
            assert got == [reference.randint(lo, hi) for _ in range(2000)], (lo, hi)

    @pytest.mark.parametrize("lo, hi", [(1, 0), (5, -5)])
    def test_empty_range_raises(self, lo, hi):
        with pytest.raises(ValueError):
            Sampler(0).rng.randint(lo, hi)

    @pytest.mark.parametrize("name", [
        "nat", "int", "rat", "dyadic", "real", "lower", "ring:nat", "ring:int",
        "ring:rat", "ring:real", "field:rat", "field:int", "field:ring:nat",
        "finmeet:rat", "finjoin:rat",
    ])
    def test_positive_draws_are_certified(self, name):
        s = get_streak(name)
        sampler = Sampler(0)
        for _ in range(300):
            e = sampler.positive_element(s, 12)
            assert s.below(q(0), e.value, 12) is YES, e

    def test_reflected_draws_match_rejected_ones(self):
        # int draws uniformly from -15..15, so negating a negative draw
        # hits 1..15 as often as redrawing does
        s = get_streak("int")
        rejecting = dataclasses.replace(s, neg=None)

        def counts(streak, seed):
            sampler = Sampler(seed)
            drawn = collections.Counter(
                sampler.positive_element(streak, 12).value for _ in range(30000)
            )
            assert sorted(drawn) == list(range(1, 16))
            return drawn

        reflected, rejected = counts(s, 1), counts(rejecting, 2)
        for v in range(1, 16):
            assert abs(reflected[v] - rejected[v]) <= rejected[v] / 10, v


LAW_NAMES = (
    "boundedness", "cotransitivity-below", "cotransitivity-above", "cotransitivity-split",
    "roundedness-below", "roundedness-above", "asymmetry", "extensionality",
    "add-commutative", "add-associative", "add-identity", "mul-commutative",
    "mul-associative", "mul-identity", "distributivity", "add-monotone",
    "add-monotone-above", "mul-monotone", "mul-monotone-above",
)


NEEDS_POSITIVES = {
    "mul-commutative", "mul-associative", "mul-identity", "distributivity",
    "mul-monotone", "mul-monotone-above",
}
# `sample` calls of each suite below and the sampler's next rational after it
DRAWS = {
    "ring:rat": (240, q(-1, 2)), "field:ring:nat": (250, q(5, 12)), "rat": (243, q(-9, 11)),
    "real": (243, q(-9, 11)), "upper": (120, q(1)), "lower": (358, q(1, 6)),
}


class TestLawSuiteWork:
    """Top-level `below` / `above` calls of a 40-trial suite, counted with
    no timing: each trial asks the two cuts of a at q once, a decidable
    element keeps its bound and grids, and a cleared lift adds no zero
    term.  Each suite's summary is pinned beside its count; the bounds
    sit under the 2,132, 2,163 and 2,176 calls that one `locate` per grid
    and one probe per law made.  Negating certified-negative draws, at one
    `below(0, one)` per suite, took the counts from 1,232, 1,159 and 1,208
    to 1,174, 1,093 and 1,129.  `real`, `upper` and `lower` are bounded by
    the 1,055, 141 and 483 calls they made when the laws became a table;
    `upper` certifies no positive, so its multiplicative laws run on no
    trial.  The number of `sample` calls and the sampler's next rational
    pin the order of the draws.

    Top-level `add` and `mul_pos` calls are pinned exactly.  A trial forms
    a + b and pa * pb once for all the laws that read them: 8 sums and 8
    products with three positives, 6 sums with none.  When each law
    formed its own, `add` / `mul_pos` were 381 / 421 on `ring:rat`,
    381 / 418 on `field:ring:nat`, `rat` and `real`, 370 / 415 on `lower`
    and 294 / 0 on `upper`; now they are 320 / 320, and 240 / 0 on
    `upper`."""

    @pytest.mark.parametrize("name, bound", [
        ("ring:rat", 1300), ("field:ring:nat", 1250), ("rat", 1300),
        ("real", 1055), ("upper", 141), ("lower", 483),
    ])
    def test_probes_and_summary(self, name, bound):
        s = get_streak(name)
        calls = collections.Counter()

        def counted_as(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        counted = dataclasses.replace(
            s, below=counted_as("probe", s.below), above=counted_as("probe", s.above),
            sample=counted_as("sample", s.sample), add=counted_as("add", s.add),
            mul_pos=counted_as("mul_pos", s.mul_pos),
        )
        sampler = Sampler(1)
        report = axiom_suite(counted, sampler, 40)
        assert calls["probe"] <= bound, calls["probe"]
        assert (calls["sample"], sampler.rational()) == DRAWS[name]
        assert (calls["add"], calls["mul_pos"]) == ((240, 0) if name == "upper" else (320, 320))
        assert report.summary() == "\n".join(["streak %s: pass" % name] + [
            "  %s: %d trials ok" % (law, 0 if name == "upper" and law in NEEDS_POSITIVES else 40)
            for law in LAW_NAMES
        ])


def _probe_draws(s, whole=False):
    """100 seed-1 draws of a value of s and a rational to probe it with,
    or, where `whole`, the floor of that rational as an int."""
    sampler = Sampler(1)
    draws = []
    for _ in range(100):
        v, r = sampler.element(s).value, sampler.rational()
        draws.append((v, r.num // r.den if whole else r))
    return draws


def _frames(fn):
    """Python frames that fn() enters, counted as `sys.setprofile` call
    events, fn's own included.  Garbage collection is off while counting:
    Hypothesis registers a gc callback whose calls would count as frames."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0]


# name: frames of 100 probes at rational bounds, then at integer bounds
PROBE_FRAMES = {
    "nat": (200, 100), "int": (200, 100), "rat": (200, 200), "dyadic": (400, 400),
    "ring:nat": (300, 300), "ring:rat": (836, 782), "field:rat": (745, 740),
    "field:ring:nat": (1008, 1008),
}


class TestProbeWork:
    """Python frames that 100 `below` probes of seed-1 samples enter, at
    rational bounds and at the floors of those bounds as ints.  A decidable
    handle compares an int or Rational bound directly, `Rational`'s order
    takes an int in its own frame, a lift reads an int bound as q/1, and a
    lift binds its base's `cmp` and n-fold sum when built, so a probe costs
    one frame per layer.

    When the probes converted every bound with `_as_rat` and reached the
    base through a three-way comparison helper and `scale_value`, they
    entered 400 (nat), 300 (rat), 800 (dyadic), 897 (ring:nat), 1,815
    (ring:rat), 1,586 (field:rat) and 2,428 (field:ring:nat) frames.
    Before `Rational`'s order took an int in one frame and the lifts read
    an int bound inline (building a Rational for it in `_as_rat`), the
    rational bounds cost 300 (nat, int), 200 (rat), 500 (dyadic, ring:nat),
    1,036 (ring:rat), 945 (field:rat) and 1,208 (field:ring:nat) frames,
    and the integer bounds 100 (nat, int), 300 (rat), 600 (dyadic,
    ring:nat), 1,082 (ring:rat), 1,040 (field:rat) and 1,308
    (field:ring:nat)."""

    @pytest.mark.parametrize("name", sorted(PROBE_FRAMES))
    @pytest.mark.parametrize("whole", [False, True], ids=["rational", "int"])
    def test_frames_per_probe(self, name, whole):
        s = get_streak(name)
        draws = _probe_draws(s, whole)

        def probes():
            for v, bound in draws:
                s.below(bound, v, 8)

        frames = _frames(probes) - 1  # the loop's own frame
        assert frames <= PROBE_FRAMES[name][whole], frames

    @pytest.mark.parametrize("name", ["dyadic", "ring:nat", "field:rat", "field:ring:nat"])
    @pytest.mark.parametrize("whole", [False, True], ids=["rational", "int"])
    def test_probes_build_no_rational(self, monkeypatch, name, whole):
        # the bound is read as it is: building Rational(q) cost 100 here at
        # rational bounds on dyadic, and at integer bounds on all four
        s = get_streak(name)
        draws = _probe_draws(s, whole)
        built = [0]
        init = Rational.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(Rational, "__init__", counted)
        for v, bound in draws:
            s.below(bound, v, 8)
        monkeypatch.undo()
        assert built[0] == 0


SUITE_CALLS = {
    "nat": 7600, "int": 7800, "rat": 9800, "dyadic": 15500, "ring:nat": 15000,
    "lower": 19400, "upper": 6000,
}


class TestSuiteWork:
    """Python calls of a seed-1, 40-trial `axiom_suite`, counted as
    `sys.setprofile` call events with the handle already built.  Asking
    integer grid points as ints, `Rational`'s order taking an int in one
    frame, the lifts reading an int bound inline and `_run_laws` counting
    trials in its own loop took them from 10,821 to 7,516 (nat), 11,450 to
    7,719 (int), 11,122 to 9,770 (rat), 17,858 to 15,483 (dyadic) and
    19,528 to 14,976 (ring:nat).  Building every one-sided value through
    one constructor with no per-value `functools.cache`, and comparing an
    int bound as it is, took them from 22,328 to 19,308 (lower) and 6,834
    to 5,894 (upper).  Each bound sits at most 100 above."""

    @pytest.mark.parametrize("name", sorted(SUITE_CALLS))
    def test_calls_per_suite(self, name):
        s = get_streak(name)
        calls = _frames(lambda: axiom_suite(s, Sampler(1), 40)) - 1  # the lambda
        assert calls <= SUITE_CALLS[name], calls


class TestMorphismCheck:
    def test_identity_passes(self):
        report = morphism_check(lambda x: x, RAT, RAT, Sampler(3), 40)
        assert report.passed, report.summary()

    def test_shift_is_not_a_morphism(self):
        shift = lambda x: x + rat_elem(1)
        report = morphism_check(shift, RAT, RAT, Sampler(3), 40)
        assert not report.passed

    def test_rational_inclusion_into_reals(self):
        real = get_streak("real")
        from streaks.real import real_from_rational

        include = lambda x: Element(real, real_from_rational(x.value))
        report = morphism_check(include, RAT, real, Sampler(5), 25, budget=24)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("image, additive", [
        (lambda v: v + q(1), False), (lambda v: v * q(2), True),
    ], ids=["plus-one", "double"])
    def test_one_sided_branch_catches_bad_maps_into_reals(self, image, additive):
        # `real` is semidecidable, so the bound laws compare YES answers
        # both ways: a cut of f(x) that x's cut contradicts is "reflected"
        real = get_streak("real")
        f = lambda x: Element(real, real_from_rational(image(x.value)))
        report = morphism_check(f, RAT, real, Sampler(5), 25, budget=24)
        laws = {law.name: law for law in report.laws}
        for name in ("preserves-lower-bounds", "preserves-upper-bounds"):
            assert not laws[name].passed, report.summary()
        assert laws["additive"].passed is additive, report.summary()
        assert any(
            ctx.endswith("(reflected)")
            for law in report.laws for ctx in law.failures
        ), report.summary()

    def test_each_cut_is_asked_once_per_rational(self):
        # a bound row asks the source and the target cut once at each of
        # the 2 * budget + 1 rationals; on two decidable streaks `known`
        # asks nothing more, and `additive` reads `eq`, so the identity
        # on rat makes 20 trials * 2 rows * 25 rationals * 2 cuts probes;
        # into `real` it adds one apartness pair (below, above) per trial
        def counted(s):
            def count(probe):
                return lambda *args: calls.append(s.name) or probe(*args)
            return dataclasses.replace(s, below=count(s.below), above=count(s.above))

        calls = []
        rat = counted(RAT)
        assert morphism_check(lambda x: x, rat, rat, Sampler(3), 20).passed
        assert len(calls) == 20 * 2 * 25 * 2
        real = counted(get_streak("real"))
        include = lambda x: Element(real, real_from_rational(x.value))
        calls.clear()
        assert morphism_check(include, rat, real, Sampler(5), 25, budget=24).passed
        assert len(calls) == 25 * 2 * 49 * 2 + 25 * 2

    def test_additive_is_an_equation_on_decidable_targets(self):
        # apartness at budget 12 cannot see an error of x^2/1000; eq can
        f = lambda x: Element(RAT, x.value + x.value * x.value / q(1000))
        report = morphism_check(f, RAT, RAT, Sampler(3), 40)
        additive = {law.name: law for law in report.laws}["additive"]
        assert len(additive.failures) == 36, report.summary()
        assert additive.failures[0].startswith("f(x+y) vs f(x)+f(y): ")
