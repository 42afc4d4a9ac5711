"""Tests for the streak-building constructors (completions and lifts)."""

import dataclasses
import inspect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streaks.core import NO, YES, ApartnessUndecided, Element, Order, StreakHandle, nat_scale, strict_lt
from streaks.rational import Rational
from streaks.reflections import (
    Dyadic,
    FiniteSubset,
    FormalDifference,
    FormalFraction,
    approx_eq,
    arch_lt,
    arch_member,
    field_lift,
    halved_lift,
    pos_part,
    positive_representative,
    ring_lift,
    subset_lt_exists_forall,
    subset_lt_forall_exists,
)
from streaks.registry import get_streak

RAT = get_streak("rat")


def q(*args):
    return Rational(*args)


class TestPosPart:
    def test_accepts_positive_and_zero(self):
        pos = pos_part(RAT)
        assert pos.make(q(3, 2)) == q(3, 2)
        assert pos.make(q(0)) == q(0)

    def test_rejects_negative(self):
        pos = pos_part(RAT)
        with pytest.raises(ApartnessUndecided, match="not certified >= 0"):
            pos.make(q(-1))

    def test_zero_absorbs(self):
        pos = pos_part(RAT)
        assert pos.mul_total(q(0), q(5, 2)) == q(0)
        assert pos.mul_total(q(5, 2), q(0)) == q(0)

    def test_multiplicity_condition_instance(self):
        # with b < a and d < c the cross products satisfy ad + bc < ac + bd
        a, b, c, d = q(3), q(1), q(4), q(2)
        assert a * d + b * c == q(10)
        assert a * c + b * d == q(14)
        assert a * d + b * c < a * c + b * d

    @given(
        a=st.integers(1, 30), gap1=st.integers(1, 10),
        c=st.integers(1, 30), gap2=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_condition_random(self, a, gap1, c, gap2):
        b, d = a - gap1, c - gap2  # b < a and d < c
        assert a * d + b * c < a * c + b * d


def _unbounded_stub():
    # an element no integer ever bounds: both comparisons always fail
    return StreakHandle(
        name="stub",
        below=lambda q_, v, budget: NO,
        above=lambda v, q_, budget: NO,
        add=lambda u, v: u,
        zero=0,
        mul_pos=lambda u, v: u,
        one=1,
        describe=str,
    )


class TestArchFilter:
    def test_member_worked_values(self):
        assert arch_member(Element(RAT, q(100)), 128) == 101
        assert arch_member(Element(RAT, q(0)), 128) == 1

    def test_member_unbounded_stub(self):
        stub = _unbounded_stub()
        for budget in (4, 32, 128):
            assert arch_member(Element(stub, 0), budget) is None

    @staticmethod
    def _scan_member(x, budget):
        """The linear scan `arch_member` once ran: the first n in
        1..budget with x < n and -n < x, two probes each."""
        s, v = x.streak, x.value
        for n in range(1, budget + 1):
            if s.above(v, q(n), budget) is YES and s.below(q(-n), v, budget) is YES:
                return n
        return None

    @given(
        name=st.sampled_from(["rat", "int", "ring:nat", "field:rat", "finmeet:rat"]),
        num=st.integers(-300, 300),
        den=st.integers(1, 7),
        budget=st.integers(-2, 400),
    )
    @settings(max_examples=200, deadline=None)
    def test_member_matches_the_scan(self, name, num, den, budget):
        v = q(num, den)
        value = {
            "rat": v,
            "int": num,
            "ring:nat": FormalDifference(max(num, 0) + 2, max(-num, 0) + 2),
            "field:rat": FormalFraction(v * 5, q(5)),
            "finmeet:rat": FiniteSubset([v + 3, v]),
        }[name]
        x = Element(get_streak(name), value)
        assert arch_member(x, budget) == self._scan_member(x, budget)

    def test_lt_worked_values(self):
        assert arch_lt(Element(RAT, q(0)), Element(RAT, q(1)), 64) == 2
        assert arch_lt(Element(RAT, q(1, 2)), Element(RAT, q(2, 3)), 64) == 7

    def test_lt_irreflexive(self):
        x = Element(RAT, q(5, 7))
        assert arch_lt(x, Element(RAT, q(5, 7)), 32) is None


class TestFiniteSubsets:
    def test_nonempty_enforced(self):
        with pytest.raises(ValueError, match="finite subsets here are inhabited"):
            FiniteSubset([])

    def test_order_scan(self):
        A = FiniteSubset([q(1), q(3)])
        B = FiniteSubset([q(4), q(7)])
        assert subset_lt_exists_forall(RAT, A, B)
        assert subset_lt_forall_exists(RAT, A, B)
        assert not subset_lt_exists_forall(RAT, B, A)

    def test_quantifier_forms_agree_on_samples(self):
        grid = [q(0), q(1), q(1, 2), q(-1), q(3, 2)]
        subsets = [
            FiniteSubset(list(c))
            for size in (1, 2, 3)
            for c in itertools.combinations(grid, size)
        ]
        for A in subsets:
            for B in subsets:
                assert subset_lt_exists_forall(RAT, A, B) == subset_lt_forall_exists(
                    RAT, A, B
                )

    @pytest.mark.parametrize("order", [subset_lt_exists_forall, subset_lt_forall_exists])
    def test_quantifier_forms_need_a_decidable_base(self, order):
        from streaks.real import real_from_rational

        A = FiniteSubset([real_from_rational(q(1))])
        B = FiniteSubset([real_from_rational(q(2))])
        with pytest.raises(ValueError, match="require a decidable base streak"):
            order(get_streak("real"), A, B)


class TestMeetLift:
    def setup_method(self):
        self.meet = get_streak("finmeet:rat")

    def test_duplicates_collapse(self):
        assert self.meet.eq(FiniteSubset([q(0), q(0)]), FiniteSubset([q(0)]))

    def test_infimum_semantics(self):
        # the class of a set behaves as its minimum, so a dominated
        # entry does not change the element
        assert self.meet.eq(FiniteSubset([q(0), q(5)]), FiniteSubset([q(0)]))

    def test_inf_is_union_with_min_cut(self):
        both = self.meet.inf(FiniteSubset([q(1), q(4)]), FiniteSubset([q(2), q(3)]))
        # rational lower bounds of the union match those of min = 1
        assert self.meet.below(q(1, 2), both, 0) is YES
        assert self.meet.below(q(1), both, 0) is NO
        assert self.meet.above(both, q(3, 2), 0) is YES

    def test_bounds_algebra_interaction(self):
        # inf A + inf B = inf of the pairwise sums, exhaustively on
        # small subsets
        grid = [q(0), q(1), q(-1), q(1, 2)]
        subsets = [
            list(c)
            for size in (1, 2, 3)
            for c in itertools.combinations(grid, size)
        ]
        for A in subsets:
            for B in subsets:
                summed = self.meet.add(FiniteSubset(A), FiniteSubset(B))
                assert min(summed.elements) == min(A) + min(B)


class TestJoinLift:
    def setup_method(self):
        self.join = get_streak("finjoin:rat")

    def test_sup_concatenates_with_max_cut(self):
        both = self.join.sup(FiniteSubset([q(1)]), FiniteSubset([q(4)]))
        assert both.elements == [q(1), q(4)]
        assert self.join.above(both, q(5), 0) is YES
        assert self.join.above(both, q(3), 0) is NO
        assert self.join.below(q(7, 2), both, 0) is YES

    def test_dominated_entry_removal(self):
        assert self.join.eq(FiniteSubset([q(2), q(-9)]), FiniteSubset([q(2)]))

    def test_positive_representative(self):
        kept = positive_representative(RAT, FiniteSubset([q(-1), q(1, 2)]))
        assert kept.elements == [q(1, 2)]

    def test_positive_representative_needs_positive_entry(self):
        with pytest.raises(ApartnessUndecided, match="no positive entry found"):
            positive_representative(RAT, FiniteSubset([q(-1), q(0)]))


class TestRingLift:
    def setup_method(self):
        self.ring = get_streak("ring:rat")

    def test_product_worked_value(self):
        u = FormalDifference(q(5), q(2))
        v = FormalDifference(q(1), q(4))
        got = self.ring.mul_total(u, v)
        # (5-2)(1-4) = -9
        assert self.ring.cmp(got, FormalDifference(q(0), q(9))) == 0

    def test_additive_inverse(self):
        u = FormalDifference(q(7, 3), q(1))
        total = self.ring.add(u, self.ring.neg(u))
        assert self.ring.cmp(total, FormalDifference(q(0), q(0))) == 0

    def test_rho_translates_bounds(self):
        embedded = self.ring.rho(q(1, 2))
        assert self.ring.below(q(1, 3), embedded, 8) is YES
        assert self.ring.below(q(1, 2), embedded, 8) is NO
        assert self.ring.above(embedded, q(2, 3), 8) is YES

    def test_rho_shift_choice_is_irrelevant(self):
        # any valid shift n gives an equivalent pair
        embedded = self.ring.rho(q(1, 2))
        shifted = FormalDifference(q(1, 2) + q(5), q(5))
        assert self.ring.cmp(embedded, shifted) == 0

    def test_order_formula(self):
        u = FormalDifference(q(1), q(0))
        v = FormalDifference(q(2), q(0))
        assert self.ring.cmp(u, v) == -1

    def test_product_over_a_total_base_product_tests_no_zero(self):
        # `nat` multiplies totally, so no factor is compared with zero
        nat = get_streak("nat")
        asked = []
        base = dataclasses.replace(nat, eq=lambda u, v: asked.append((u, v)) or u == v)
        got = ring_lift(base).mul_total(FormalDifference(0, 3), FormalDifference(5, 0))
        # (0 - 3)(5 - 0) = (0*5 + 3*0) - (0*0 + 3*5)
        assert (got.pos, got.neg) == (0, 15)
        assert asked == []

    def test_product_over_a_base_without_total_product_skips_zero_factors(self):
        # `lower` has no mul_total: a part with a zero factor is the base
        # zero, and only a product of two non-zero parts reaches mul_pos
        lower = get_streak("lower")
        calls, added = [], []

        def mul_pos(u, v):
            calls.append((u, v))
            return lower.mul_pos(u, v)

        def add(u, v):
            added.append((u, v))
            return lower.add(u, v)

        base = dataclasses.replace(lower, mul_pos=mul_pos, add=add)
        assert base.mul_total is None
        ring = ring_lift(base)
        zero, one = base.zero, base.one
        ring.mul_total(FormalDifference(zero, zero), FormalDifference(one, one))
        assert calls == []
        assert len(added) == 2 and all(u is zero and v is zero for u, v in added)
        ring.mul_total(FormalDifference(one, zero), FormalDifference(one, zero))
        assert calls == [(one, one)]


class TestFieldLift:
    def setup_method(self):
        self.field = get_streak("field:ring:nat")
        self.int_field = None

    def _fraction_over_int(self, num, den):
        # formal fraction over the canonical integer tower
        fd = lambda n: FormalDifference(max(n, 0), max(-n, 0))
        return self.field.make(fd(num), fd(den))

    def test_positive_reciprocal_swaps(self):
        v = self._fraction_over_int(3, 4)
        r = self.field.recip(v)
        assert self.field.cmp(r, self._fraction_over_int(4, 3)) == 0

    def test_negative_reciprocal(self):
        v = self._fraction_over_int(-2, 5)
        r = self.field.recip(v)
        assert self.field.cmp(r, self._fraction_over_int(-5, 2)) == 0

    def test_zero_has_no_reciprocal(self):
        with pytest.raises(ApartnessUndecided, match="reciprocal of .* undecided"):
            self.field.recip(self._fraction_over_int(0, 1))

    def test_order_cross_multiplies(self):
        assert self.field.cmp(
            self._fraction_over_int(1, 2), self._fraction_over_int(2, 3)
        ) == -1

    def test_needs_a_ring(self):
        # the naturals have a total product but no negation
        with pytest.raises(ValueError, match="ring streak"):
            field_lift(get_streak("nat"))


class TestHalvedLift:
    def setup_method(self):
        self.dy = get_streak("dyadic")

    def test_addition_aligns_exponents(self):
        got = self.dy.add(Dyadic(3, 1), Dyadic(1, 2))
        # 3/2 + 1/4 = 7/4
        assert int(got.mantissa) == 7 and got.exponent == 2

    def test_order_formula(self):
        assert self.dy.cmp(Dyadic(1, 2), Dyadic(1, 1)) == -1

    def test_needs_a_ring(self):
        with pytest.raises(ValueError, match="ring streak"):
            halved_lift(get_streak("nat"))

    @pytest.mark.parametrize("exponent", [1.5, "1"])
    def test_non_integer_exponents_raise(self, exponent):
        # int() would truncate 1.5 to 1
        with pytest.raises(TypeError):
            Dyadic(1, exponent)

    def test_repeated_halving(self):
        quarter = self.dy.half(self.dy.half(Dyadic(1, 0)))
        assert int(quarter.mantissa) == 1 and quarter.exponent == 2

    @given(
        m1=st.integers(-40, 40), e1=st.integers(0, 6),
        m2=st.integers(-40, 40), e2=st.integers(0, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_embeds_in_rationals_homomorphically(self, m1, e1, m2, e2):
        to_rat = lambda d: Rational(int(d.mantissa), 2 ** d.exponent)
        u, v = Dyadic(m1, e1), Dyadic(m2, e2)
        assert to_rat(self.dy.add(u, v)) == to_rat(u) + to_rat(v)
        assert to_rat(self.dy.mul_total(u, v)) == to_rat(u) * to_rat(v)
        c = self.dy.cmp(u, v)
        oracle = (to_rat(u) > to_rat(v)) - (to_rat(u) < to_rat(v))
        assert c == oracle


@pytest.mark.parametrize("lift", [field_lift, halved_lift])
def test_lifts_refuse_a_total_product_without_negation(lift):
    # pos_part(rat) multiplies totally but has no neg, which both lifts
    # call: the field to negate a numerator, the halved ring to embed -1
    with pytest.raises(ValueError, match=r"^%s needs a ring streak \(negation and total "
                       r"multiplication\)$" % lift.__name__):
        lift(pos_part(RAT))


class TestApproxEq:
    def test_equivalent_difference_pairs(self):
        ring = get_streak("ring:rat")
        x = Element(ring, FormalDifference(q(2), q(5)))
        y = Element(ring, FormalDifference(q(0), q(3)))
        assert approx_eq(x, y, 32) is True

    def test_distinct_fractions_apart(self):
        field = get_streak("field:ring:nat")
        fd = lambda n: FormalDifference(max(n, 0), max(-n, 0))
        x = Element(field, field.make(fd(1), fd(2)))
        y = Element(field, field.make(fd(1), fd(3)))
        assert approx_eq(x, y, 64) is False

    def test_matching_reals_never_apart(self):
        real = get_streak("real")
        from streaks.real import real_from_rational

        x = Element(real, real_from_rational(q(1, 3)))
        y = Element(real, real_from_rational(q(1, 3)))
        for budget in (4, 16, 64):
            assert approx_eq(x, y, budget) is True


class TestReflectionCommutation:
    def test_meet_of_ring_matches_ring_of_meet_on_cuts(self):
        # lifting to finite meets before or after the difference
        # construction answers rational cut queries identically for
        # singleton-backed samples
        from streaks.reflections import finset_meet_lift, ring_lift

        meet_of_ring = finset_meet_lift(get_streak("ring:rat"))
        ring_of_meet = ring_lift(get_streak("finmeet:rat"))
        probes = [q(-2), q(-1, 2), q(0), q(1, 3), q(1), q(5, 2)]
        values = [q(-3, 2), q(0), q(1), q(7, 4)]
        for v in values:
            a = FiniteSubset([FormalDifference(v, q(0))])
            b = FormalDifference(FiniteSubset([v]), FiniteSubset([q(0)]))
            for p in probes:
                assert meet_of_ring.below(p, a, 8) is ring_of_meet.below(p, b, 8)
                assert meet_of_ring.above(a, p, 8) is ring_of_meet.above(b, p, 8)


# -- lifts over semidecidable bases ----------------------------------------


class TestSemidecidableZero:
    def test_ring_of_reals_passes_its_law_suite(self):
        from streaks.core import Sampler, axiom_suite

        for name in ("ring:real", "ring:ring:real", "field:ring:real"):
            for seed in (0, 3, 7):
                report = axiom_suite(get_streak(name), Sampler(seed), 10)
                assert report.passed, report.summary()

    def test_a_tower_probe_asks_the_reals_a_few_times(self, monkeypatch):
        # each level compares through one difference, so one probe of a
        # two-level tower is at most two probes of `ring:real`, each at
        # most two probes of `real`
        import streaks.real as real

        calls = []
        real_cmp_rat = real.real_cmp_rat

        def counted(*args):
            calls.append(args)
            return real_cmp_rat(*args)

        monkeypatch.setattr(real, "real_cmp_rat", counted)
        tower = get_streak("ring:ring:real")
        for seed in range(5):
            u = tower.sample(random.Random(seed))
            calls.clear()
            tower.below(q(1, 3), u, 8)
            assert len(calls) <= 4

    # (raw refinements, YES from below, YES from above) over 40 seeded
    # probe pairs at budget 8 on fresh handles, whose shared constants
    # carry no refinement from other tests
    @pytest.mark.parametrize("name, pinned", [
        ("ring:real", (1054, 17, 23)),
        ("field:ring:real", (1888, 19, 21)),
    ])
    def test_fallback_probes_are_pinned(self, monkeypatch, name, pinned):
        import streaks.real as real
        from streaks.core import sample_rational

        raws = []

        class Counted(real.RefinedReal):
            __slots__ = ()

            def __init__(self, raw):
                super().__init__(lambda n: raws.append(n) or raw(n))

        monkeypatch.setattr(real, "RefinedReal", Counted)
        s = ring_lift(real.real_streak_handle())
        if name == "field:ring:real":
            s = field_lift(s)
        counts = [0, 0, 0]
        for seed in range(40):
            rng = random.Random(seed)
            v, bound = s.sample(rng), sample_rational(rng)
            del raws[:]
            below, above = s.below(bound, v, 8), s.above(v, bound, 8)
            counts[0] += len(raws)
            value = _denoted(name, v)
            if below is YES:
                counts[1] += 1
                assert Fraction(bound.num, bound.den) < value
            if above is YES:
                counts[2] += 1
                assert value < Fraction(bound.num, bound.den)
        assert tuple(counts) == pinned

    def test_negative_real_is_not_positive(self):
        from streaks.real import real_from_rational

        with pytest.raises(ApartnessUndecided, match="not certified >= 0"):
            pos_part(get_streak("real")).make(real_from_rational(q(-1)))

    def test_real_zero_is_zero(self):
        from streaks.real import real_from_rational

        zero = real_from_rational(q(0))
        assert pos_part(get_streak("real")).make(zero) is get_streak("real").zero

    def test_rho_of_a_negative_real_shifts_to_zero(self):
        from streaks.real import real_from_rational

        ring = get_streak("ring:real")
        embedded = ring.rho(real_from_rational(q(-3)))
        # describe prints each running interval as it stands: the shift 3
        # was never refined, since rho only tested the shifted value
        assert ring.describe(embedded) == "(RefinedReal[0, 0] - RefinedReal[unrefined])"
        assert embedded.neg.refine(1) == (q(3), q(3))
        assert ring.describe(embedded) == "(RefinedReal[0, 0] - RefinedReal[3, 3])"


# -- reflections depend on their base alone --------------------------------


def _denoted(name, v):
    """The rational a tower value denotes, read from its representative."""
    if name in ("nat", "int"):
        return Fraction(v)
    if name == "rat":
        return Fraction(v.num, v.den)
    if name == "real":
        lo, hi = v.refine(1)  # a sampled real is an exact rational
        assert lo == hi
        return Fraction(lo.num, lo.den)
    if name == "dyadic":
        return Fraction(v.mantissa, 2**v.exponent)
    prefix, _, base = name.partition(":")
    if prefix == "ring":
        return _denoted(base, v.pos) - _denoted(base, v.neg)
    if prefix == "field":
        return _denoted(base, v.num) / _denoted(base, v.den)
    entries = [_denoted(base, a) for a in v.elements]
    return min(entries) if prefix == "finmeet" else max(entries)


_CHAIN_OPS = {
    "add": lambda s, u, v: s.add(u, v),
    "mul_total": lambda s, u, v: s.mul_total(u, v),
    "sub": lambda s, u, v: s.sub(u, v),
}
_ORACLE_OPS = {
    "add": lambda a, b: a + b,
    "mul_total": lambda a, b: a * b,
    "sub": lambda a, b: a - b,
}


class TestTowerRepresentatives:
    @given(
        name=st.sampled_from(["ring:nat", "field:ring:nat", "dyadic"]),
        seed=st.integers(0, 2**32),
        chain=st.lists(
            st.tuples(st.sampled_from(["add", "mul_total", "neg", "sub"]), st.booleans()),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_chains_agree_with_fractions(self, name, seed, chain):
        # a binary step takes a fresh sample or, to exercise shared
        # denominators, the accumulated value itself
        s = get_streak(name)
        rng = random.Random(seed)
        acc = s.sample(rng)
        value = _denoted(name, acc)
        for op, fresh in chain:
            if op == "neg":
                acc, value = s.neg(acc), -value
                other, other_value = s.zero, Fraction(0)
            else:
                other = s.sample(rng) if fresh else acc
                other_value = _denoted(name, other)
                acc = _CHAIN_OPS[op](s, acc, other)
                value = _ORACLE_OPS[op](value, other_value)
            assert _denoted(name, acc) == value
            expected = (value > other_value) - (value < other_value)
            assert s.cmp(acc, other) == expected
            assert s.eq(acc, other) == (expected == 0)

    def test_n_fold_sum_keeps_the_denominator_small(self):
        field = get_streak("field:ring:nat")
        x = field.make(FormalDifference(2, 5), FormalDifference(7, 0))  # -3/7
        total = nat_scale(10**5, Element(field, x)).value
        assert _denoted("field:ring:nat", total) == Fraction(-3 * 10**5, 7)
        parts = (total.num.pos, total.num.neg, total.den.pos, total.den.neg)
        assert max(p.bit_length() for p in parts) < 1000

    def test_sum_over_a_shared_denominator_adds_numerators(self):
        field = get_streak("field:ring:nat")
        x = field.make(FormalDifference(3, 0), FormalDifference(4, 0))
        doubled = field.add(x, x)
        assert doubled.den is x.den
        assert _denoted("field:ring:nat", doubled) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "lift", [ring_lift, field_lift, halved_lift, pos_part],
    )
    def test_lifts_take_only_their_base(self, lift):
        assert len(inspect.signature(lift).parameters) == 1

    def test_capabilities_take_one_value(self):
        assert list(inspect.signature(positive_representative).parameters) == ["streak", "A"]
        assert len(inspect.signature(get_streak("ring:nat").rho).parameters) == 1
        assert len(inspect.signature(get_streak("field:ring:nat").recip).parameters) == 1

    @pytest.mark.parametrize(
        "name, build",
        [
            ("ring:nat", lambda: ring_lift(get_streak("nat"))),
            ("ring:int", lambda: ring_lift(get_streak("int"))),
            ("field:ring:nat", lambda: field_lift(ring_lift(get_streak("nat")))),
            ("field:rat", lambda: field_lift(get_streak("rat"))),
            ("dyadic", lambda: halved_lift(get_streak("int"))),
        ],
    )
    def test_registry_names_are_the_lift_of_their_base(self, name, build):
        assert _shown(build()) == _shown(get_streak(name))


class TestLiftProbes:
    """Each lift's `below` / `above` against the exact rational its value
    denotes, at both a zero and a positive budget, and its `cmp` against
    the exact difference of two values."""

    @given(
        name=st.sampled_from([
            "ring:nat", "ring:rat", "field:rat", "field:ring:nat", "dyadic",
            "finmeet:rat", "finjoin:rat",
        ]),
        seed=st.integers(0, 2**32),
        chain=st.lists(st.sampled_from(["add", "mul_total", "neg"]), max_size=3),
        num=st.integers(-40, 40),
        den=st.integers(1, 12),
        budget=st.sampled_from([0, 8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_probes_agree_with_exact_fractions(self, name, seed, chain, num, den, budget):
        s = get_streak(name)
        rng = random.Random(seed)
        v = s.sample(rng)
        for op in chain:
            if op == "neg":
                if s.neg is not None:
                    v = s.neg(v)
            elif getattr(s, op) is not None:
                v = getattr(s, op)(v, s.sample(rng))
        w = s.sample(rng)
        value, bound = _denoted(name, v), Fraction(num, den)
        assert (s.below(q(num, den), v, budget) is YES) == (bound < value)
        assert (s.above(v, q(num, den), budget) is YES) == (value < bound)
        gap = value - _denoted(name, w)
        assert s.cmp(v, w) == (gap > 0) - (gap < 0)


def _shown(s):
    """What `describe` prints for a fixed run of sampled operations."""
    rng = random.Random(11)
    shown = []
    for _ in range(20):
        u, v = s.sample(rng), s.sample(rng)
        for w in (s.add(u, v), s.mul_total(u, v), s.neg(u), s.sub(u, v)):
            shown.append(s.describe(w))
        if s.rho is not None:
            shown.append(s.describe(s.rho(rng.randint(0, 9))))
    return shown
