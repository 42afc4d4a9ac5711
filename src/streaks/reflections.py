"""Constructors that build new streaks from old.

Each constructor takes a base StreakHandle and returns a handle whose
values wrap base values: the positive part with a total multiplication,
the archimedean filter, finite-subset meet/join semilattice completions,
the ring of formal differences, the field of formal fractions, and the
halved (dyadic) ring.  Comparison against a rational q is always pushed
down to the base streak by writing q = n/k with k > 0 and clearing
denominators; each lift reads n and k from q inline, an int q as q/1, and
builds no Rational.
"""

from __future__ import annotations

import functools
import operator

from .core import (
    YES,
    NO,
    ZERO,
    ApartnessUndecided,
    Element,
    Order,
    StreakHandle,
    _less,
    _same_streak,
    _staged_witness,
    nat_scale,
    read_budget,
    scale_value,
    strict_lt,
)
from .rational import Rational


# -- value-level helpers ---------------------------------------------------


def _is_zero(streak, v, budget):
    if streak.eq is not None:
        return streak.eq(v, streak.zero)
    # fall back: certified apart from zero on neither side
    return streak.below(ZERO, v, budget) is not YES and streak.above(v, ZERO, budget) is not YES


def _require_ring(ring, lift):
    """Raise ValueError unless `ring` has negation and a total product, as
    the field and halved lifts need: `nat` and `pos_part` have only the
    latter."""
    if ring.neg is None or ring.mul_total is None:
        raise ValueError("%s needs a ring streak (negation and total multiplication)" % lift)


def _times(base):
    """The base's n-fold sum n, v -> n*v, for a lift to bind when built:
    `scale` where the base has it, else `scale_value` on the base, which
    a partial calls with no Python frame of its own."""
    return base.scale or functools.partial(scale_value, base)


def _cleared_lift(prefix, base, clear, add, mul, cmp, **fields):
    """A lift over `base` with total multiplication `mul` whose
    comparison with a rational clears denominators down to the base:
    clear(q, v) gives base values (l, r) with q < v iff l < r and
    v < q iff r < l.  `cmp` orders values, and the lift is decidable,
    when the base is, so it may call `base.cmp`.  The base has `cmp` or
    `sub`.  The probes bind `base.cmp` when the lift is built and call it
    directly; without one they ask the base once whether 0 < r - l (or
    0 < l - r) at the probe's budget."""
    base_cmp, base_below, base_sub = base.cmp, base.below, base.sub

    def below(q, v, budget):
        lhs, rhs = clear(q, v)
        if base_cmp is not None:
            return YES if base_cmp(lhs, rhs) == -1 else NO
        return base_below(ZERO, base_sub(rhs, lhs), budget)

    def above(v, q, budget):
        lhs, rhs = clear(q, v)
        if base_cmp is not None:
            return YES if base_cmp(rhs, lhs) == -1 else NO
        return base_below(ZERO, base_sub(lhs, rhs), budget)

    return StreakHandle(
        name="%s:%s" % (prefix, base.name),
        below=below,
        above=above,
        add=add,
        mul_pos=mul,
        cmp=cmp if base.decidable else None,
        mul_total=mul,
        **fields,
    )


def mul_total_nonneg(streak, u, v, budget):
    """Total multiplication on the non-negative part: zero absorbs."""
    budget = read_budget(budget)
    if _is_zero(streak, u, budget) or _is_zero(streak, v, budget):
        return streak.zero
    return streak.mul_pos(u, v)


# -- positive part ---------------------------------------------------------


def pos_part(streak):
    """The streak on X_{>0} with zero adjoined and total multiplication;
    a semidecidable base is probed at budget 32."""
    budget = 32

    def make(v):
        if _is_zero(streak, v, budget):
            return streak.zero
        if streak.below(ZERO, v, budget) is not YES:
            raise ApartnessUndecided("value %s not certified >= 0" % streak.describe(v))
        return v

    def sample(rng):
        if streak.sample is None:
            raise ValueError("base streak has no sampler")
        for _ in range(64):
            v = streak.sample(rng)
            if _is_zero(streak, v, budget) or streak.below(ZERO, v, budget) is YES:
                return v
        return streak.zero

    return streak.restricted(
        "pos:%s" % streak.name,
        sample=sample,
        make=make,
        mul_total=lambda u, v: mul_total_nonneg(streak, u, v, budget),
    )


# -- archimedean filter ----------------------------------------------------


def arch_member(x, budget):
    """An n <= budget with x < n and -n < x, or None: doubling n up to
    the budget and then bisecting finds the least such n when the cuts are
    monotone (decidable streaks).  A found n stays found as budget grows."""
    s, v, budget = x.streak, x.value, read_budget(budget)

    def bounds(n):
        return s.above(v, n, budget) is YES and s.below(-n, v, budget) is YES

    lo, hi = 0, min(1, budget)  # lo does not bound x (0 never does)
    while hi > lo and not bounds(hi):
        lo, hi = hi, min(2 * hi, budget)
    if hi <= lo:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bounds(mid) else (mid, hi)
    return hi


def arch_lt(a, b, budget):
    """Semidecide the filtered order: an n <= budget with n*a + 1 < n*b, the
    first that `_staged_witness` finds from n = 1 (on a decidable streak the
    least), or None."""
    _same_streak(a, b)
    s, budget = a.streak, read_budget(budget)
    one = Element(s, s.one)
    return _staged_witness(
        lambda n, stage: _less(nat_scale(n, a) + one, nat_scale(n, b), stage),
        1, budget, s.decidable)


# -- finite subset semilattice lifts ---------------------------------------


class FiniteSubset:
    """A non-empty finite list of base values; order of entries and
    duplicates do not affect the semantics."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elements = list(elements)
        if not elements:
            raise ValueError("finite subsets here are inhabited")
        self.elements = elements

    def __repr__(self):
        return "FiniteSubset(%r)" % (self.elements,)


def _entry_cmp(streak):
    """The `cmp` finite subsets compare entries by; ValueError without one."""
    if streak.cmp is None:
        raise ValueError("finite subset lifts require a decidable base streak")
    return streak.cmp


def subset_lt_exists_forall(streak, A, B):
    """A < B as: some a in A is below every b in B."""
    cmp = _entry_cmp(streak)
    return any(all(cmp(a, b) < 0 for b in B.elements) for a in A.elements)


def subset_lt_forall_exists(streak, A, B):
    """The swapped form: every b in B has some a in A below it."""
    cmp = _entry_cmp(streak)
    return all(any(cmp(a, b) < 0 for a in A.elements) for b in B.elements)


def _finset_lift(streak, prefix, extreme):
    """The finite-subset lift of a decidable base with [A] read as the
    `extreme` ("inf" or "sup") of A, which on the base's linear order is
    its first least (inf) or greatest (sup) entry: every probe, sum,
    product and comparison reads [A] at that one entry, and a sum or
    product keeps only that entry, since both are monotone:
    inf(A + B) = inf A + inf B.  A positive [A] has a positive extreme
    entry, so products take no filter.  `extreme` joins the lists."""
    base_cmp, base_below, base_above = _entry_cmp(streak), streak.below, streak.above
    sign = -1 if extreme == "inf" else 1

    def pick(values):
        best = values[0]
        for v in values[1:]:
            best = v if base_cmp(v, best) == sign else best
        return best

    def below(q, A, budget):
        return base_below(q, pick(A.elements), budget)

    def above(A, q, budget):
        return base_above(pick(A.elements), q, budget)

    def add(A, B):
        return FiniteSubset([streak.add(pick(A.elements), pick(B.elements))])

    def mul(A, B):
        return FiniteSubset([streak.mul_pos(pick(A.elements), pick(B.elements))])

    def cmp(A, B):
        return base_cmp(pick(A.elements), pick(B.elements))

    def sample(rng):
        size = rng.randint(1, 4)
        return FiniteSubset([streak.sample(rng) for _ in range(size)])

    return StreakHandle(
        name="%s:%s" % (prefix, streak.name),
        below=below,
        above=above,
        add=add,
        zero=FiniteSubset([streak.zero]),
        mul_pos=mul,
        one=FiniteSubset([streak.one]),
        cmp=cmp,
        sample=sample,
        describe=lambda A: "%s{%s}" % (extreme, ", ".join(map(streak.describe, A.elements))),
        **{extreme: lambda A, B: FiniteSubset(A.elements + B.elements)},
    )


def finset_meet_lift(streak):
    """Meet-semilattice completion: [A] behaves as the infimum of A."""
    return _finset_lift(streak, "finmeet", "inf")


def positive_representative(streak, A):
    """Entries of A exceeding zero, valid when [A] is positive in the
    join lift, where some entry must then be positive."""
    kept = [a for a in A.elements if streak.below(ZERO, a, 16) is YES]
    if not kept:
        raise ApartnessUndecided("no positive entry found")
    return FiniteSubset(kept)


def finset_join_lift(streak):
    """Join-semilattice completion: [A] behaves as the supremum of A."""
    return _finset_lift(streak, "finjoin", "sup")


# -- ring of formal differences --------------------------------------------


class FormalDifference:
    """A pair (pos, neg) of non-negative base values representing pos - neg."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos, neg):
        self.pos = pos
        self.neg = neg

    def __repr__(self):
        return "FormalDifference(%r, %r)" % (self.pos, self.neg)


def ring_lift(streak):
    """The ring streak of formal differences over the non-negative part.

    Order: (a, b) < (c, d) iff a + d < c + b in the base; comparison
    with q = (i - j)/k clears denominators the same way.  Negation
    swaps the components, making subtraction total, and multiplication
    (a, b)(c, d) = (ac + bd, ad + bc) is total because zero absorbs on
    the non-negative part.  The parts multiply by the base's own
    `mul_total` where it has one (`nat`, `rat`, `real`, a ring), which
    gives zero for a zero factor with no test; a base without one, such
    as `finmeet:nat`, multiplies by `mul_total_nonneg`, which tests each
    factor for zero first.  A value keeps the representative its
    operations build: (2, 5) + (4, 0) is (6, 5), which `eq` and `cmp`
    identify with (1, 0); the n-fold sum scales each part, as doubling
    would.  A semidecidable base is probed at budget 8.  The lift binds
    the base's `add`, `one`, `cmp` and n-fold sum (see `_times`) when it
    is built.  A base with neither `cmp` nor `sub` (`lower`, `upper`) is
    refused with ValueError: the order of a difference there is never
    known, so every probe of the lift would answer NO.
    """
    base = streak
    if base.cmp is None and base.sub is None:
        raise ValueError("ring_lift needs a base with a decidable order or a "
                         "subtraction (cmp or sub)")
    mul_nn = base.mul_total or (lambda u, v: mul_total_nonneg(base, u, v, 8))
    times, base_add, one, base_cmp = _times(base), base.add, base.one, base.cmp

    def clear(q, fd):
        if q.__class__ is Rational:
            n, k = q.num, q.den
        else:
            n, k = operator.index(q), 1
        # n/k < a - b  iff  n + k*b < k*a, a negative n moving across as -n
        lhs, rhs = times(k, fd.neg), times(k, fd.pos)
        if n > 0:
            lhs = base_add(times(n, one), lhs)
        elif n < 0:
            rhs = base_add(rhs, times(-n, one))
        return lhs, rhs

    def add(u, v):
        return FormalDifference(base_add(u.pos, v.pos), base_add(u.neg, v.neg))

    def mul(u, v):
        return FormalDifference(
            base_add(mul_nn(u.pos, v.pos), mul_nn(u.neg, v.neg)),
            base_add(mul_nn(u.pos, v.neg), mul_nn(u.neg, v.pos)),
        )

    def cmp(u, v):
        return base_cmp(base_add(u.pos, v.neg), base_add(v.pos, u.neg))

    def sample(rng):
        return FormalDifference(pos_handle.sample(rng), pos_handle.sample(rng))

    pos_handle = pos_part(base)

    def rho(x_value):
        """Embed a base element as [(x + n, n)] for the least n <= 32
        making x + n non-negative."""
        for n in range(33):
            shifted = base_add(x_value, times(n, one))
            if base.below(ZERO, shifted, 32) is YES or _is_zero(base, shifted, 32):
                return FormalDifference(shifted, times(n, one))
        raise ApartnessUndecided("could not shift %s into the non-negative part" %
                                 base.describe(x_value))

    return _cleared_lift(
        "ring", base, clear, add, mul, cmp,
        zero=FormalDifference(base.zero, base.zero),
        one=FormalDifference(base.one, base.zero),
        sample=sample,
        describe=lambda v: "(%s - %s)" % (base.describe(v.pos), base.describe(v.neg)),
        neg=lambda v: FormalDifference(v.neg, v.pos),
        rho=rho,
        scale=lambda n, v: FormalDifference(times(n, v.pos), times(n, v.neg)),
    )


# -- field of formal fractions ---------------------------------------------


class FormalFraction:
    """A pair (num, den) of ring values with den > 0, representing num/den."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return "FormalFraction(%r, %r)" % (self.num, self.den)


def field_lift(ring):
    """The field streak of formal fractions over a ring streak.

    Order: (a, b) < (c, d) iff a*d < b*c.  The reciprocal of a positive
    fraction swaps the pair; negatives go through negate-invert-negate.
    Fractions are not reduced: two summands that share their
    denominator object add numerators, so an n-fold sum by doubling
    keeps the denominator, but a chain of sums over different
    denominators multiplies them and its components grow; `rat` is the
    reduced rational type.  A semidecidable base is probed at budget 8.
    The lift binds the base's `add`, `mul_total`, `neg`, `cmp` and n-fold
    sum (see `_times`) when it is built.
    """
    _require_ring(ring, "field_lift")
    base = ring
    times, base_add, base_neg = _times(base), base.add, base.neg
    mul_total, base_cmp = base.mul_total, base.cmp

    def make(num, den):
        if base.below(ZERO, den, 8) is not YES:
            raise ApartnessUndecided("denominator not certified positive")
        return FormalFraction(num, den)

    def clear(q, fr):
        if q.__class__ is Rational:
            n, k = q.num, q.den
        else:
            n, k = operator.index(q), 1
        # n/k < a/b  iff  n*b < k*a (b > 0, k > 0), a negative n moving
        # across as -n*b
        rhs = times(k, fr.num)
        if n < 0:
            rhs = base_add(rhs, times(-n, fr.den))
            n = 0
        return times(n, fr.den), rhs

    def add(u, v):
        if u.den is v.den:
            return FormalFraction(base_add(u.num, v.num), u.den)
        return FormalFraction(
            base_add(mul_total(u.num, v.den), mul_total(v.num, u.den)),
            mul_total(u.den, v.den),
        )

    def mul(u, v):
        return FormalFraction(mul_total(u.num, v.num), mul_total(u.den, v.den))

    def cmp(u, v):
        return base_cmp(mul_total(u.num, v.den), mul_total(u.den, v.num))

    def sample(rng):
        num = base.sample(rng)
        for _ in range(64):
            den = base.sample(rng)
            if base.below(ZERO, den, 8) is YES:
                return FormalFraction(num, den)
        return FormalFraction(num, base.one)

    def recip(v):
        if handle.below(ZERO, v, 8) is YES:
            return FormalFraction(v.den, v.num)
        if handle.above(v, ZERO, 8) is YES:
            return FormalFraction(base_neg(v.den), base_neg(v.num))
        raise ApartnessUndecided("reciprocal of %s undecided" % handle.describe(v))

    handle = _cleared_lift(
        "field", base, clear, add, mul, cmp,
        zero=FormalFraction(base.zero, base.one),
        one=FormalFraction(base.one, base.one),
        sample=sample,
        describe=lambda v: "(%s / %s)" % (base.describe(v.num), base.describe(v.den)),
        neg=lambda v: FormalFraction(base_neg(v.num), v.den),
        make=make,
        recip=recip,
    )
    return handle


# -- halved (dyadic) ring --------------------------------------------------


class Dyadic:
    """A pair (mantissa, exponent) representing mantissa / 2^exponent."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa, exponent):
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("exponent must be a natural number")
        self.mantissa = mantissa
        self.exponent = exponent

    def __repr__(self):
        return "Dyadic(%r, %d)" % (self.mantissa, self.exponent)


def halved_lift(ring):
    """The halved ring streak over a ring streak: a formal half operator.

    Exponents align through cutoff subtraction m ∸ n = max(m, n) - n:
    (a, m) < (b, n) iff a * 2^(n ∸ m) < b * 2^(m ∸ n).  A semidecidable
    base is probed at budget 8.  The lift binds the base's `add`, `one`,
    `neg`, `mul_total`, `cmp` and n-fold sum (see `_times`) when it is
    built.
    """
    _require_ring(ring, "halved_lift")
    base = ring
    times, base_add, one, base_neg = _times(base), base.add, base.one, base.neg
    mul_total, base_cmp = base.mul_total, base.cmp

    def int_in_ring(m):
        v = times(abs(m), one)
        return base_neg(v) if m < 0 else v

    def clear(q, d):
        if q.__class__ is Rational:
            n, k = q.num, q.den
        else:
            n, k = operator.index(q), 1
        # n/k < x/2^e  iff  n * 2^e * 1 < k * x
        return int_in_ring(n << d.exponent), times(k, d.mantissa)

    def aligned(u, v):
        """Both mantissas scaled to the larger exponent."""
        m, n = u.exponent, v.exponent
        top = max(m, n)
        return (
            mul_total(u.mantissa, int_in_ring(1 << (top - m))),
            mul_total(v.mantissa, int_in_ring(1 << (top - n))),
        )

    def add(u, v):
        a, b = aligned(u, v)
        return Dyadic(base_add(a, b), max(u.exponent, v.exponent))

    def mul(u, v):
        return Dyadic(mul_total(u.mantissa, v.mantissa), u.exponent + v.exponent)

    def cmp(u, v):
        return base_cmp(*aligned(u, v))

    def sample(rng):
        return Dyadic(base.sample(rng), rng.randint(0, 5))

    return _cleared_lift(
        "dyadic", base, clear, add, mul, cmp,
        zero=Dyadic(base.zero, 0),
        one=Dyadic(base.one, 0),
        sample=sample,
        describe=lambda v: "%s/2^%d" % (base.describe(v.mantissa), v.exponent),
        neg=lambda v: Dyadic(base_neg(v.mantissa), v.exponent),
        half=lambda v: Dyadic(v.mantissa, v.exponent + 1),
    )


# -- equivalence up to budget ----------------------------------------------


def approx_eq(x, y, budget):
    """True unless the strict order decides either way within budget;
    the computational face of quotienting by mutual <=."""
    return strict_lt(x, y, budget) is Order.UNKNOWN
