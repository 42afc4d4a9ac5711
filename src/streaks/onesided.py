"""Lower and upper reals: one-sided monotone rational approximation streams.

A LowerReal knows a number only through rational lower bounds: its
stream is nondecreasing and q < x holds exactly when some entry
exceeds q.  A BOTTOM prefix is allowed (no bound emitted yet), and
unbounded streams are legitimate: they represent infinity, which is
why only the conversion back to a two-sided real demands locatedness.
UpperReal is the exact dual; each pair of lower_* / upper_* functions
shares one body, parametrised by the class, whose `_better` order says
which of two bounds is tighter.
"""

from __future__ import annotations

import operator

from .core import (
    NO, YES, ApartnessUndecided, BudgetExceeded, StreakHandle, read_budget, sample_rational)
from .rational import Rational, _as_rat
from .real import RefinedReal

BOTTOM = None


def _forced_monotone(stream, better):
    """Wrap a raw stream so its non-BOTTOM part is monotone (running
    best value so far), folding each index once, in order."""
    folded = []  # folded[k]: the best entry among stream(0..k)

    def monotone(k):
        while len(folded) <= k:
            acc = folded[-1] if folded else BOTTOM
            cur = stream(len(folded))
            if cur is not BOTTOM:
                cur = Rational(cur)
                if acc is BOTTOM or better(cur, acc):
                    acc = cur
            folded.append(acc)
        return folded[k]

    return monotone


class _OneSidedReal:
    """The body of LowerReal and UpperReal; each sets `_better`, the
    order in which one of its bounds is tighter than another, and
    `_bound`, the relation its bounds have to the number."""

    __slots__ = ("approx",)

    def __init__(self, stream, monotone=False):
        self.approx = stream if monotone else _forced_monotone(stream, self._better)

    @classmethod
    def from_rational(cls, q):
        q = _as_rat(q)
        return cls(lambda k: q, True)

    def __repr__(self):
        return "%s(%s %s ...)" % (type(self).__name__, self._bound, self.approx(0))


class LowerReal(_OneSidedReal):
    """A nondecreasing stream of rational lower bounds (with BOTTOM).

    A raw stream is forced monotone by a running maximum, so the cut
    semantics (q < x iff some entry exceeds q) is stable under
    re-evaluation.  Constructors whose output is nondecreasing by
    construction pass monotone=True and keep their stream as given.
    """

    __slots__ = ()
    _better = staticmethod(operator.gt)
    _bound = ">="


class UpperReal(_OneSidedReal):
    """A nonincreasing stream of rational upper bounds (with BOTTOM)."""

    __slots__ = ()
    _better = staticmethod(operator.lt)
    _bound = "<="


# -- comparisons -----------------------------------------------------------


def _beats(cls, x, q, budget):
    """YES when some entry of x within the budget is a tighter bound than q.

    The probes walk the doubling ladder 0, 1, 2, 4, ... below the budget
    and then the budget itself; the stream is monotone, so the ladder
    sees the same extremal bound as a full scan.  An int or Rational q is
    compared as it is; any other q goes through `_as_rat`.
    """
    if q.__class__ is not Rational and q.__class__ is not int:
        q = _as_rat(q)
    better, approx = cls._better, x.approx
    k = 0
    while k < budget:
        a = approx(k)
        if a is not BOTTOM and better(a, q):
            return YES
        k = 2 * k or 1
    a = approx(budget)
    if a is not BOTTOM and better(a, q):
        return YES
    return NO


def lower_cmp_rat(q, x, budget):
    """Semidecide q < x by searching the stream for a bound exceeding q.

    The stream is nondecreasing, so probing a doubling ladder up to the
    budget index is equivalent to scanning every entry.
    """
    return _beats(LowerReal, x, q, read_budget(budget))


def upper_cmp_rat(x, q, budget):
    """Semidecide x < q by searching for an upper bound under q."""
    return _beats(UpperReal, x, q, read_budget(budget))


# -- arithmetic ------------------------------------------------------------


def _pointwise(cls, x, y, op):
    # op is monotone in both arguments, so the output keeps their direction
    def stream(k):
        a, b = x.approx(k), y.approx(k)
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        return op(a, b)

    return cls(stream, monotone=True)


def lower_add(x, y):
    return _pointwise(LowerReal, x, y, operator.add)


def upper_add(x, y):
    return _pointwise(UpperReal, x, y, operator.add)


def _has_positive_entry(x):
    return any(a is not BOTTOM and 0 < a for a in map(x.approx, range(256)))


def _positive_product(a, b):
    # a sub-positive entry is treated as not-yet-known
    if not 0 < a or not 0 < b:
        return BOTTOM
    return a * b


def _mul_pos(cls, x, y, message):
    if not (_has_positive_entry(x) and _has_positive_entry(y)):
        raise ApartnessUndecided(message)
    return _pointwise(cls, x, y, _positive_product)


def lower_mul_pos(x, y):
    """Pointwise product once both streams have shown a positive entry
    among their first 256; sub-positive prefixes are treated as
    not-yet-known."""
    return _mul_pos(LowerReal, x, y, "no positive lower bound in the probe window")


def upper_mul_pos(x, y):
    return _mul_pos(UpperReal, x, y, "streams do not stay above zero")


# -- countable lattice operations ------------------------------------------


def _diagonal(cls, family):
    """approx(k) = the tightest of family(i).approx(k) over i <= k.  An
    entry costs k + 1 member builds, so each one is kept once computed."""
    entries = {}

    def stream(k):
        if k in entries:
            return entries[k]
        best = BOTTOM
        for i in range(k + 1):
            a = family(i).approx(k)
            if a is not BOTTOM and (best is BOTTOM or cls._better(a, best)):
                best = a
        entries[k] = best
        return best

    return cls(stream, monotone=True)


def lower_sup(family):
    """Supremum of countably many lower reals: the diagonal stream
    approx(k) = max over i <= k of family(i).approx(k), realizing the
    union of the lower cuts.

    Members are rebuilt on demand rather than kept, so the family must
    be deterministic: family(i) must denote the same real every call."""
    return _diagonal(LowerReal, family)


def upper_inf(family):
    return _diagonal(UpperReal, family)


# -- conversions -----------------------------------------------------------


def real_to_pair(x):
    """Forget one side at a time: the interval endpoints are monotone
    one-sided bounds by nesting; each ask reads x's running interval."""
    lower = LowerReal(lambda k: x.refine(k + 1)[0], monotone=True)
    upper = UpperReal(lambda k: x.refine(k + 1)[1], monotone=True)
    return lower, upper


def pair_to_real(lower, upper, budget):
    """Rejoin a located pair into an interval-refinement real: at
    precision n, the first stream index where the bounds come within
    2/n of each other supplies the interval.  RefinedReal asks raw
    precisions in increasing order and bound widths never grow with the
    index, so each scan resumes at the index that met the last one."""
    start, budget = 0, read_budget(budget)

    def raw(n):
        nonlocal start
        for k in range(start, budget + 1):
            lo, hi = lower.approx(k), upper.approx(k)
            if lo is BOTTOM or hi is BOTTOM:
                continue
            if hi - lo <= Rational(2, n):
                start = k
                return lo, hi
        raise BudgetExceeded("bounds never came within 2/%d of each other" % n)

    return RefinedReal(raw)


# -- registered handles ----------------------------------------------------


def _streak_handle(cls, name, below, above, add, mul_pos):
    return StreakHandle(
        name=name,
        below=below,
        above=above,
        add=add,
        zero=cls.from_rational(0),
        mul_pos=mul_pos,
        one=cls.from_rational(1),
        sample=lambda rng: cls.from_rational(sample_rational(rng)),
    )


def lower_streak_handle():
    """Lower reals as a streak-like handle.  Only the lower comparison is
    informative; the upper side reports what an upper bound on a lower
    cut can ever report: nothing within budget."""
    return _streak_handle(
        LowerReal,
        "lower",
        below=lambda q, v, budget: lower_cmp_rat(q, v, budget),
        above=lambda v, q, budget: NO,
        add=lower_add,
        mul_pos=lower_mul_pos,
    )


def upper_streak_handle():
    return _streak_handle(
        UpperReal,
        "upper",
        below=lambda q, v, budget: NO,
        above=lambda v, q, budget: upper_cmp_rat(v, q, budget),
        add=upper_add,
        mul_pos=upper_mul_pos,
    )
