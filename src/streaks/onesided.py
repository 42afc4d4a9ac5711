"""Lower and upper reals: one-sided monotone rational approximation streams.

A LowerReal knows a number only through rational lower bounds: its
stream is nondecreasing and q < x holds exactly when some entry
exceeds q.  A BOTTOM prefix is allowed (no bound emitted yet), and
unbounded streams are legitimate: they represent infinity, which is
why only the conversion back to a two-sided real demands locatedness.
UpperReal is the exact dual.
"""

from __future__ import annotations

import functools

from .core import NO, YES, StreakHandle
from .rational import Rational

BOTTOM = None


class NotEventuallyPositive(Exception):
    pass


class NotLocatedWithinBudget(Exception):
    pass


def _forced_monotone(stream, better):
    """Wrap a raw stream so its non-BOTTOM part is monotone (running
    best value so far), scanning iteratively from a moving frontier."""
    cache = {}
    state = [-1, BOTTOM]  # highest index folded so far, value there

    def monotone(k):
        if k in cache:
            return cache[k]
        hi, acc = state
        start = 0 if k < hi else hi + 1
        if k < hi:
            acc = BOTTOM
        for i in range(start, k + 1):
            cur = stream(i)
            if cur is not BOTTOM:
                cur = Rational(cur)
                if acc is BOTTOM or better(cur, acc):
                    acc = cur
            cache[i] = acc
        if k >= hi:
            state[0], state[1] = k, acc
        return cache[k]

    return monotone


class LowerReal:
    """A nondecreasing stream of rational lower bounds (with BOTTOM).

    A raw stream is forced monotone by a running maximum, so the cut
    semantics (q < x iff some entry exceeds q) is stable under
    re-evaluation.  Constructors whose output is nondecreasing by
    construction pass monotone=True and skip the wrap.
    """

    __slots__ = ("approx",)

    def __init__(self, stream, monotone=False):
        if monotone:
            self.approx = functools.cache(stream)
        else:
            self.approx = _forced_monotone(stream, lambda cur, acc: acc < cur)

    @classmethod
    def from_rational(cls, q):
        q = Rational(q)
        return cls(lambda k: q, monotone=True)

    def __repr__(self):
        return "LowerReal(>= %s ...)" % (self.approx(0),)


class UpperReal:
    """A nonincreasing stream of rational upper bounds (with BOTTOM)."""

    __slots__ = ("approx",)

    def __init__(self, stream, monotone=False):
        if monotone:
            self.approx = functools.cache(stream)
        else:
            self.approx = _forced_monotone(stream, lambda cur, acc: cur < acc)

    @classmethod
    def from_rational(cls, q):
        q = Rational(q)
        return cls(lambda k: q, monotone=True)

    def __repr__(self):
        return "UpperReal(<= %s ...)" % (self.approx(0),)


# -- comparisons -----------------------------------------------------------


def _probe_indices(budget):
    # doubling ladder ending at the budget; by monotonicity this sees the
    # same extremal bound as a full scan
    k = 0
    while k < int(budget):
        yield k
        k = max(1, 2 * k)
    yield int(budget)


def lower_cmp_rat(q, x, budget):
    """Semidecide q < x by searching the stream for a bound exceeding q.

    The stream is nondecreasing, so probing a doubling ladder up to the
    budget index is equivalent to scanning every entry.
    """
    q = Rational(q)
    for k in _probe_indices(budget):
        a = x.approx(k)
        if a is not BOTTOM and q < a:
            return YES
    return NO


def upper_cmp_rat(x, q, budget):
    """Semidecide x < q by searching for an upper bound under q."""
    q = Rational(q)
    for k in _probe_indices(budget):
        a = x.approx(k)
        if a is not BOTTOM and a < q:
            return YES
    return NO


# -- arithmetic ------------------------------------------------------------


def _combine(x, y, op):
    def stream(k):
        a, b = x.approx(k), y.approx(k)
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        return op(a, b)

    return stream


def lower_add(x, y):
    # sums of nondecreasing streams are nondecreasing
    return LowerReal(_combine(x, y, lambda a, b: a + b), monotone=True)


def upper_add(x, y):
    return UpperReal(_combine(x, y, lambda a, b: a + b), monotone=True)


def _has_positive_entry(x, window=256):
    return any(
        x.approx(k) is not BOTTOM and Rational(0) < x.approx(k) for k in range(window)
    )


def lower_mul_pos(x, y, window=256):
    """Pointwise product once both streams have shown a positive entry;
    sub-positive prefixes are treated as not-yet-known."""
    if not (_has_positive_entry(x, window) and _has_positive_entry(y, window)):
        raise NotEventuallyPositive("no positive lower bound in the probe window")

    def stream(k):
        a, b = x.approx(k), y.approx(k)
        if a is BOTTOM or b is BOTTOM or not Rational(0) < a or not Rational(0) < b:
            return BOTTOM
        return a * b

    return LowerReal(stream, monotone=True)


def _upper_has_positive(x, window=256):
    # positivity for an upper stream: some positive rational not excluded
    return any(
        x.approx(k) is not BOTTOM and Rational(0) < x.approx(k) for k in range(window)
    )


def upper_mul_pos(x, y, window=256):
    if not (_upper_has_positive(x, window) and _upper_has_positive(y, window)):
        raise NotEventuallyPositive("streams do not stay above zero")

    def stream(k):
        a, b = x.approx(k), y.approx(k)
        if a is BOTTOM or b is BOTTOM or not Rational(0) < a or not Rational(0) < b:
            return BOTTOM
        return a * b

    return UpperReal(stream, monotone=True)


# -- countable lattice operations ------------------------------------------


def lower_sup(family):
    """Supremum of countably many lower reals: the diagonal stream
    approx(k) = max over i <= k of family(i).approx(k), realizing the
    union of the lower cuts."""
    members = functools.cache(family)

    def stream(k):
        best = BOTTOM
        for i in range(k + 1):
            a = members(i).approx(k)
            if a is BOTTOM:
                continue
            if best is BOTTOM or best < a:
                best = a
        return best

    return LowerReal(stream, monotone=True)


def upper_inf(family):
    members = functools.cache(family)

    def stream(k):
        best = BOTTOM
        for i in range(k + 1):
            a = members(i).approx(k)
            if a is BOTTOM:
                continue
            if best is BOTTOM or a < best:
                best = a
        return best

    return UpperReal(stream, monotone=True)


# -- conversions -----------------------------------------------------------


def real_to_pair(x):
    """Forget one side at a time: the interval endpoints are monotone
    one-sided bounds by nesting."""
    lower = LowerReal(lambda k: x.refine(k + 1)[0], monotone=True)
    upper = UpperReal(lambda k: x.refine(k + 1)[1], monotone=True)
    return lower, upper


def pair_to_real(lower, upper, budget):
    """Rejoin a located pair into an interval-refinement real: at
    precision n, the first stream index where the bounds come within
    2/n of each other supplies the interval."""
    from .real import RefinedReal

    def raw(n):
        for k in range(int(budget) + 1):
            lo, hi = lower.approx(k), upper.approx(k)
            if lo is BOTTOM or hi is BOTTOM:
                continue
            if hi - lo <= Rational(2, n):
                return lo, hi
        raise NotLocatedWithinBudget(
            "bounds never came within 2/%d of each other" % n
        )

    return RefinedReal(raw)


# -- registered handles ----------------------------------------------------


def lower_streak_handle():
    """Lower reals as a streak-like handle.  Only the lower comparison is
    informative; the upper side reports what an upper bound on a lower
    cut can ever report: nothing within budget."""

    def sample(rng):
        return LowerReal.from_rational(Rational(rng.randint(-24, 24), rng.randint(1, 12)))

    handle = StreakHandle(
        name="lower",
        below=lambda q, v, budget: lower_cmp_rat(q, v, budget),
        above=lambda v, q, budget: NO,
        add=lower_add,
        zero=LowerReal.from_rational(0),
        mul_pos=lower_mul_pos,
        one=LowerReal.from_rational(1),
        decidable=False,
        sample=sample,
        describe=lambda v: repr(v),
    )
    return handle


def upper_streak_handle():
    def sample(rng):
        return UpperReal.from_rational(Rational(rng.randint(-24, 24), rng.randint(1, 12)))

    handle = StreakHandle(
        name="upper",
        below=lambda q, v, budget: NO,
        above=lambda v, q, budget: upper_cmp_rat(v, q, budget),
        add=upper_add,
        zero=UpperReal.from_rational(0),
        mul_pos=upper_mul_pos,
        one=UpperReal.from_rational(1),
        decidable=False,
        sample=sample,
        describe=lambda v: repr(v),
    )
    return handle
