"""The streak contract and its derived algorithms.

A streak is an archimedean ordered structure whose order is given by
semidecidable comparisons against rationals on both sides: `below(q, x)`
asks whether q < x and `above(x, q)` asks whether x < q, each under an
explicit search budget.  Addition is a commutative monoid, and
multiplication is a commutative monoid on the strictly positive part,
distributing over addition.  Everything else in this module (strict
internal order, interval location, archimedean witnesses, density
searches, the law-checking harness) is derived from those primitives.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import operator
import random
from typing import Any, Callable

from .rational import Rational, _as_rat


class BudgetExceeded(Exception):
    """A semidecision search ran out of budget before resolving."""


class ApartnessUndecided(BudgetExceeded):
    """A search for a sign, or for apartness from zero, ran out of budget."""


class SemiDecision(enum.Enum):
    YES = "yes"
    NO_WITHIN_BUDGET = "no-within-budget"


class Order(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    UNKNOWN = "unknown"


YES = SemiDecision.YES
NO = SemiDecision.NO_WITHIN_BUDGET

# Rationals are immutable, so the probes against zero share this one
ZERO = Rational(0)


@dataclasses.dataclass(eq=False)
class StreakHandle:
    """A registered implementation of the streak contract.

    below/above are the one-sided comparisons with rationals.  A streak
    with `cmp` is decidable: `decidable` is computed from it, and then
    below/above answer definitively at budget 0 and NO_WITHIN_BUDGET
    means plain "false".  add/zero and mul_pos/one are the additive
    monoid and the multiplicative monoid on positives.  describe(v)
    prints a value; it defaults to repr, so it is never None, is no
    capability and survives `restricted`.  Every other field is None
    when the streak lacks it; those listed after `sample` below are the
    capabilities that CAPABILITIES lists and `restricted` clears:

      cmp(u, v)            total three-way comparison (decidable streaks)
      eq(u, v)             equality of the values denoted; defaults to
                           cmp(u, v) == 0
      scale(n, v)          the n-fold sum v + ... + v in closed form (n >= 0);
                           without it n-fold sums double and add; the
                           lifts bind it when built and call it directly
      sample(rng)          random element value for the test harness
      mul_total(u, v)      total multiplication (`nat` and the ring
                           streaks; zero absorbs)
      neg(v)               additive inverse (ring streaks, which have
                           mul_total too)
      sub(u, v)            subtraction; defaults to add(u, neg(v))
      recip(v)             reciprocal of a value apart from zero (fields)
      half(v)              the formal half (halved rings)
      rho(v)               embedding of a base value (rings of differences)
      make(...)            checked constructor of a value
      inf(A, B), sup(A, B) the lattice operation of a finite-subset lift
      interpolate(q, r)    element strictly between two rationals (dense)
    """

    name: str
    below: Callable
    above: Callable
    add: Callable
    zero: Any
    mul_pos: Callable
    one: Any
    decidable: bool = dataclasses.field(init=False)
    cmp: Callable | None = None
    eq: Callable | None = None
    scale: Callable | None = None
    sample: Callable | None = None
    interpolate: Callable | None = None
    describe: Callable | None = None
    mul_total: Callable | None = None
    neg: Callable | None = None
    sub: Callable | None = None
    recip: Callable | None = None
    half: Callable | None = None
    rho: Callable | None = None
    make: Callable | None = None
    inf: Callable | None = None
    sup: Callable | None = None

    def __post_init__(self):
        # a plain field, not a property: probe loops read it
        self.decidable = self.cmp is not None
        self.describe = self.describe or repr
        if self.eq is None and self.cmp is not None:
            cmp = self.cmp
            self.eq = lambda u, v: cmp(u, v) == 0
        if self.sub is None and self.neg is not None:
            add, neg = self.add, self.neg
            self.sub = lambda u, v: add(u, neg(v))

    def restricted(self, name, **changes):
        """A copy under a new name that keeps the order and arithmetic
        but clears every capability not given in `changes`: a subset
        need not be closed under the operations of the whole."""
        return dataclasses.replace(
            self, name=name, **{**dict.fromkeys(CAPABILITIES), **changes}
        )

    def element(self, value):
        return Element(self, value)

    def __repr__(self):
        return "<streak %s>" % self.name


CAPABILITIES = (
    "mul_total", "neg", "sub", "recip", "half", "rho", "make", "inf", "sup",
    "interpolate",
)


def _decidable_handle(name, **fields):
    """A decidable streak whose values (ints or Rationals) compare
    exactly with rationals and whose +, *, == and str are those of the
    value type, called with no Python frame of their own; an n-fold sum
    is the product n * v.  A probe compares an int or Rational q with v
    directly, and the searches ask integer grid points as ints; any other
    q goes through `_as_rat`, which raises TypeError for a float or a
    string."""

    def below(q, v, budget):
        if q.__class__ is not Rational and q.__class__ is not int:
            q = _as_rat(q)
        return YES if q < v else NO

    def above(v, q, budget):
        if q.__class__ is not Rational and q.__class__ is not int:
            q = _as_rat(q)
        return YES if v < q else NO

    def cmp(u, v):
        return -1 if u < v else 1 if v < u else 0

    return StreakHandle(
        name,
        below=below,
        above=above,
        add=operator.add,
        mul_pos=operator.mul,
        cmp=cmp,
        eq=operator.eq,  # one comparison where cmp makes up to two
        scale=operator.mul,
        describe=str,
        **fields,
    )


class Element:
    """A value tagged with its owning streak; operations never mix streaks.
    `grid` keeps [n, floor(x), floor(2x), ...] of a decidable element;
    semidecidable cuts can change after other probes, so those keep None."""

    __slots__ = ("streak", "value", "grid")

    def __init__(self, streak, value):
        self.streak = streak
        self.value = value
        self.grid = None

    def __repr__(self):
        return "<%s: %s>" % (self.streak.name, self.streak.describe(self.value))

    def __add__(self, other):
        s = self.streak
        if other.streak is not s:
            _same_streak(self, other)
        return Element(s, s.add(self.value, other.value))

    def __mul__(self, other):
        s = self.streak
        if other.streak is not s:
            _same_streak(self, other)
        return Element(s, s.mul_pos(self.value, other.value))


def _same_streak(x, y):
    if x.streak is not y.streak:
        raise ValueError("%s vs %s" % (x.streak.name, y.streak.name))


def read_budget(budget):
    """A search budget as an int: a float or a string raises TypeError, and a
    negative budget reads as 0."""
    budget = operator.index(budget)
    return budget if budget > 0 else 0


def below(x, q, budget=0):
    """Semidecide q < x for an Element."""
    return x.streak.below(q, x.value, read_budget(budget))


def above(x, q, budget=0):
    """Semidecide x < q for an Element."""
    return x.streak.above(x.value, q, read_budget(budget))


# -- fair enumeration of the rationals ------------------------------------


def rational_enumeration():
    """Yield every rational exactly once: 0, then the Stern-Brocot tree of
    positive rationals breadth-first, each followed by its negation.

    The order is fixed so that witness searches are reproducible.
    """
    yield Rational(0)
    queue = [(1, 1)]
    while True:
        nxt = []
        for a, b in queue:
            yield Rational(a, b)
            yield Rational(-a, b)
            nxt.append((a, a + b))
            nxt.append((a + b, b))
        queue = nxt


def rational_prefix(count):
    return list(itertools.islice(rational_enumeration(), count))


# -- derived order --------------------------------------------------------


def strict_lt(x, y, budget):
    """Three-valued internal order: LESS iff x < y is certified within
    budget, GREATER symmetrically, else UNKNOWN.

    For decidable streaks the witness comes from walking both elements'
    grids of doubling fineness k (see `_grid_walk`, which reuses what
    earlier walks of either element found); the first grid separating
    them by two steps yields the witness (i+1)/k.  Semidecidable streaks
    read the sign of d = y - x: LESS when 0 < d and GREATER when d < 0,
    one probe each at the budget, and UNKNOWN without `sub`.  The rule
    trusts `sub`: one that answers 0 leaves every pair undecided, and
    the law suites then miss a broken `add`.  Either way the answer is
    a deterministic function of (inputs, budget) and a decided answer
    never flips when the budget grows.
    """
    _same_streak(x, y)
    sx, budget = x.streak, read_budget(budget)
    if sx.decidable:
        for (_, i), (_, j) in zip(_grid_walk(x, budget), _grid_walk(y, budget)):
            if j >= i + 2:
                return Order.LESS
            if i >= j + 2:
                return Order.GREATER
        return Order.UNKNOWN
    if sx.sub is None:
        return Order.UNKNOWN
    d = sx.sub(y.value, x.value)
    if sx.below(ZERO, d, budget) is YES:
        return Order.LESS
    if sx.above(d, ZERO, budget) is YES:
        return Order.GREATER
    return Order.UNKNOWN


def _magnitude_bound(x, budget):
    """Some n <= max(budget, 1) with x < n and -n < x, or None (doubling
    scan, asking the cuts at the ints n and -n); a decidable element keeps
    the n it finds."""
    if x.grid is not None:
        return x.grid[0] if x.grid[0] <= max(budget, 1) else None
    s, v = x.streak, x.value
    n = 1
    while n <= max(budget, 1):
        if s.above(v, n, budget) is YES and s.below(-n, v, budget) is YES:
            if s.decidable:
                x.grid = [n]
            return n
        n *= 2
    return None


def locate(x, k, budget):
    """Find i with (i-1)/k < x < (i+1)/k.

    Every archimedean streak element lies in such a rational interval.
    One search serves every streak: bound |x| by an integer n, then
    bisect for the smallest m with x < (m+1)/k, and on a semidecidable
    streak confirm (m-1)/k < x with one more probe.  The index returned
    is always certified by both cuts; when they are monotone in the
    rational (decidable streaks, where it is floor(k*x), and `real`, not
    the lifts over `real`, whose cuts read shared nodes) it is the least.
    Integer grid points, the bound's n and -n and every point of the
    k = 1 grid, are asked as ints.
    """
    k, budget = operator.index(k), read_budget(budget)
    if k <= 0:
        raise ValueError("k must be positive")
    return _locate(x, k, _magnitude_bound(x, budget), budget)


def _locate(x, k, n, budget):
    """`locate` with the bound n from `_magnitude_bound` already found."""
    if n is None:
        raise BudgetExceeded("no integer bound for %r within budget %d" % (x, budget))
    s, v = x.streak, x.value
    # every index returned has had its upper probe answer YES: reaching
    # n*k would take a NO at mid = n*k - 1, i.e. at x < n, which the
    # bound answered YES at this budget
    lo, hi = -n * k - 1, n * k
    while lo < hi:
        mid = (lo + hi) // 2
        if s.above(v, mid + 1 if k == 1 else Rational(mid + 1, k), budget) is YES:
            hi = mid
        else:
            lo = mid + 1
    if s.decidable or s.below(lo - 1 if k == 1 else Rational(lo - 1, k), v, budget) is YES:
        return lo
    raise BudgetExceeded("locate(%r, k=%d) unresolved within budget %d" % (x, k, budget))


def _grid_walk(x, budget):
    """Yield (k, floor(k*x)) for k = 1, 2, 4, ... <= max(budget, 1) of a decidable
    x, bounding |x| once (no bound, no yield).  x keeps the indices in `grid`; each
    new grid costs one probe, as floor(2k*x) is 2*floor(k*x) or one more."""
    n = _magnitude_bound(x, budget)
    if n is None:
        return
    grid, k = x.grid, 1
    while k <= max(budget, 1):
        if k.bit_length() < len(grid):
            i = grid[k.bit_length()]
        else:
            i = _locate(x, 1, n, budget) if k == 1 else 2 * grid[-1]
            if k > 1 and x.streak.above(x.value, Rational(i + 1, k), budget) is not YES:
                i += 1
            grid.append(i)
        yield k, i
        k *= 2


def _rounded_witness(x, q, side):
    """A rational strictly between q and a decidable x, where q lies on the
    given side of x, via grids of doubling fineness; None when none is found
    up to fineness 2^12, which is also the budget of the search."""
    q = Rational(q)
    for k, i in _grid_walk(x, 1 << 12):
        r = Rational(i - 1, k) if side.lower else Rational(i + 1, k)
        if side.outside(q, r):
            return r
    return None


def nat_scale(n, x):
    """n-fold sum x + x + ... + x (n = 0 gives the streak zero)."""
    return Element(x.streak, scale_value(x.streak, n, x.value))


def scale_value(streak, n, v):
    """The n-fold sum of the value v in `streak` (n a non-negative int):
    the handle's closed form when it has one, else by doubling, which
    equals the plain n-fold sum by associativity."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("scale factor must be a natural number")
    if streak.scale is not None:
        return streak.scale(n, v)
    acc = streak.zero
    while n:
        if n & 1:
            acc = streak.add(acc, v)
        n >>= 1
        if n:
            v = streak.add(v, v)
    return acc


def _less(x, y, budget):
    """x < y: by `cmp` on a decidable streak, so that the least n a witness
    search finds does not move as its budget grows; else strict_lt decides."""
    if x.streak.decidable:
        return x.streak.cmp(x.value, y.value) < 0
    return strict_lt(x, y, budget) is Order.LESS


def _staged_witness(holds, start, budget, decidable):
    """The first n >= start that stages s = start, ..., budget find, stage s
    asking holds(n, s) of every n in start..s in order, or None.  Every
    budget runs the same stages in the same order, so the n found at
    budget b is the n found at every larger budget (on inputs built
    afresh).  A decidable `holds` does not read its budget, so stage s
    asks only n = s, and the n found is the least with holds(n)."""
    for s in range(start, budget + 1):
        for n in range(s if decidable else start, s + 1):
            if holds(n, s):
                return n
    return None


def archimedean_witness(a, b, c, d, budget):
    """An n <= budget with a + n*b < c + n*d, given b < d, as `_less`
    decides: the first that `_staged_witness` finds, which is the least
    such n on a decidable streak."""
    for y in (b, c, d):
        _same_streak(a, y)
    budget = read_budget(budget)
    if not _less(b, d, budget):
        raise BudgetExceeded("b < d not established within budget")
    n = _staged_witness(
        lambda n, stage: _less(a + nat_scale(n, b), c + nat_scale(n, d), stage),
        0, budget, a.streak.decidable)
    if n is None:
        raise BudgetExceeded("no archimedean witness within budget %d" % budget)
    return n


def interpolate(streak, q, r):
    """An element strictly between rationals q < r, for dense streaks."""
    q, r = Rational(q), Rational(r)
    if not q < r:
        raise ValueError("need q < r")
    if streak.interpolate is None:
        raise ValueError("streak %s does not interpolate" % streak.name)
    return Element(streak, streak.interpolate(q, r))


# -- dense substreak generated by a single element in (-1, 0) --------------


def dense_substreak(z):
    """The substreak of the rationals generated by a single z in (-1, 0).

    Its elements are the rationals reachable from 0, 1 and z by
    addition and multiplication of positives; comparisons are inherited
    from the rationals, and interpolation runs the generation search.
    """
    z = Rational(z)
    if not (-1 < z < 0):
        raise ValueError("generator must lie strictly between -1 and 0")
    return _decidable_handle(
        "dense:%s" % z,
        zero=Rational(0),
        one=Rational(1),
        interpolate=lambda q, r: _dense_value(z, Rational(q), Rational(r), 10**6),
    )


def dense_generate(z, q, r, budget):
    """Search the substreak generated by z for an element of (q, r).

    For 0 < q the element has the form (j+1) * (z+1)^n: pick the
    smallest n making the step w^n = (z+1)^n at most min(q, (r-q)/2),
    then the smallest j whose grid point j*w^n reaches q.  For q <= 0,
    shift by n*z with the smallest n making n*z < q and search the
    translated positive interval.
    """
    z, q, r = Rational(z), Rational(q), Rational(r)
    if not (-1 < z < 0):
        raise ValueError("generator must lie strictly between -1 and 0")
    value = _dense_value(z, q, r, read_budget(budget))
    return Element(dense_substreak(z), value)


def _dense_value(z, q, r, budget):
    if not q < r:
        raise ValueError("need q < r")
    if q > 0:
        w = z + Rational(1)
        target = min(q, (r - q) / Rational(2))
        step = w
        n = 1
        while step > target:
            n += 1
            step = step * w
            if n > budget:
                raise BudgetExceeded("no fine enough power of %s within budget" % (z + 1))
        # smallest j with j*step >= q; then (j+1)*step lies in (q, r)
        j = -(-q.num * step.den) // (q.den * step.num)  # ceil(q / step)
        return Rational(j + 1) * step
    # the least n with n*z < q is floor(q/z) + 1 >= 1 (z < 0, q <= 0);
    # the first step costs no budget
    ratio = q / z
    n = ratio.num // ratio.den + 1
    if n > 1 and n > budget:
        raise BudgetExceeded("shift search exhausted")
    shift = z * n
    return _dense_value(z, q - shift, r - shift, budget) + shift


# -- law-checking harness --------------------------------------------------


class _Draws(random.Random):
    """random.Random whose randint is CPython's own draw, a + getrandbits(k)
    retried while out of range, in one frame: the same integers per seed."""

    def randint(self, a, b):
        n = b - a + 1
        if n <= 0:
            raise ValueError("empty range for randint(%d, %d)" % (a, b))
        k, r = n.bit_length(), n
        while r >= n:
            r = self.getrandbits(k)
        return a + r


def sample_rational(rng):
    """The rational that rat, real, lower and upper each sample: the
    numerator in [-24, 24] drawn first, then the denominator in [1, 12]."""
    return Rational(rng.randint(-24, 24), rng.randint(1, 12))


class Sampler:
    """Seeded source of random rationals, with numerators in [-12, 12]
    and denominators in [1, 12], and of streak elements.  A positive
    element is the first of 50 draws certified positive, or, where the
    streak has `neg`, certified negative and negated."""

    def __init__(self, seed):
        self.rng = _Draws(seed)

    def rational(self):
        num = self.rng.randint(-12, 12)
        den = self.rng.randint(1, 12)
        return Rational(num, den)

    def element(self, streak):
        if streak.sample is None:
            raise ValueError("streak %s has no sampler" % streak.name)
        return Element(streak, streak.sample(self.rng))

    def positive_element(self, streak, budget):
        sample, budget = streak.sample, read_budget(budget)
        if sample is None:
            raise ValueError("streak %s has no sampler" % streak.name)
        rng, below, above, neg = self.rng, streak.below, streak.above, streak.neg
        for _ in range(50):
            v = sample(rng)
            if below(ZERO, v, budget) is YES:
                return Element(streak, v)
            if neg is not None and above(v, ZERO, budget) is YES:
                return Element(streak, neg(v))
        return None


class LawReport:
    def __init__(self, name):
        self.name = name
        self.trials = 0
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def __repr__(self):
        state = "ok" if self.passed else "FAIL(%d)" % len(self.failures)
        return "%s: %d trials %s" % (self.name, self.trials, state)


class SuiteReport:
    def __init__(self, streak_name, law_names):
        self.streak_name = streak_name
        self.laws = [LawReport(name) for name in law_names]

    @property
    def passed(self):
        return all(law.passed for law in self.laws)

    def summary(self):
        lines = ["streak %s: %s" % (self.streak_name, "pass" if self.passed else "FAIL")]
        for law in self.laws:
            lines.append("  " + repr(law))
            for ctx in law.failures[:3]:
                lines.append("    counterexample: %s" % ctx)
        return "\n".join(lines)


class _Side:
    """One side of a streak's rational cuts, so that a law and its dual
    share one body.  On the lower side cut(q, v) semidecides q < v and
    outside(q, r) is q < r; the upper side mirrors them as v < q and
    r < q.  `dual` is the other side, built with the first."""

    def __init__(self, s, budget, lower, dual=None):
        self.s, self.budget, self.lower = s, budget, lower
        self.dual = dual or _Side(s, budget, not lower, self)

    def cut(self, q, v):
        if self.lower:
            return self.s.below(q, v, self.budget)
        return self.s.above(v, q, self.budget)

    def outside(self, q, r):
        return q < r if self.lower else r < q

    def known(self, q, v, cut=None):
        """True / False / None for cut(q, v) (None = undecided within
        budget); `cut` is its answer where the caller already asked it."""
        if (cut or self.cut(q, v)) is YES:
            return True
        if self.s.decidable:
            return False
        if self.dual.cut(q, v) is YES:
            return False  # cut(q, v) would violate asymmetry
        return None


def _sides(s, budget):
    lower = _Side(s, budget, True)
    return lower, lower.dual


def elements_apart(s, u, v, budget):
    """True when the two values are certified apart: strict_lt decides
    them within budget."""
    return strict_lt(Element(s, u), Element(s, v), budget) is not Order.UNKNOWN


_NOT_RUN = object()  # a law body's answer on a trial without the draws it needs


class _Trial:
    """One trial's draws as attributes; a plain class reads them fastest."""


def _run_laws(name, rows, trials, draw):
    """The loop of both suites: a SuiteReport with one LawReport per (name,
    body) row, in row order.  Each trial has draw(t) fill a fresh _Trial t,
    then counts a trial of every law whose body answers t with other than
    _NOT_RUN, and keeps each failure it answers."""
    report = SuiteReport(name, [law_name for law_name, _ in rows])
    laws = [(law, body) for law, (_, body) in zip(report.laws, rows)]
    for _ in range(trials):
        t = _Trial()
        draw(t)
        for law, body in laws:
            outcome = body(t)
            if outcome is not _NOT_RUN:
                law.trials += 1
                if outcome is not None:
                    law.failures.append(outcome)
    return report


def _dual(name, dual_name, body):
    """The rows of a law and its dual: body(t, side, cut) on the lower side,
    then on the upper, with cut the trial's cut of a at q on that side."""
    return (name, lambda t: body(t, t.sides[0], t.cuts[0])), (
        dual_name, lambda t: body(t, t.sides[1], t.cuts[1]))


def _equation(label, sides, positive=False):
    """The body of an equation between the two elements sides(t) of a
    trial t, over the draws a, b and c, or, where `positive`, over pa, pb
    and pc, which it does not run without.  It fails when they differ by
    `eq`, or, without it, when they are apart."""

    def body(t):
        if positive and t.pc is None:
            return _NOT_RUN
        s = t.s
        u, v = sides(t)
        if s.eq is not None:
            if not s.eq(u.value, v.value):
                return "%s: %s != %s" % (label, s.describe(u.value), s.describe(v.value))
        elif elements_apart(s, u.value, v.value, t.budget):
            return "%s: %s apart from %s" % (label, s.describe(u.value), s.describe(v.value))
        return None

    return body


# the law table: rows of a name and a body over one `axiom_suite` trial t
_AXIOM_LAWS = (
    # some integer bound on either side of every element
    ("boundedness", lambda t: "unbounded %r" % t.a
        if t.s.decidable and _magnitude_bound(t.a, 1 << 14) is None else None),
    # q < a implies q < r or r < a (and dually)
    *_dual("cotransitivity-below", "cotransitivity-above", lambda t, side, cut: (
        "q=%s r=%s a=%r" % (t.q, t.r, t.a)
        if cut is YES and not side.outside(t.q, t.r) and side.known(t.r, t.a.value) is False
        else None)),
    # q < r splits into q < a or a < r; q < a known false from the cuts
    ("cotransitivity-split", lambda t: "q=%s r=%s a=%r" % (t.q, t.r, t.a)
        if t.q < t.r and t.cuts[0] is not YES and (t.s.decidable or t.cuts[1] is YES)
        and t.sides[1].known(t.r, t.a.value) is False else None),
    # q < a implies q < p < a for some rational p (and dually)
    *_dual("roundedness-below", "roundedness-above", lambda t, side, cut: (
        "q=%s a=%r" % (t.q, t.a)
        if t.s.decidable and cut is YES and _rounded_witness(t.a, t.q, side) is None
        else None)),
    # never q < a and a < q together
    ("asymmetry", lambda t: "q=%s a=%r" % (t.q, t.a)
        if t.cuts[0] is YES and t.cuts[1] is YES else None),
    # unequal elements are separated by some rational
    ("extensionality", lambda t: "%r vs %r have equal rational cuts" % (t.a, t.b)
        if t.s.decidable and not t.s.eq(t.a.value, t.b.value)
        and strict_lt(t.a, t.b, 1 << 12) is Order.UNKNOWN else None),
    # additive commutative monoid; t.ab is a + b
    ("add-commutative", _equation("a+b vs b+a", lambda t: (t.ab, t.b + t.a))),
    ("add-associative", _equation("(a+b)+c", lambda t: (t.ab + t.c, t.a + (t.b + t.c)))),
    ("add-identity", _equation("a+0", lambda t: (t.a + Element(t.s, t.s.zero), t.a))),
    # multiplicative monoid on positives, distributing over +; t.pab is pa * pb
    ("mul-commutative", _equation("ab vs ba", lambda t: (t.pab, t.pb * t.pa), positive=True)),
    ("mul-associative", _equation(
        "(ab)c", lambda t: (t.pab * t.pc, t.pa * (t.pb * t.pc)), positive=True)),
    ("mul-identity", _equation(
        "a*1", lambda t: (t.pa * Element(t.s, t.s.one), t.pa), positive=True)),
    ("distributivity", _equation(
        "a(b+c)", lambda t: (t.pa * (t.pb + t.pc), t.pab + t.pa * t.pc), positive=True)),
    # monotonicity against rational bounds on both sides; products need pb
    *_dual("add-monotone", "add-monotone-above", lambda t, side, cut: (
        "q=%s r=%s a=%r b=%r" % (t.q, t.r, t.a, t.b)
        if cut is YES and side.cut(t.r, t.b.value) is YES
        and side.known(t.q + t.r, t.ab.value) is False else None)),
    *_dual("mul-monotone", "mul-monotone-above", lambda t, side, _: _NOT_RUN
        if t.pb is None else ("q=%s r=%s a=%r b=%r" % (t.qp, t.rp, t.pa, t.pb)
        if side.cut(t.qp, t.pa.value) is YES and side.cut(t.rp, t.pb.value) is YES
        and side.known(t.qp * t.rp, t.pab.value) is False else None)),
)


def axiom_suite(streak, sampler, trials, budget=12):
    """Randomized check of every streak law; failures carry counterexamples.

    Each law is a row of the law table `_AXIOM_LAWS`: a name and a body
    that answers one trial with a failure string, with None when the law
    held, or with _NOT_RUN when the trial lacks the draws the law needs.
    A trial draws, in this order: elements a, b and c, then forms a + b
    once; rationals q and r; the two cuts of a at q, asked once (a
    decidable a keeps its bound and grids); positive elements pa, pb and
    pc, each once the one before it was found, and none where `one` is
    not certified positive, then, with pb, forms pa * pb once; and, with
    pb, rationals qp > |q| and rp > |r|.  The sum and the product take
    no random draws, and every law that reads a + b or pa * pb reads
    that one value.

    Semidecidable laws are checked one-sidedly: a failure is only
    recorded when YES answers jointly contradict the law.  On a
    semidecidable streak such as `real` the shared a + b and pa * pb
    keep what the laws before asked of them (a `real` node keeps its
    finest interval), so a later law's answers can only be more decided,
    and a failure still needs YES answers that contradict each other.
    """
    s, budget = streak, read_budget(budget)
    sides = _sides(s, budget)
    positives = s.below(ZERO, s.one, budget) is YES

    def draw(t):
        t.s, t.budget, t.sides = s, budget, sides
        a = t.a = sampler.element(s)
        b = t.b = sampler.element(s)
        t.c = sampler.element(s)
        t.ab = a + b
        q, r = t.q, t.r = sampler.rational(), sampler.rational()
        t.cuts = (s.below(q, a.value, budget), s.above(a.value, q, budget))  # (lower, upper)
        t.pa = sampler.positive_element(s, budget) if positives else None
        t.pb = t.pc = None
        if t.pa is not None:
            t.pb = sampler.positive_element(s, budget)
        if t.pb is not None:
            t.pc = sampler.positive_element(s, budget)
            t.pab = t.pa * t.pb
            t.qp = abs(q) + Rational(1, sampler.rng.randint(1, 9))
            t.rp = abs(r) + Rational(1, sampler.rng.randint(1, 9))

    return _run_laws(s.name, _AXIOM_LAWS, trials, draw)


def morphism_check(f, src, dst, sampler, trials, budget=12):
    """Check that f preserves and reflects comparison with rationals, and
    is additive by `_equation` over dst.  `_run_laws` runs its three rows
    on trials that draw x and y from src, then take f(x) and f(y).  A
    bound law asks both cuts once per rational and fails where one side's
    YES cut is known false on the other; it reports the last such rational."""
    budget = read_budget(budget)
    probes = rational_prefix(2 * budget + 1)

    def preserves(t, src_side, dst_side):
        fail = None
        for q in probes:
            src_cut, dst_cut = src_side.cut(q, t.x.value), dst_side.cut(q, t.fx.value)
            if src_cut is YES and dst_side.known(q, t.fx.value, dst_cut) is False:
                fail = "q=%s x=%r" % (q, t.x)
            elif dst_cut is YES and src_side.known(q, t.x.value, src_cut) is False:
                fail = "q=%s x=%r (reflected)" % (q, t.x)
        return fail

    def draw(t):
        t.s, t.budget = dst, budget
        t.x, t.y = sampler.element(src), sampler.element(src)
        t.fx, t.fy = f(t.x), f(t.y)

    lower, upper = zip(_sides(src, budget), _sides(dst, budget))
    rows = (
        ("preserves-lower-bounds", lambda t: preserves(t, *lower)),
        ("preserves-upper-bounds", lambda t: preserves(t, *upper)),
        ("additive", _equation(
            "f(x+y) vs f(x)+f(y)", lambda t: (f(t.x + t.y), t.fx + t.fy))),
    )
    return _run_laws("%s -> %s" % (src.name, dst.name), rows, trials, draw)
