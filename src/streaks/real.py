"""Interval-refinement reals: the library's canonical real number type.

A RefinedReal is a deterministic oracle: asked for precision n >= 1 (the
precision asked, not the width reached), it answers a rational interval
[lo, hi] of width at most 2/n containing the number.  Answers are nested
and width monotone, and an ask the current interval already meets runs
nothing.  Arithmetic asks operands at inflated precisions chosen so the
output width contract holds.  There is one product node, real_mul_total,
for every sign case, and one reciprocal node, real_recip, for either sign;
the reciprocal and the paper's positive product real_mul_pos take explicit
apartness certificates.
"""

from __future__ import annotations

import math
import operator

from .core import (
    NO,
    YES,
    ApartnessUndecided,
    BudgetExceeded,
    Order,
    StreakHandle,
    locate,
    read_budget,
    sample_rational,
)
from .rational import Rational, _as_rat, int_text, rat_decimal

# bound once: every precision and digit count here is read with it
_index = operator.index


class Apartness:
    """A certificate that x lies beyond a nonzero rational bound, on the
    bound's side of zero, re-checkable at its precision."""

    __slots__ = ("bound", "precision")

    def __init__(self, bound, precision):
        bound = Rational(bound)
        if bound == 0:
            raise ValueError("apartness bound must be nonzero")
        self.bound = bound
        self.precision = _index(precision)

    def check(self, x):
        lo, hi = x.refine(self.precision)
        return self.bound < lo if 0 < self.bound else hi < self.bound

    def __repr__(self):
        return "Apartness(bound=%s, precision=%d)" % (self.bound, self.precision)


class RefinedReal:
    """A nested-interval oracle; see the module docstring.

    It keeps one running interval, the intersection of every raw
    emission so far.  An ask for n that it meets (width <= 2/n) returns
    it without a raw call, so the coarser asks of one pass are answered
    from the finest; a finer ask runs the raw oracle once and folds it in.
    """

    __slots__ = ("_raw", "_current", "_meets")

    def __init__(self, raw):
        self._raw = raw
        self._current = None  # intersection of everything emitted so far
        self._meets = 0  # largest n with width of _current <= 2/n

    def refine(self, n):
        if 0 < n <= self._meets:
            return self._current
        n = _index(n)
        if n < 1:
            raise ValueError("precision must be at least 1")
        lo, hi = self._raw(n)
        if lo.__class__ is not Rational:
            lo = _as_rat(lo)
        if hi.__class__ is not Rational:
            hi = _as_rat(hi)
        if self._current is not None:
            clo, chi = self._current
            if lo.num * clo.den < clo.num * lo.den:
                lo = clo
            if chi.num * hi.den < hi.num * chi.den:
                hi = chi
        # the width is gap / (lo.den * hi.den); floor(2 / width) needs no gcd
        gap = hi.num * lo.den - lo.num * hi.den
        if gap < 0:
            raise ValueError("refinement produced an empty interval at n=%d" % n)
        self._meets = 2 * lo.den * hi.den // gap if gap else math.inf
        self._current = (lo, hi)
        return self._current

    def __repr__(self):
        # the running interval as it stands: printing never runs a raw
        if self._current is None:
            return "RefinedReal[unrefined]"
        return "RefinedReal[%s, %s]" % self._current


def real_from_rational(q):
    q = Rational(q)
    return RefinedReal(lambda n: (q, q))


def real_add(x, y):
    def raw(n):
        (xlo, xhi), (ylo, yhi) = x.refine(2 * n), y.refine(2 * n)
        return xlo + ylo, xhi + yhi

    return RefinedReal(raw)


def real_neg(x):
    def raw(n):
        lo, hi = x.refine(n)
        return -hi, -lo

    return RefinedReal(raw)


def real_sub(x, y):
    def raw(n):
        xlo, xhi = x.refine(2 * n)
        ylo, yhi = y.refine(2 * n)
        return xlo - yhi, xhi - ylo

    return RefinedReal(raw)


def real_scale(c, x):
    """Multiplication by a fixed rational (sign handled by cases)."""
    c = Rational(c)
    if c.num == 0:
        return real_from_rational(0)
    inflate = abs(c.num) // c.den + 1

    def raw(n):
        lo, hi = x.refine(inflate * n)
        if c.num > 0:
            return c * lo, c * hi
        return c * hi, c * lo

    return RefinedReal(raw)


def real_mul_pos(x, y, cert_x, cert_y):
    """The paper's multiplication on the positive part: a certified gate in
    front of real_mul_total, which is sound for any signs."""
    for cert, operand in ((cert_x, x), (cert_y, y)):
        if not 0 < cert.bound or not cert.check(operand):
            raise ValueError("positive multiplication needs valid "
                             "positivity certificates")
    return real_mul_total(x, y)


def real_mul_total(x, y):
    """Interval product: min and max of the four endpoint products, one node
    for every sign case.  The running intervals nest inside the precision-1
    ones, so |x|, |y| <= B (B >= 1); at p = (floor(2B) + 1)n > 2Bn both widths
    are at most 2/p, and the product's at most B(w_x + w_y) <= 4B/p < 2/n."""
    xlo, xhi = x.refine(1)
    ylo, yhi = y.refine(1)
    twice = 2 * max(abs(xlo), abs(xhi), abs(ylo), abs(yhi), Rational(1))
    inflate = twice.num // twice.den + 1

    def raw(n):
        xlo, xhi = x.refine(inflate * n)
        ylo, yhi = y.refine(inflate * n)
        ends = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        return min(ends), max(ends)

    return RefinedReal(raw)


def _endpointwise(pick, x, y):
    def raw(n):
        xlo, xhi = x.refine(n)
        ylo, yhi = y.refine(n)
        return pick(xlo, ylo), pick(xhi, yhi)

    return RefinedReal(raw)


def real_inf(x, y):
    return _endpointwise(min, x, y)


def real_sup(x, y):
    return _endpointwise(max, x, y)


def real_abs(x):
    return real_sup(x, real_neg(x))


def real_dist(x, y):
    return real_abs(real_sub(x, y))


def real_recip(x, cert):
    """Reciprocal licensed by an apartness certificate with bound b, one node
    for either sign: precision inflates by 1/|b|^2 to absorb the distortion of
    inversion.  refine intersects every answer with the running interval, so
    each later interval of x lies inside the one cert.check verified, beyond
    b from zero on the certified side, and needs no clamp."""
    if not cert.check(x):
        raise ValueError("certificate does not re-verify")
    beta = abs(cert.bound)

    def raw(n):
        lo, hi = x.refine(max(n * beta.den**2 // beta.num**2 + 1, cert.precision))
        return 1 / hi, 1 / lo

    return RefinedReal(raw)


def real_cmp_rat(x, q, budget):
    """Refine until the interval clears q on either side, up to budget.  Asks
    up to x._meets all return the same interval, so each step skips past them."""
    q = _as_rat(q)
    n, budget = 1, read_budget(budget)
    while n <= budget:
        lo, hi = x.refine(n)
        if hi < q:
            return Order.LESS
        if q < lo:
            return Order.GREATER
        n = max(n, x._meets) + 1
    return Order.UNKNOWN


def derive_apartness(x, budget):
    """Find a certificate separating x from zero at doubling precisions, past
    those x._meets answers (all, if infinite); the bound is half the cleared margin."""
    n, limit = 1, max(_index(budget), 1)
    while n <= limit:
        lo, hi = x.refine(n)
        if lo.num > 0:
            return Apartness(lo / Rational(2), n)
        if hi.num < 0:
            return Apartness(hi / Rational(2), n)
        n <<= max(1, (min(x._meets, limit) // n).bit_length())
    raise ApartnessUndecided("could not separate from zero within budget %s"
                             % _budget_text(budget))


def _budget_text(budget):
    """A budget as text: a power of two as 2^k, as every default cap past
    10^7 is, so its message does not grow with the digits; else decimal."""
    budget = _index(budget)
    if budget > 0 and budget & (budget - 1) == 0:
        return "2^%d" % (budget.bit_length() - 1)
    return int_text(budget)


def real_embed(x, budget):
    """The canonical embedding of any archimedean streak element: at
    precision n, locating x on the 1/n grid gives the interval."""
    budget = read_budget(budget)

    def raw(n):
        i = locate(x, n, budget)
        return Rational(i - 1, n), Rational(i + 1, n)

    return RefinedReal(raw)


class Certificate:
    """The printed evidence for a decimal output: the final interval and
    the precision asked for it."""

    __slots__ = ("lo", "hi", "precision")

    def __init__(self, lo, hi, precision):
        self.lo = Rational(lo)
        self.hi = Rational(hi)
        self.precision = _index(precision)

    def line(self):
        return "interval lo=%s hi=%s precision=%s" % (
            self.lo, self.hi, int_text(self.precision))

    def __repr__(self):
        return "Certificate(%s)" % self.line()


def decimal_precision(digits):
    """The smallest power of two P with 2/P <= 10^-digits; dyadic leaves
    stay dyadic.  Negative digits raise ValueError."""
    digits = _index(digits)
    if digits < 0:
        raise ValueError("digits must be non-negative")
    return 1 << (2 * 10 ** digits - 1).bit_length()


def real_to_decimal(x, digits, budget):
    """Print the interval midpoint truncated toward zero, so |x - printed|
    <= 2 * 10^-digits.  Asks precision 1, where exact and already narrow
    values stop, then decimal_precision(digits) capped at max(budget, 1);
    only a cap below that precision can leave the width above 10^-digits."""
    digits = _index(digits)
    cap = max(1, min(decimal_precision(digits), read_budget(budget)))
    target = Rational(1, 10**digits)
    for n in (1, cap):
        lo, hi = x.refine(n)
        if hi - lo <= target:
            break
    else:
        raise BudgetExceeded("width %s still above %s at precision %s"
                             % (hi - lo, target, _budget_text(n)))
    mid = (lo + hi) / Rational(2)
    return rat_decimal(mid, digits), Certificate(lo, hi, n)


# -- the reals as a registered streak --------------------------------------


def real_streak_handle():
    """The (semidecidable) streak of interval-refinement reals: budget is
    read as the refinement depth for comparisons.  Its mul_pos is the total
    real_mul_total, which needs no certificate and never searches."""

    def below(q, v, budget):
        return YES if real_cmp_rat(v, q, max(budget, 1)) is Order.GREATER else NO

    def above(v, q, budget):
        return YES if real_cmp_rat(v, q, max(budget, 1)) is Order.LESS else NO

    return StreakHandle(
        name="real",
        below=below,
        above=above,
        add=real_add,
        zero=real_from_rational(0),
        mul_pos=real_mul_total,
        one=real_from_rational(1),
        sample=lambda rng: real_from_rational(sample_rational(rng)),
        mul_total=real_mul_total,
        neg=real_neg,
        sub=real_sub,
    )
