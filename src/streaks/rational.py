"""Arbitrary-precision rationals with decidable order.

Every comparison in the rest of the library is ultimately a comparison
against a rational number, so this module is the measuring stick for
everything else.  Naturals and integers are plain Python ints.
Rationals are immutable and kept in canonical form at construction
time: gcd-reduced with a strictly positive denominator.  Equality is
therefore structural.

Arithmetic results skip the constructor: `_canonical(n, d)` stores its
parts as given, and trusts its caller for the invariant every Rational
holds -- `num` and `den` are ints (never bool) in lowest terms, with
`den > 0`.
"""

from __future__ import annotations

import math
import operator
import re


class DivisionByZero(ArithmeticError):
    """Raised on division by zero (exact arithmetic has no inf/nan)."""


class Rational:
    """An exact fraction in lowest terms with positive denominator.

    Accepts an int or a Rational, or a num/den pair of those; anything
    else raises TypeError.  Naturals and integers are plain ints.  All
    arithmetic returns canonical values, so `a == b` iff the fractions
    are equal as numbers.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if num.__class__ is int and den.__class__ is int and den > 0:
            g = math.gcd(num, den)
            if g != 1:
                num //= g
                den //= g
            _set_num(self, num)
            _set_den(self, den)
            return
        if isinstance(num, Rational) and isinstance(den, int) and den == 1:
            object.__setattr__(self, "num", num.num)
            object.__setattr__(self, "den", num.den)
            return
        if isinstance(num, Rational) or isinstance(den, Rational):
            # general fraction of fractions
            a = num if isinstance(num, Rational) else Rational(num)
            b = den if isinstance(den, Rational) else Rational(den)
            if b.num == 0:
                raise DivisionByZero("denominator is zero")
            n = a.num * b.den
            d = a.den * b.num
        elif isinstance(num, int) and isinstance(den, int):
            n, d = num, den
        else:
            bad = den if isinstance(num, int) else num
            raise TypeError("cannot build a Rational from %r" % type(bad).__name__)
        if d == 0:
            raise DivisionByZero("denominator is zero")
        if d < 0:
            n, d = -n, -d
        g = math.gcd(n, d)
        object.__setattr__(self, "num", n // g)
        object.__setattr__(self, "den", d // g)

    def __setattr__(self, name, value):
        raise AttributeError("Rational is immutable")

    def __reduce__(self):
        return Rational, (self.num, self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is int:
            # num + other * den stays coprime to den
            return _canonical(self.num + other * self.den, self.den)
        if other.__class__ is not Rational:
            other = _as_rat(other)
        n = self.num * other.den + other.num * self.den
        d = self.den * other.den
        g = math.gcd(n, d)
        return _canonical(n // g, d // g)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Rational:
            other = _as_rat(other)
        n = self.num * other.den - other.num * self.den
        d = self.den * other.den
        g = math.gcd(n, d)
        return _canonical(n // g, d // g)

    def __rsub__(self, other):
        return _as_rat(other) - self

    def __mul__(self, other):
        if other.__class__ is int:
            g = math.gcd(other, self.den)
            return _canonical(self.num * (other // g), self.den // g)
        if other.__class__ is not Rational:
            other = _as_rat(other)
        n = self.num * other.num
        d = self.den * other.den
        g = math.gcd(n, d)
        return _canonical(n // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Rational:
            other = _as_rat(other)
        if other.num == 0:
            raise DivisionByZero("division by zero")
        n = self.num * other.den
        d = self.den * other.num
        if d < 0:
            n, d = -n, -d
        g = math.gcd(n, d)
        return _canonical(n // g, d // g)

    def __rtruediv__(self, other):
        return _as_rat(other) / self

    def __neg__(self):
        return _canonical(-self.num, self.den)

    def __abs__(self):
        if self.num >= 0:
            return self
        return _canonical(-self.num, self.den)

    def __pow__(self, k):
        k = operator.index(k)
        if k >= 0:
            return Rational(self.num**k, self.den**k)
        if self.num == 0:
            raise DivisionByZero("0 has no negative power")
        return Rational(self.den ** (-k), self.num ** (-k))

    # -- order ------------------------------------------------------------

    def _cmp_key(self, other):
        if other.__class__ is int:
            return self.num - other * self.den
        o = _as_rat(other)
        return self.num * o.den - o.num * self.den

    def __eq__(self, other):
        if other.__class__ is Rational:
            return self.num == other.num and self.den == other.den
        if not isinstance(other, (Rational, int)):
            return NotImplemented
        return self._cmp_key(other) == 0

    def __hash__(self):
        # a whole rational hashes as the int it equals
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __lt__(self, other):
        if other.__class__ is Rational:
            return self.num * other.den < other.num * self.den
        return self._cmp_key(other) < 0

    def __le__(self, other):
        if other.__class__ is Rational:
            return self.num * other.den <= other.num * self.den
        return self._cmp_key(other) <= 0

    def __gt__(self, other):
        if other.__class__ is Rational:
            return self.num * other.den > other.num * self.den
        return self._cmp_key(other) > 0

    def __ge__(self, other):
        if other.__class__ is Rational:
            return self.num * other.den >= other.num * self.den
        return self._cmp_key(other) >= 0

    def __repr__(self):
        return "Rational(%s, %s)" % (int_text(self.num), int_text(self.den))

    def __str__(self):
        if self.den == 1:
            return int_text(self.num)
        return "%s/%s" % (int_text(self.num), int_text(self.den))

    def __bool__(self):
        return self.num != 0


_set_num = Rational.num.__set__
_set_den = Rational.den.__set__


def _canonical(n, d):
    """A Rational with parts n, d as given: ints in lowest terms, d > 0."""
    r = object.__new__(Rational)
    _set_num(r, n)
    _set_den(r, d)
    return r


def _as_rat(x):
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    raise TypeError("cannot interpret %r as a Rational" % type(x).__name__)


# -- module operations ----------------------------------------------------

_OPS = {"add", "sub", "mul", "div"}


def rat_arith(op, a, b):
    """Apply one of {add, sub, mul, div} to two rationals, exactly."""
    if op not in _OPS:
        raise ValueError("unknown operation %r" % op)
    a, b = _as_rat(a), _as_rat(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def rat_cmp(a, b):
    """Three-way total-order comparison: -1, 0 or 1, the sign of a - b."""
    key = _as_rat(a)._cmp_key(b)
    return (key > 0) - (key < 0)


def int_text(i):
    """str(i) for an int of any size: str() refuses more digits than
    sys.get_int_max_str_digits() (never below 640), Decimal prints any int
    exactly."""
    if i.bit_length() <= 2000:
        return str(i)
    import decimal  # imported on first use: most runs never print such an int

    return str(decimal.Decimal(i))


def text_int(text):
    """int(text) for a digit string of any length: int() refuses as many
    digits as str() does (see int_text), Decimal reads any exactly."""
    if len(text) <= 640:
        return int(text)
    import decimal  # imported on first use: most literals are short
    return int(decimal.Decimal(text))


def rat_decimal(a, digits):
    """Decimal expansion of `a` truncated toward zero at `digits` places.

    The printed value p satisfies |a - p| < 10^-digits.
    """
    a = _as_rat(a)
    digits = operator.index(digits)
    if digits < 0:
        raise ValueError("digits must be non-negative")
    negative = a.num < 0
    scaled = abs(a.num) * 10**digits // a.den  # truncation toward zero
    text = int_text(scaled).rjust(digits + 1, "0")
    if digits:
        text = text[:-digits] + "." + text[-digits:]
    if negative and scaled != 0:
        # -0.0004 truncates to 0 at 3 digits, which is printed unsigned
        text = "-" + text
    return text


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_DEC_RE = re.compile(r"^(-?)(\d+)\.(\d+)$")


def parse_rational(text):
    """Parse `[-]digits[/digits]` or a decimal literal `[-]digits.digits`."""
    text = text.strip()
    m = _RAT_RE.match(text)
    if m:
        den = text_int(m.group(2) or "1")
        if den == 0:
            raise DivisionByZero("zero denominator in %r" % text)
        return Rational(text_int(m.group(1)), den)
    m = _DEC_RE.match(text)
    if m:
        sign, whole, frac = m.groups()
        return Rational(text_int(sign + whole + frac), 10 ** len(frac))
    raise ValueError("not a rational literal: %r" % text)
