"""Cauchy sequences of rationals carrying an explicit modulus of convergence.

The modulus law is multiplicative rather than epsilon-based: for every
n and all indices i, j >= M(n) the terms satisfy n*a_i < 1 + n*a_j,
i.e. they differ by less than 1/n.  Every operation here produces the
modulus for its output, so validity is closed under the constructors
and checkable on finite prefixes.
"""

from __future__ import annotations

import functools
import math
import operator

from .core import ApartnessUndecided, Order, read_budget
from .rational import Rational, _as_rat, _new, _set_den, _set_num
from .real import RefinedReal


class _Memo(dict):
    """The answers of fn asked so far, by argument; a subclass's
    `__missing__` asks fn once per argument."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


class _Terms(_Memo):
    """A miss coerces the term to a Rational."""

    __slots__ = ()

    def __missing__(self, i):
        a = self.fn(i)
        if a.__class__ is not Rational:
            a = _as_rat(a)
        self[i] = a
        return a


class _Moduli(_Memo):
    """A miss clamps the modulus at 0."""

    __slots__ = ()

    def __missing__(self, n):
        m = int(self.fn(n))
        if m < 0:
            m = 0
        self[n] = m
        return m


class CauchyReal:
    """A total rational sequence a_i with a modulus of convergence.

    The modulus law holds separately for each n, and every consumer
    (`cs_lt`, `cs_positive`, `cs_validate`, the constructors and
    `cs_to_real`) needs only that per-n law, so `.modulus(n)` is the
    stated modulus at n, clamped at 0; it need not grow with n.
    A constant answers term q and modulus 0 directly; other sequences
    memoize terms and moduli per index, so all searches are reproducible.
    A memo lookup is the query: `.term` and `.modulus` are the bound
    `__getitem__` of a dict of the answers so far, so a repeated ask is
    one C call, and only a first ask runs Python code.
    `monotone` is accepted and ignored.
    """

    __slots__ = ("term", "modulus")

    def __init__(self, term, modulus, monotone=False):
        self.term = _Terms(term).__getitem__
        self.modulus = _Moduli(modulus).__getitem__

    @classmethod
    def constant(cls, q):
        q = _as_rat(q)
        x = cls.__new__(cls)
        x.term, x.modulus = (lambda i: q), (lambda n: 0)
        return x

    def __repr__(self):
        return "CauchyReal(a0=%s, a1=%s, ...)" % (self.term(0), self.term(1))


def cs_validate(x, n_max, idx_max):
    """Check the modulus law for all n <= n_max and M(n) <= i, j <= idx_max:
    the first violating (n, i, j), or None when the law holds.

    The law for fixed n says every two terms past M(n) are within 1/n,
    which holds for all pairs iff it holds for the extremal pair.
    """
    n_max, idx_max = operator.index(n_max), operator.index(idx_max)
    for n in range(1, n_max + 1):
        start = x.modulus(n)
        if start > idx_max:
            continue
        indices = range(start, idx_max + 1)
        hi_i = max(indices, key=lambda i: (x.term(i), -i))
        lo_j = min(indices, key=lambda j: (x.term(j), j))
        # n*a_i < 1 + n*a_j  iff  a_i - a_j < 1/n
        if not (x.term(hi_i) - x.term(lo_j)) * n < 1:
            return n, hi_i, lo_j
    return None


def cs_lt(x, y, budget):
    """Three-valued order: LESS iff some n <= budget has
    n*a_{M(n)} + 2 < n*b_{N(n)}; GREATER symmetrically."""
    for n in range(1, read_budget(budget) + 1):
        a = x.term(x.modulus(n)) * n
        b = y.term(y.modulus(n)) * n
        if a + 2 < b:
            return Order.LESS
        if b + 2 < a:
            return Order.GREATER
    return Order.UNKNOWN


def cs_add(x, y):
    """Termwise sum; the modulus splits the allowance in half."""
    return CauchyReal(
        lambda i: x.term(i) + y.term(i),
        lambda n: max(x.modulus(2 * n), y.modulus(2 * n)),
    )


def cs_neg(x):
    return CauchyReal(lambda i: -x.term(i), x.modulus)


def cs_positive(x, budget):
    """Search for n <= budget with n*a_k > 1 for all k >= n; None if none.

    The unbounded universal part reduces to one finite check: if the
    anchor term at M(2n) clears 3/(2n), every later term stays above
    1/n because terms past M(2n) differ by less than 1/(2n).  The
    returned bound also dominates M(2n) so the claim holds from the
    bound onward.
    """
    for n in range(1, read_budget(budget) + 1):
        anchor = x.term(x.modulus(2 * n))
        if anchor > Rational(3, 2 * n):
            return max(n, x.modulus(2 * n))
    return None


def cs_mul(x, y):
    """Termwise product of two certified-positive sequences.

    Each factor's positivity witness is searched for among n <= 64.  The
    modulus needs a common bound n that witnesses positivity of both
    factors and dominates their early terms; the output modulus then
    splits the allowance across the factor magnitudes.
    """
    nx, ny = cs_positive(x, 64), cs_positive(y, 64)
    if nx is None or ny is None:
        raise ApartnessUndecided("cs_mul needs both factors certified positive")
    # the least integer n >= max(nx, ny) with c + 1 < n for both early
    # terms c: floor(c) + 2 is the least integer above c + 1
    early = (x.term(x.modulus(1)), y.term(y.modulus(1)))
    n = max(nx, ny, *(c.num // c.den + 2 for c in early))

    return CauchyReal(
        lambda i: x.term(i) * y.term(i),
        lambda m: max(x.modulus(2 * n * m), y.modulus(2 * n * m), x.modulus(1), y.modulus(1)),
    )


def cs_limit(family, outer_modulus):
    """Diagonal limit of a sequence of Cauchy reals that is itself Cauchy
    with the given modulus: s_n = b_n(n), with the combined modulus
    taking the slower of the outer rate and the M(3n)-th member's rate."""
    # bounded cache: the family must be deterministic, so recreating a
    # member is safe; unbounded memoization would pin every member that
    # a term or modulus query has touched
    members = functools.lru_cache(maxsize=64)(family)

    def term(i):
        return members(i).term(i)

    def modulus(n):
        stage = int(outer_modulus(3 * n))
        inner = members(stage).modulus(3 * n)
        return max(inner, stage)

    return CauchyReal(term, modulus)


def cs_to_real(x):
    """The interval-refinement view: at precision n the limit lies within
    1/n of the anchor term a_{M(n)}.

    Only the per-n law is needed here; `RefinedReal` memoizes each
    precision, and its intersection keeps the intervals nested.
    """
    term, modulus = x.term, x.modulus

    def raw(n):
        # a/b -+ 1/n = (a*n -+ b) / (b*n): one gcd puts each in lowest terms
        anchor = term(modulus(n))
        an, b = anchor.num * n, anchor.den
        d = b * n
        lo, hi = _new(Rational), _new(Rational)
        g, h = math.gcd(an - b, d), math.gcd(an + b, d)
        _set_num(lo, (an - b) // g)
        _set_den(lo, d // g)
        _set_num(hi, (an + b) // h)
        _set_den(hi, d // h)
        return lo, hi

    return RefinedReal(raw)
