"""Cauchy sequences of rationals carrying an explicit modulus of convergence.

The modulus law is multiplicative rather than epsilon-based: for every
n and all indices i, j >= M(n) the terms satisfy n*a_i < 1 + n*a_j,
i.e. they differ by less than 1/n.  Every operation here produces the
modulus for its output, so validity is closed under the constructors
and checkable on finite prefixes.
"""

from __future__ import annotations

import functools

from .core import NO, YES, Order
from .rational import Rational
from .real import RefinedReal


class NotCertifiedPositive(Exception):
    pass


class CauchyReal:
    """A total rational sequence a_i with a modulus of convergence.

    `.modulus` is the nondecreasing view: the stated modulus wrapped
    with a running maximum, which never invalidates the modulus law.
    Searches that walk n upward (`cs_lt`, `cs_positive`, `cs_validate`)
    read it.  The law itself is per-n, so a consumer that needs one
    valid index at a single n (`cs_to_real`) reads the stated modulus
    and skips the rescan of every k <= n.  Terms and `.modulus` are
    memoized so that all searches are reproducible.
    """

    __slots__ = ("term", "_raw_modulus", "modulus")

    def __init__(self, term, modulus, monotone=False):
        self.term = functools.cache(lambda i: Rational(term(i)))
        self._raw_modulus = modulus

        if monotone:
            # constructor-produced moduli are nondecreasing by
            # construction, so the running-max wrap would be the identity
            self.modulus = functools.cache(lambda n: max(int(modulus(n)), 0))
        else:
            cache = {}
            state = [-1, 0]  # highest index scanned so far, max up to it

            def running_max(n):
                if n in cache:
                    return cache[n]
                hi, acc = state
                if n > hi:
                    for k in range(hi + 1, n + 1):
                        acc = max(acc, int(modulus(k)))
                    state[0], state[1] = n, acc
                    cache[n] = acc
                    return acc
                # out-of-order query below the frontier: rescan the prefix
                acc = 0
                for k in range(n + 1):
                    acc = max(acc, int(modulus(k)))
                cache[n] = acc
                return acc

            self.modulus = running_max

    @classmethod
    def constant(cls, q):
        q = Rational(q)
        return cls(lambda i: q, lambda n: 0, monotone=True)

    def __repr__(self):
        return "CauchyReal(a0=%s, a1=%s, ...)" % (self.term(0), self.term(1))


class ValidationReport:
    def __init__(self, violation=None):
        self.violation = violation  # (n, i, j) or None

    @property
    def passed(self):
        return self.violation is None

    def __repr__(self):
        if self.passed:
            return "ValidationReport(ok)"
        return "ValidationReport(violation at n=%d i=%d j=%d)" % self.violation


def cs_validate(x, n_max, idx_max):
    """Check the modulus law for all n <= n_max and M(n) <= i, j <= idx_max.

    The law for fixed n says every two terms past M(n) are within 1/n,
    which holds for all pairs iff it holds for the extremal pair.
    """
    for n in range(1, int(n_max) + 1):
        start = x.modulus(n)
        if start > int(idx_max):
            continue
        indices = range(start, int(idx_max) + 1)
        hi_i = max(indices, key=lambda i: (x.term(i), -i))
        lo_j = min(indices, key=lambda j: (x.term(j), j))
        # n*a_i < 1 + n*a_j  iff  a_i - a_j < 1/n
        if not (x.term(hi_i) - x.term(lo_j)) * Rational(n) < Rational(1):
            return ValidationReport((n, hi_i, lo_j))
    return ValidationReport()


def cs_lt(x, y, budget):
    """Three-valued order: LESS iff some n <= budget has
    n*a_{M(n)} + 2 < n*b_{N(n)}; GREATER symmetrically."""
    for n in range(1, int(budget) + 1):
        rn = Rational(n)
        left = rn * x.term(x.modulus(n)) + Rational(2)
        right = rn * y.term(y.modulus(n))
        if left < right:
            return Order.LESS
        if rn * y.term(y.modulus(n)) + Rational(2) < rn * x.term(x.modulus(n)):
            return Order.GREATER
    return Order.UNKNOWN


def cs_add(x, y):
    """Termwise sum; the modulus splits the allowance in half."""
    return CauchyReal(
        lambda i: x.term(i) + y.term(i),
        lambda n: max(x.modulus(2 * n), y.modulus(2 * n)),
        monotone=True,
    )


def cs_neg(x):
    return CauchyReal(lambda i: -x.term(i), x.modulus, monotone=True)


def cs_positive(x, budget):
    """Search for n with n*a_k > 1 for all k >= n.

    The unbounded universal part reduces to one finite check: if the
    anchor term at M(2n) clears 3/(2n), every later term stays above
    1/n because terms past M(2n) differ by less than 1/(2n).  The
    returned bound also dominates M(2n) so the claim holds from the
    bound onward.
    """
    for n in range(1, int(budget) + 1):
        anchor = x.term(x.modulus(2 * n))
        if anchor > Rational(3, 2 * n):
            return YES, max(n, x.modulus(2 * n))
    return NO, None


def cs_mul(x, y, budget=64):
    """Termwise product of two certified-positive sequences.

    The modulus needs a common bound n that witnesses positivity of
    both factors and dominates their early terms; the output modulus
    then splits the allowance across the factor magnitudes.
    """
    okx, nx = cs_positive(x, budget)
    oky, ny = cs_positive(y, budget)
    if okx is not YES or oky is not YES:
        raise NotCertifiedPositive("cs_mul needs both factors certified positive")
    bound = max(nx, ny)
    for candidate in (x.term(x.modulus(1)), y.term(y.modulus(1))):
        while not Rational(candidate) + Rational(1) < Rational(bound):
            bound += 1
    n = bound

    return CauchyReal(
        lambda i: x.term(i) * y.term(i),
        lambda m: max(x.modulus(2 * n * m), y.modulus(2 * n * m), x.modulus(1), y.modulus(1)),
        monotone=True,
    )


def cs_limit(family, outer_modulus):
    """Diagonal limit of a sequence of Cauchy reals that is itself Cauchy
    with the given modulus: s_n = b_n(n), with the combined modulus
    taking the slower of the outer rate and the M(3n)-th member's rate."""
    # bounded cache: the family must be deterministic, so recreating a
    # member is safe; unbounded memoization would pin every member seen
    # by deep modulus scans
    members = functools.lru_cache(maxsize=64)(lambda i: family(i))
    outer = functools.cache(lambda n: int(outer_modulus(n)))

    def term(i):
        return members(i).term(i)

    def modulus(n):
        stage = outer(3 * n)
        inner = members(stage).modulus(3 * n)
        return max(inner, stage)

    return CauchyReal(term, modulus)


def cs_to_real(x):
    """The interval-refinement view: at precision n the limit lies within
    1/n of the anchor term a_{M(n)}.

    Only the per-n law is needed here, so M is the stated modulus, not
    the nondecreasing `.modulus` view; `RefinedReal` memoizes each
    precision, and its intersection keeps the intervals nested.
    """
    def raw(n):
        anchor = x.term(max(int(x._raw_modulus(n)), 0))
        return anchor - Rational(1, n), anchor + Rational(1, n)

    return RefinedReal(raw)
