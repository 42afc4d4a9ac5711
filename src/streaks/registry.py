"""Streak registry: resolve names like `rat`, `ring:nat`, `finmeet:rat`.

The module resolves names; `core` builds the decidable number handles
and this module adds what sets `nat`, `int`, `rat` and `dyadic` apart.
Composite names apply a reflection to the named base, recursively:
`field:ring:nat` is the field of fractions of the ring of differences
over the naturals.  Values of `nat` and `int` are plain ints.  A lift
is a function of its base alone, so `ring:nat` is `ring_lift` applied
to `nat`.  Tower values keep the representative their operations
build and are compared by order: a lift over a decidable base has a
`cmp`, and its `eq` is `cmp(u, v) == 0`, whatever the representatives.
"""

from __future__ import annotations

import dataclasses
import operator

from .core import _decidable_handle, sample_rational
from .onesided import lower_streak_handle, upper_streak_handle
from .rational import Rational
from .real import real_streak_handle
from .reflections import (
    Dyadic,
    field_lift,
    finset_join_lift,
    finset_meet_lift,
    halved_lift,
    ring_lift,
)


class UnknownStreak(Exception):
    pass


def _natural_handle():
    # the product is total on the naturals, but with no negation they
    # form no ring: `field:nat` does not resolve
    return _decidable_handle(
        "nat",
        zero=0,
        one=1,
        sample=lambda rng: rng.randint(0, 15),
        mul_total=operator.mul,
    )


def _integer_handle():
    # the integers form a ring streak: total multiplication and negation
    # (subtraction is derived from them)
    return _decidable_handle(
        "int",
        zero=0,
        one=1,
        sample=lambda rng: rng.randint(-15, 15),
        mul_total=operator.mul,
        neg=operator.neg,
    )


def _rat_midpoint(q, r):
    return (q + r) / Rational(2)


def _rational_handle():
    return _decidable_handle(
        "rat",
        zero=Rational(0),
        one=Rational(1),
        sample=sample_rational,
        interpolate=_rat_midpoint,
        mul_total=operator.mul,
        neg=operator.neg,
    )


def _dyadic_handle():
    def interpolate(q, r):
        e = 0
        step = Rational(1)
        while not step < r - q:
            e += 1
            step = step / Rational(2)
        j = q.num * 2**e // q.den + 1  # floor(q * 2^e) + 1
        return Dyadic(j, e)

    return dataclasses.replace(
        halved_lift(_integer_handle()),
        name="dyadic",
        interpolate=interpolate,
    )


# in registered_names order; the lambdas look a constructor up when
# called, not when this table is built, so a wrapped one is what runs
_BASES = {
    "dyadic": _dyadic_handle,
    "int": _integer_handle,
    "nat": _natural_handle,
    "rat": _rational_handle,
    "real": lambda: real_streak_handle(),
    "lower": lambda: lower_streak_handle(),
    "upper": lambda: upper_streak_handle(),
}

# prefix -> lift applied to the resolved base
_LIFTS = {
    "finmeet": lambda base: finset_meet_lift(base),
    "finjoin": lambda base: finset_join_lift(base),
    "ring": lambda base: ring_lift(base),
    "field": lambda base: field_lift(base),
}

_cache = {}


def get_streak(name):
    """Resolve a registry name to a StreakHandle (cached per name)."""
    if name in _cache:
        return _cache[name]
    handle = _build(name)
    _cache[name] = handle
    return handle


def _build(name):
    if name in _BASES:
        return _BASES[name]()
    prefix, colon, rest = name.partition(":")
    if not colon or not rest or prefix not in _LIFTS:
        raise UnknownStreak(name)
    base = get_streak(rest)
    try:
        return _LIFTS[prefix](base)
    except ValueError as exc:
        # the lift does not apply to this base, e.g. field:nat
        raise UnknownStreak("%s: %s" % (name, exc)) from exc


def registered_names():
    """Concrete names plus the composable prefixes (e.g. `ring:nat`)."""
    return list(_BASES) + ["%s:<base>" % p for p in _LIFTS]
