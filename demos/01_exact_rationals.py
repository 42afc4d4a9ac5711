"""Exact rational arithmetic: canonical forms, comparisons, decimals.

Run with: python3 demos/01_exact_rationals.py
"""

from streaks import Rational, parse_rational, rat_cmp, rat_decimal

# construction always reduces to lowest terms with a positive denominator
a = Rational(6, -8)
print("6/-8 canonicalizes to", a)

# arithmetic is exact, no rounding anywhere
b = parse_rational("0.1")
print("0.1 is stored as", b, "and 0.1 + 0.2 =", b + parse_rational("0.2"))

# the three-way comparison is a decidable total order
print("cmp(7/3, 9/4) =", rat_cmp(Rational(7, 3), Rational(9, 4)))
assert rat_cmp(Rational(7, 3), Rational(9, 4)) == 1

# decimal printing truncates toward zero and reports exactly what it did
print("1/3 to 5 places:", rat_decimal(Rational(1, 3), 5))
print("-7/4 to 2 places:", rat_decimal(Rational(-7, 4), 2))
