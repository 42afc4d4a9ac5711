"""Interval-refinement reals: ask for precision n, get a rational
interval of width at most 2/n, guaranteed to nest.

Partial operations are honest about their preconditions: reciprocal
needs an explicit certificate that the operand is apart from zero.

Run with: python3 demos/05_interval_reals.py
"""

from streaks import (
    CauchyReal,
    cs_to_real,
    derive_apartness,
    real_abs,
    real_from_rational,
    real_mul_total,
    real_recip,
    real_sub,
    real_to_decimal,
)
from streaks.rational import Rational

# rationals embed as degenerate intervals
half = real_from_rational(Rational(1, 2))
print("1/2 at precision 100:", half.refine(100))

# total multiplication covers every sign case with the four endpoint products
product = real_mul_total(real_from_rational(Rational(-2)), real_from_rational(Rational(3)))
print("-2 * 3 =", product.refine(4))

# a genuinely converging value keeps shrinking
x = cs_to_real(CauchyReal(lambda i: Rational(1) + Rational(1, i + 1), lambda n: n))
for n in (1, 10, 100):
    print("precision %3d:" % n, x.refine(n))

# reciprocal demands evidence of apartness from zero
cert = derive_apartness(x, budget=64)
print("certificate:", cert)
print("1/x at precision 50:", real_recip(x, cert).refine(50))

# |x - x| hugs zero within the width bound
band = real_abs(real_sub(x, x))
print("|x - x| at precision 20:", band.refine(20))

# decimal output comes with a machine-checkable interval certificate
text, certificate = real_to_decimal(x, digits=6, budget=1 << 22)
print("x =", text)
print(certificate.line())
