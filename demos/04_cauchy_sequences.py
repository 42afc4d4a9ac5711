"""Cauchy sequences that carry their own rate of convergence.

A CauchyReal pairs a rational sequence with a modulus M: past index
M(n), any two terms are within 1/n of each other.  Because the rate is
explicit, validity is checkable on finite prefixes and every operation
can state the modulus of its result.

Run with: python3 demos/04_cauchy_sequences.py
"""

from streaks import CauchyReal, cs_add, cs_limit, cs_lt, cs_to_real, cs_validate
from streaks.rational import Rational

# 1/(i+1) -> 0 with the identity modulus
harmonic = CauchyReal(lambda i: Rational(1, i + 1), lambda n: n)
print("modulus law holds on prefix:", cs_validate(harmonic, 16, 64) is None)

# a modulus that promises too much is caught: the first violating (n, i, j)
hasty = CauchyReal(lambda i: Rational(1, i + 1), lambda n: 0)
print("overconfident modulus:", cs_validate(hasty, 8, 64))

# order is semidecidable: separated limits get decided, equal ones never
above_one = CauchyReal(lambda i: Rational(1) + Rational(1, i + 1), lambda n: n)
print("1 + 1/(i+1) vs 3/2:", cs_lt(above_one, CauchyReal.constant(Rational(3, 2)), 64).name)

# sums carry the combined modulus automatically
doubled = cs_add(harmonic, harmonic)
print("doubled first term:", doubled.term(0), "- still valid:", cs_validate(doubled, 16, 64) is None)

# limits of sequences of Cauchy reals, by diagonalization
family = lambda k: CauchyReal.constant(Rational(1) - Rational(1, k + 1))
limit = cs_limit(family, lambda n: n)
print("limit vs 9/10:", cs_lt(limit, CauchyReal.constant(Rational(9, 10)), 64).name)

# and every Cauchy real converts to a nested-interval oracle
print("harmonic at precision 10:", cs_to_real(harmonic).refine(10))
