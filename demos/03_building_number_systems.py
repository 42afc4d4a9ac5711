"""Building number systems by reflection: N -> Z -> Q and friends.

Starting from the naturals, formal differences give a ring, formal
fractions give a field, finite subsets give semilattices, and a formal
halving operator gives dyadics.  The registry composes these by name.

Run with: python3 demos/03_building_number_systems.py
"""

from streaks import FiniteSubset, FormalDifference, get_streak
from streaks.rational import Rational
from streaks.reflections import Dyadic

# the integers as differences of naturals; a sum keeps the pair its
# operations build, here (6 - 5), which compares equal to (1 - 0)
ring = get_streak("ring:nat")
u = FormalDifference(2, 5)  # represents -3
v = ring.rho(4)             # embeds 4
print("(2 - 5) + 4 =", ring.describe(ring.add(u, v)))

# the rationals as fractions of those differences
field = get_streak("field:ring:nat")
print("field streak registered as:", field.name)

# dyadics: integers with a formal half, (mantissa, exponent)
dy = get_streak("dyadic")
three_halves = Dyadic(3, 1)
quarter = dy.half(dy.half(Dyadic(1, 0)))
print("3/2 + 1/4 =", dy.describe(dy.add(three_halves, quarter)))

# finite-subset lifts: a set stands for its minimum (meet) or maximum (join)
meet = get_streak("finmeet:rat")
A = FiniteSubset([Rational(1), Rational(4)])
B = FiniteSubset([Rational(2), Rational(3)])
both = meet.inf(A, B)
print("inf{1,4} ^ inf{2,3} =", meet.describe(both))
print("is 1/2 below it?", meet.below(Rational(1, 2), both, 0).name)
