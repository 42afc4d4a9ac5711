"""Exact real arithmetic over axiomatized archimedean ordered structures.

The package is organized in layers:

- rational: exact rational numbers and decimal rendering
- core: the streak interface (rational cuts, order, arithmetic) and the
  randomized law suites
- reflections: completions of a streak into differences, fractions,
  dyadics and finite meet/join lifts
- real: interval-refinement reals with certified partial operations
- cauchy: rational Cauchy sequences with explicit moduli of convergence
- onesided: lower/upper reals as monotone bound streams
- registry: named streak instances for the command line and tests
- cli: the `streaks` command (`eval`, `check`)

The package exports the names README and the demos use, and the four
exceptions those calls raise; every other name is imported from its module.
"""

from types import ModuleType as _ModuleType

from .rational import DivisionByZero, Rational, parse_rational, rat_cmp, rat_decimal
from .core import (
    ApartnessUndecided,
    BudgetExceeded,
    Element,
    Order,
    Sampler,
    archimedean_witness,
    axiom_suite,
    dense_generate,
    interpolate,
    locate,
    strict_lt,
)
from .reflections import FiniteSubset, FormalDifference, arch_lt, arch_member, halved_lift, pos_part
from .cauchy import CauchyReal, cs_add, cs_limit, cs_lt, cs_to_real, cs_validate
from .real import (
    derive_apartness,
    real_abs,
    real_add,
    real_from_rational,
    real_mul_total,
    real_recip,
    real_sub,
    real_to_decimal,
)
from .onesided import (
    LowerReal,
    UpperReal,
    lower_add,
    lower_cmp_rat,
    lower_sup,
    pair_to_real,
    real_to_pair,
    upper_cmp_rat,
    upper_inf,
)
from .registry import UnknownStreak, get_streak

# the names imported above, without the submodules that importing them bound
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
