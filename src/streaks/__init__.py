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
"""

from types import ModuleType as _ModuleType

from .rational import (
    Cmp,
    DivisionByZero,
    Rational,
    parse_rational,
    rat_arith,
    rat_cmp,
    rat_decimal,
)
from .core import (
    NO,
    YES,
    BudgetExceeded,
    Element,
    Order,
    Sampler,
    SemiDecision,
    StreakHandle,
    archimedean_witness,
    axiom_suite,
    dense_generate,
    dense_substreak,
    elements_apart,
    interpolate,
    locate,
    morphism_check,
    nat_scale,
    rational_enumeration,
    rational_prefix,
    strict_lt,
)
from .reflections import (
    ApproxEq,
    Dyadic,
    EmptySet,
    FiniteSubset,
    FormalDifference,
    FormalFraction,
    NotApartFromZero,
    NotPositive,
    approx_eq,
    arch_lt,
    arch_member,
    field_lift,
    finset_join_lift,
    finset_meet_lift,
    halved_lift,
    pos_part,
    positive_representative,
    ring_lift,
)
from .cauchy import (
    CauchyReal,
    NotCertifiedPositive,
    ValidationReport,
    cs_add,
    cs_limit,
    cs_lt,
    cs_mul,
    cs_neg,
    cs_positive,
    cs_to_real,
    cs_validate,
)
from .real import (
    Apartness,
    ApartnessUndecided,
    Certificate,
    InvalidCertificate,
    RefinedReal,
    Sign,
    derive_apartness,
    real_abs,
    real_add,
    real_cmp_rat,
    real_dist,
    real_embed,
    real_from_rational,
    real_inf,
    real_mul_pos,
    real_mul_total,
    real_neg,
    real_recip,
    real_scale,
    real_sub,
    real_sup,
    real_to_decimal,
)
from .onesided import (
    BOTTOM,
    LowerReal,
    NotEventuallyPositive,
    NotLocatedWithinBudget,
    UpperReal,
    lower_add,
    lower_cmp_rat,
    lower_mul_pos,
    lower_sup,
    pair_to_real,
    real_to_pair,
    upper_add,
    upper_cmp_rat,
    upper_inf,
    upper_mul_pos,
)
from .registry import UnknownStreak, get_streak, registered_names

# the names imported above, without the submodules that importing them bound
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
