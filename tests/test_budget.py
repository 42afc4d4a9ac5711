"""One budget rule for every public search: `core.read_budget` reads the
budget, so a float or a string raises TypeError and a negative budget
answers as 0 does; and a decided answer stays decided, and the same, as the
budget grows."""

import inspect

import pytest

from streaks import cauchy, cli, core, onesided, rational, real, reflections, registry
from streaks.cauchy import CauchyReal, cs_lt, cs_positive, cs_to_real
from streaks.core import (
    NO,
    BudgetExceeded,
    Element,
    Order,
    Sampler,
    archimedean_witness,
    axiom_suite,
    dense_generate,
    elements_apart,
    locate,
    morphism_check,
    read_budget,
    strict_lt,
)
from streaks.onesided import LowerReal, UpperReal, lower_cmp_rat, pair_to_real, upper_cmp_rat
from streaks.rational import Rational
from streaks.real import (
    Apartness,
    RefinedReal,
    derive_apartness,
    real_cmp_rat,
    real_embed,
    real_from_rational,
    real_to_decimal,
)
from streaks.reflections import approx_eq, arch_lt, arch_member, mul_total_nonneg
from streaks.registry import get_streak

MODULES = (core, reflections, real, cauchy, onesided, rational, registry, cli)
RAT = get_streak("rat")


def q(*args):
    return Rational(*args)


def rat(*args):
    return Element(RAT, Rational(*args))


def below_one():
    """1 - 2^-i, which no finite precision pins to a point."""
    return cs_to_real(CauchyReal(lambda i: 1 - q(1, 2**i), lambda n: n))


def rising_lower():
    return LowerReal(lambda k: q(1, 2) - q(1, k + 1))


def falling_upper():
    return UpperReal(lambda k: q(1, 2) + q(1, k + 1))


# one call per public callable with a `budget` parameter, keyed by module and
# qualified name; each builds fresh inputs, so no call sees another's history
RECIPES = {
    "core.read_budget": lambda b: read_budget(b),
    # a decidable probe answers without reading its budget
    "core.below": lambda b: core.below(rat(1, 3), q(0), b),
    "core.above": lambda b: core.above(rat(1, 3), q(1), b),
    "core.strict_lt": lambda b: strict_lt(rat(1, 3), rat(1, 2), b),
    "core.locate": lambda b: locate(rat(7, 3), 5, b),
    # gaps of 3/16 at n = 1 and 7/16 at n = 2, which a grid walk at budget 8
    # told apart only at n = 2; `cmp` answers n = 1 at every budget from 1
    "core.archimedean_witness": lambda b: archimedean_witness(
        rat(0), rat(0), rat(-1, 16), rat(1, 4), b),
    "core.dense_generate": lambda b: dense_generate(q(-1, 2), q(1, 4), q(1, 2), b),
    "core.Sampler.positive_element": lambda b: Sampler(1).positive_element(RAT, b),
    "core.elements_apart": lambda b: elements_apart(RAT, q(1, 3), q(1, 2), b),
    "core.axiom_suite": lambda b: axiom_suite(RAT, Sampler(1), 2, b),
    "core.morphism_check": lambda b: morphism_check(lambda x: x, RAT, RAT, Sampler(1), 2, b),
    "reflections.mul_total_nonneg": lambda b: mul_total_nonneg(RAT, q(0), q(1, 2), b),
    "reflections.arch_member": lambda b: arch_member(rat(3, 2), b),
    # 1 < 17/16 at n = 1, by 1/16, which a grid walk certified only from
    # budget 33; `cmp` answers n = 1 at every budget from 1
    "reflections.arch_lt": lambda b: arch_lt(rat(0), rat(17, 16), b),
    "reflections.approx_eq": lambda b: approx_eq(rat(1, 3), rat(1, 2), b),
    "real.real_cmp_rat": lambda b: real_cmp_rat(below_one(), q(3, 4), b),
    "real.derive_apartness": lambda b: derive_apartness(below_one(), b),
    "real.real_embed": lambda b: real_embed(rat(7, 3), b),
    "real.real_to_decimal": lambda b: real_to_decimal(below_one(), 2, b),
    "cauchy.cs_lt": lambda b: cs_lt(CauchyReal.constant(0), CauchyReal.constant(1), b),
    "cauchy.cs_positive": lambda b: cs_positive(CauchyReal.constant(q(1, 2)), b),
    "onesided.lower_cmp_rat": lambda b: lower_cmp_rat(q(1, 3), rising_lower(), b),
    "onesided.upper_cmp_rat": lambda b: upper_cmp_rat(falling_upper(), q(2, 3), b),
    "onesided.pair_to_real": lambda b: pair_to_real(rising_lower(), falling_upper(), b),
    "cli.EvalConfig": lambda b: cli.EvalConfig(4, b),
}


def _members(module):
    """(qualified name, function) for each public function of the module,
    each public method of its public classes, and each such class whose
    constructor is its own."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if attr == "__init__":
                    yield name, fn
                elif not attr.startswith("_") and inspect.isfunction(fn):
                    yield "%s.%s" % (name, attr), fn


def budgeted_callables():
    return {
        "%s.%s" % (module.__name__.rsplit(".", 1)[1], name)
        for module in MODULES
        for name, fn in _members(module)
        if "budget" in inspect.signature(fn).parameters
    }


def _plain(answer):
    """An answer as a value that compares by what it says."""
    if isinstance(answer, Element):
        return _plain(answer.value)
    if isinstance(answer, RefinedReal):
        return answer.refine(8)
    if isinstance(answer, Apartness):
        return answer.bound, answer.precision
    if isinstance(answer, core.SuiteReport):
        return answer.summary()
    return answer


def outcome(name, budget):
    """("value", the plain answer) or ("raises", the exception type)."""
    try:
        return "value", _plain(RECIPES[name](budget))
    except Exception as exc:  # the type is the outcome
        return "raises", type(exc)


def test_recipes_cover_every_budgeted_callable():
    assert budgeted_callables() == set(RECIPES)


@pytest.mark.parametrize("name", sorted(RECIPES))
@pytest.mark.parametrize("budget", [2.5, "2"], ids=["float", "str"])
def test_non_int_budget_raises_type_error(name, budget):
    with pytest.raises(TypeError):
        _plain(RECIPES[name](budget))


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_negative_budget_answers_as_zero(name):
    assert outcome(name, -1) == outcome(name, 0)


def test_read_budget():
    assert [read_budget(b) for b in (-5, -1, 0, 1, 7, True)] == [0, 0, 0, 1, 7, 1]
    assert read_budget(2**80) == 2**80


def test_real_embed_reads_its_budget_when_built():
    with pytest.raises(TypeError):
        real_embed(rat(1, 3), 2.5)


UNDECIDED = (Order.UNKNOWN, None, NO)


def decided(result):
    kind, answer = result
    if kind == "raises":
        return not issubclass(answer, BudgetExceeded)
    return answer not in UNDECIDED


SEARCHES = [
    "core.strict_lt", "core.locate", "core.archimedean_witness", "core.dense_generate",
    "reflections.arch_member", "reflections.arch_lt", "real.real_cmp_rat",
    "real.derive_apartness", "cauchy.cs_lt", "cauchy.cs_positive",
    "onesided.lower_cmp_rat", "onesided.upper_cmp_rat", "onesided.pair_to_real",
    "real.real_embed",
]


@pytest.mark.parametrize("name", SEARCHES)
def test_a_decided_answer_never_flips(name):
    answers = {b: outcome(name, b) for b in (0, 1, 2, 5, 8, 16, 33)}
    starts = [b for b in (0, 1, 8) if decided(answers[b])]
    assert starts, answers  # some start decides, so the check is not vacuous
    for b in starts:
        assert answers[2 * b] == answers[b], (b, answers)
        assert answers[4 * b + 1] == answers[b], (b, answers)


REAL = get_streak("real")


def real(x):
    return Element(REAL, real_from_rational(q(x)))


def approaching(x):
    """x - 2^-i: a real just below x that no finite precision pins down."""
    return Element(REAL, cs_to_real(CauchyReal(lambda i: x - q(1, 2**i), lambda n: n)))


# witness searches on `real`, whose answers at n = 1 need more budget than at
# n = 2; each call builds fresh inputs, since a real keeps what probes refined
STAGED = {
    # c + n/4 > 0 with gaps 3/16 - 2^-i at n = 1 and 7/16 - 2^-i at n = 2
    "core.archimedean_witness": lambda b: archimedean_witness(
        real(0), real(0), approaching(q(-1, 16)), real(q(1, 4)), b),
    # n*y > 1 with gaps 1/16 - 2^-i at n = 1 and 9/8 - 2^-i at n = 2
    "reflections.arch_lt": lambda b: arch_lt(real(0), approaching(q(17, 16)), b),
}


@pytest.mark.parametrize("name", sorted(STAGED))
def test_a_found_witness_stays_the_same_on_reals(name):
    # the searches asked every n at the whole budget, so these answered 2 at
    # budgets 2-4 and 1 from budget 5; stage s now asks each n <= s at budget s
    answers = {b: STAGED[name](b) for b in range(2, 129)}
    assert set(answers.values()) == {2}, answers
