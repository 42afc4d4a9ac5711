"""Tests for the package surface: star-import, the exports against README
and the demos, registry names, the capability fields of streak handles and
the import order of the layers."""

import ast
import dataclasses
import enum
import importlib
import inspect
import pathlib
import random
import re
import types

import pytest

import streaks
from streaks.cauchy import cs_mul
from streaks.core import (
    CAPABILITIES,
    Sampler,
    StreakHandle,
    dense_substreak,
    locate,
    strict_lt,
)
from streaks.onesided import lower_mul_pos, upper_mul_pos
from streaks.rational import Rational
from streaks.reflections import pos_part
from streaks.registry import get_streak, registered_names

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _star_import():
    namespace = {}
    exec("from streaks import *", namespace)
    del namespace["__builtins__"]
    return namespace


def test_star_import_binds_no_module():
    bound = _star_import()
    modules = [name for name, value in bound.items() if isinstance(value, types.ModuleType)]
    assert modules == []


def _demo_imports():
    """The names the demos import from the package itself."""
    wanted = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "streaks":
                wanted.update(alias.name for alias in node.names)
    return wanted


def test_star_import_binds_every_name_the_demos_import():
    wanted = _demo_imports()
    assert wanted  # the demos do import from the package
    assert wanted <= set(_star_import())


def _readme_code_words():
    """The identifiers of README's code blocks and backticked spans."""
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return set(re.findall(r"\w+", " ".join(spans)))


def test_every_export_is_in_readme_or_a_demo():
    documented = _readme_code_words() | _demo_imports()
    assert sorted(set(streaks.__all__) - documented) == []


def _readme_names():
    text = (ROOT / "README.md").read_text()
    sentence = re.search(r"Registered structure names:(.*?)\n\n", text, re.S).group(1)
    return re.findall(r"`([^`]+)`", sentence)


def test_readme_names_resolve():
    names = _readme_names()
    prefixes = [n for n in names if n.endswith(":")]
    concrete = [n for n in names if ":" not in n]
    for name in concrete + [p + "rat" for p in prefixes]:
        get_streak(name)  # raises UnknownStreak for a name the registry lacks
    listed = concrete + [p + "<base>" for p in prefixes]
    assert sorted(listed) == sorted(registered_names())


# capabilities each handle carries; every other capability field is None
EXPECTED_CAPABILITIES = {
    "nat": {"mul_total"},
    "int": {"mul_total", "neg", "sub"},
    "rat": {"mul_total", "neg", "sub", "interpolate"},
    "dyadic": {"mul_total", "neg", "sub", "half", "interpolate"},
    "real": {"mul_total", "neg", "sub"},
    "lower": set(),
    "upper": set(),
    "finmeet:rat": {"inf"},
    "finjoin:rat": {"sup"},
    "ring:nat": {"mul_total", "neg", "sub", "rho"},
    "field:ring:nat": {"mul_total", "neg", "sub", "make", "recip"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CAPABILITIES))
def test_registered_handle_capabilities(name):
    handle = get_streak(name)
    present = {c for c in CAPABILITIES if getattr(handle, c) is not None}
    assert present == EXPECTED_CAPABILITIES[name]


def test_bare_handle_has_every_capability_field_unset():
    handle = StreakHandle(
        name="bare", below=None, above=None, add=None, zero=0, mul_pos=None, one=1
    )
    assert all(getattr(handle, c) is None for c in CAPABILITIES)
    assert handle.describe(Rational(1, 2)) == "Rational(1, 2)"


def test_derived_handles_drop_what_the_subset_lacks():
    pos = pos_part(get_streak("rat"))
    present = {c for c in CAPABILITIES if getattr(pos, c) is not None}
    assert present == {"make", "mul_total"}
    dense = dense_substreak(Rational(-1, 2))
    present = {c for c in CAPABILITIES if getattr(dense, c) is not None}
    assert present == {"interpolate"}
    assert dense.sample is None


def test_integer_towers_carry_plain_ints():
    rng = random.Random(0)
    for name in ("nat", "int"):
        handle = get_streak(name)
        for value in (handle.zero, handle.one, handle.sample(rng)):
            assert type(value) is int
    dy = get_streak("dyadic")
    total = dy.add(dy.sample(rng), dy.sample(rng))
    assert type(total.mantissa) is int
    ring = get_streak("ring:nat")
    total = ring.add(ring.sample(rng), ring.sample(rng))
    assert type(total.pos) is int and type(total.neg) is int


def test_sub_is_add_of_neg():
    assert get_streak("int").sub(2, 5) == -3
    ring = get_streak("ring:nat")
    u = ring.sample(random.Random(0))
    assert ring.cmp(ring.sub(u, u), ring.zero) == 0


def test_scale_is_kept_by_copies_and_set_on_numbers_and_ring_lifts():
    rat = get_streak("rat")
    assert rat.restricted("copy").scale is rat.scale
    assert dataclasses.replace(rat, name="copy").scale is rat.scale
    assert dense_substreak(Rational(-1, 2)).scale is not None
    # a ring lift scales each part; tests/test_core.py::TestNFoldSum checks
    # the closed form against the repeated sum
    for name in ("ring:nat", "ring:rat"):
        assert get_streak(name).scale is not None, name
    for name in ("field:rat", "dyadic", "real"):
        assert get_streak(name).scale is None, name


# each module imports only modules listed before it
LAYERS = ("rational", "core", "reflections", "real", "cauchy", "onesided", "registry", "cli")


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_earlier_layers(module):
    tree = ast.parse((ROOT / "src" / "streaks" / (module + ".py")).read_text())
    for node in ast.walk(tree):  # function-local imports included
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            for target in targets:
                assert LAYERS.index(target) < LAYERS.index(module), (
                    "%s.py:%d imports %s" % (module, node.lineno, target)
                )


def test_every_library_exception_is_exported():
    """The package exports every exception its layers define; the command
    line's own errors stay in `streaks.cli`."""
    defined = set()
    for module in LAYERS[:-1]:
        namespace = vars(importlib.import_module("streaks." + module))
        defined.update(
            name for name, value in namespace.items()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == "streaks." + module
        )
    assert defined and sorted(defined - set(streaks.__all__)) == []


def test_answer_types_are_order_and_semidecision():
    """A probe answers SemiDecision, a derived comparison Order; every
    other search answers a plain value, its witness or None."""
    defined = set()
    for module in LAYERS:
        namespace = vars(importlib.import_module("streaks." + module))
        defined.update(
            name for name, value in namespace.items()
            if isinstance(value, type) and issubclass(value, enum.Enum)
            and value.__module__ == "streaks." + module
        )
    assert defined == {"Order", "SemiDecision"}


def test_apartness_undecided_is_a_budget_failure():
    assert issubclass(streaks.ApartnessUndecided, streaks.BudgetExceeded)


def _handles():
    prefixes = [n[: -len("<base>")] for n in registered_names() if n.endswith(":<base>")]
    names = [n for n in registered_names() if ":" not in n]
    names += [p + "rat" for p in prefixes] + ["ring:real", "field:ring:real"]
    handles = [get_streak(name) for name in names]
    return handles + [
        pos_part(get_streak("rat")),
        pos_part(get_streak("real")),
        dense_substreak(Rational(-1, 2)),
    ]


def test_decidability_is_having_cmp():
    handles = _handles()
    assert {h.decidable for h in handles} == {True, False}
    for handle in handles:
        assert handle.decidable == (handle.cmp is not None), handle.name
        assert (handle.eq is not None) == handle.decidable, handle.name


def test_decidable_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        StreakHandle(
            name="h", below=None, above=None, add=None, zero=0, mul_pos=None, one=1,
            decidable=True,
        )


def test_eq_defaults_to_cmp():
    handle = StreakHandle(
        name="h", below=None, above=None, add=None, zero=0, mul_pos=None, one=1,
        cmp=lambda u, v: (u > v) - (u < v),
    )
    assert handle.decidable
    assert handle.eq(2, 2) and not handle.eq(2, 3)


@pytest.mark.parametrize(
    "fn, params",
    [
        (cs_mul, ["x", "y"]),
        (lower_mul_pos, ["x", "y"]),
        (upper_mul_pos, ["x", "y"]),
        (Sampler, ["seed"]),
        (Sampler.positive_element, ["self", "streak", "budget"]),
        (locate, ["x", "k", "budget"]),
        (strict_lt, ["x", "y", "budget"]),
    ],
)
def test_fixed_search_limits_are_not_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params
