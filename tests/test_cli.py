"""Tests for the command-line front end."""

import os
import pathlib
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streaks import cli, real
from streaks.cli import (
    CONSTANTS,
    FAMILIES,
    EvalConfig,
    ExprSyntaxError,
    UnknownConstant,
    _to_real,
    check_streaks,
    eval_expr,
    format_expr,
    main,
    parse_expr,
)
from streaks.cauchy import cs_limit, cs_to_real
from streaks.rational import DivisionByZero, Rational
from streaks.real import (
    ApartnessUndecided,
    derive_apartness,
    real_abs,
    real_add,
    real_from_rational,
    real_inf,
    real_mul_total,
    real_neg,
    real_recip,
    real_sub,
    real_sup,
    real_to_decimal,
)


def q(*args):
    return Rational(*args)


ROOT = pathlib.Path(__file__).resolve().parent.parent

# leaves of the tuple form parse_expr returns
A, B, C = ("const", "a"), ("const", "b"), ("const", "c")
GEOM2, LIM_GEOM = ("const", "geom2"), ("lim", "geom")


def certificate_interval(line):
    """The (lo, hi) of a certificate line as Fractions; Decimal reads
    integers past the interpreter's int-to-str limit."""
    fields = dict(part.split("=") for part in line.split()[1:])
    return tuple(
        Fraction(*(int(Decimal(t)) for t in fields[end].split("/"))) for end in ("lo", "hi")
    )


# the exact value of each golden-bytes row
EXACT = {
    "(0-20000000)*2": Fraction(-40000000),
    "lim(geom)": Fraction(2),
    "geom2*geom2 - lim(geom)": Fraction(2),
    "(1)/3": Fraction(1, 3),
    "(7)/(0-2)": Fraction(-7, 2),
    "geom2/(1/3)": Fraction(6),
    "recip(geom2)": Fraction(1, 2),
    "min(geom2, 3/2)": Fraction(3, 2),
}


class TestParsing:
    def test_grammar_instance(self):
        ast = parse_expr("1/3 + 2*abs(-5/2)")
        expected = (
            "add",
            ("lit", q(1, 3)),
            ("mul", ("lit", q(2)), ("abs", ("lit", q(-5, 2)))),
        )
        assert ast == expected

    def test_precedence(self):
        assert parse_expr("1 + 2 * 3") == (
            "add", ("lit", q(1)), ("mul", ("lit", q(2)), ("lit", q(3)))
        )
        assert parse_expr("(1 + 2) * 3") == (
            "mul", ("add", ("lit", q(1)), ("lit", q(2))), ("lit", q(3))
        )

    def test_exact_decimal_literal(self):
        assert parse_expr("0.25") == ("lit", q(1, 4))

    def test_rational_literal_is_atomic(self):
        # 1/3 is one literal, not a division node
        assert parse_expr("1/3") == ("lit", q(1, 3))
        # but division of non-literals stays a division
        assert parse_expr("(1)/3") == ("div", ("lit", q(1)), ("lit", q(3)))

    def test_lim_reference(self):
        assert parse_expr("lim(geom)") == ("lim", "geom")

    def test_unbalanced_input_reports_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("min(1,2")
        assert info.value.position == 7

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1 + 2 )")

    def test_round_trip(self):
        texts = [
            "1/3 + 2*abs(-5/2)",
            "min(1, max(2, 3/4)) - recip(7)",
            "-(1/2) * (3 - 0.25)",
            "lim(geom) + 1",
        ]
        for text in texts:
            ast = parse_expr(text)
            assert parse_expr(format_expr(ast)) == ast

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_chains_format(self, op):
        # the tree of a 2,000-operand chain is deeper than the recursion
        # limit, so the printer must not recurse per level, and a flat
        # chain prints flat, within the parser's nesting limit
        for count in (130, 2000):
            ast = parse_expr((" %s " % op).join(["1"] * count))
            assert _same_tree(parse_expr(format_expr(ast)), ast)

    @pytest.mark.parametrize(
        "ast, text",
        [
            (("sub", A, ("sub", B, C)), "a - (b - c)"),
            (("sub", ("sub", A, B), C), "a - b - c"),
            (("mul", A, ("add", B, C)), "a * (b + c)"),
            # n / m would read back as one rational literal
            (("div", ("lit", q(1)), ("lit", q(2))), "1 / (2)"),
            (("div", ("mul", A, ("lit", q(2))), ("lit", q(3))), "a * 2 / (3)"),
            (("div", GEOM2, ("lit", q(3))), "geom2 / 3"),
            (("add", ("lit", q(1, 2)), ("neg", ("lit", q(1)))), "1/2 + -(1)"),
            (("neg", ("neg", GEOM2)), "--geom2"),
            (("neg", ("add", A, B)), "-(a + b)"),
        ],
    )
    def test_format_brackets_only_where_needed(self, ast, text):
        assert format_expr(ast) == text
        assert parse_expr(text) == ast

    def test_deepest_negation_round_trips(self):
        # 256 minus signs are the parser's limit, and the text of their
        # tree nests no deeper
        text = "-" * 256 + "geom2"
        assert format_expr(parse_expr(text)) == text

    def test_negated_number_is_one_literal(self):
        assert parse_expr("-1/2") == ("lit", q(-1, 2))
        assert parse_expr("-0.25") == ("lit", q(-1, 4))
        assert parse_expr("--3") == ("neg", ("lit", q(-3)))
        assert parse_expr("-(1/2)") == ("neg", ("lit", q(1, 2)))
        assert parse_expr("-2*3") == ("mul", ("lit", q(-2)), ("lit", q(3)))
        assert format_expr(("lit", q(-1, 2))) == "(-1/2)"
        assert parse_expr(format_expr(("lit", q(-1, 2)))) == ("lit", q(-1, 2))

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("1.", "malformed decimal literal", 0),
            ("1 $ 2", "unexpected character '$'", 2),
            ("foo(1)", "unknown function 'foo'", 0),
            ("1 + )", "expected an expression", 4),
            ("lim(3)", "expected 'name'", 4),
            ("1 2", "unexpected trailing input", 2),
            ("abs(1, 2)", "expected ')'", 5),
            ("min(1)", "expected ','", 5),
            # a superscript digit is neither a decimal digit nor a letter
            ("²5", "unexpected character '²'", 0),
        ],
    )
    def test_every_parse_error(self, text, message, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert str(info.value) == "%s (at offset %d)" % (message, offset)
        assert info.value.position == offset

    def test_unicode_letters_and_digits(self):
        # a name goes on with any letter or digit; a number is decimal digits
        assert parse_expr("x²") == ("const", "x²")
        assert parse_expr("٣/٤") == ("lit", q(3, 4))

    @given(ast=st.deferred(lambda: expressions))
    @settings(max_examples=150, deadline=None)
    def test_generated_trees_round_trip(self, ast):
        assert parse_expr(format_expr(ast)) == ast

    def test_readme_names_every_function_and_constant(self):
        text = (ROOT / "README.md").read_text()
        listed = re.search(r"# functions: (.*); constants: (.*)\n", text).groups()
        functions, constants = (part.split(", ") for part in listed)
        assert sorted(functions) == sorted([*cli.FUNCTIONS, "lim(name)"])
        assert sorted(constants) == sorted(CONSTANTS)


def _same_tree(a, b):
    """a == b for trees deeper than the recursion limit: one pair of nodes
    at a time, the entries that are nodes pushed and the rest compared."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if type(x) is not type(y):
                return False
            if isinstance(x, tuple):
                pairs.append((x, y))
            elif x != y:
                return False
    return True


signed_rationals = st.builds(Rational, st.integers(-30, 30), st.integers(1, 12))
literals = st.tuples(st.just("lit"), signed_rationals)
UNARY_OPS = ("neg", "abs", "recip")
BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")


def _trees(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(UNARY_OPS), sub),
            st.tuples(st.sampled_from(BINARY_OPS), sub, sub),
        ),
        max_leaves=max_leaves,
    )


# any tree the grammar can print: negative literals, unknown names too
expressions = _trees(
    st.one_of(
        literals,
        st.tuples(st.just("const"), st.sampled_from(["geom2", "tau", "abs", "lim"])),
        st.tuples(st.just("lim"), st.sampled_from(["geom", "tau"])),
    ),
    12,
)
rational_trees = _trees(literals, 6)
real_trees = _trees(st.one_of(literals, st.just(GEOM2), st.just(LIM_GEOM)), 6)


def _tree_real(e, cfg):
    """The unshared builder: one node per occurrence, the reference the
    shared build is checked against."""
    op = e[0]
    if op == "lit":
        return real_from_rational(e[1])
    if op == "const":
        return CONSTANTS[e[1]]()
    if op == "lim":
        family, outer = FAMILIES[e[1]]
        return cs_to_real(cs_limit(family, outer))
    if len(e) == 2:
        inner = _tree_real(e[1], cfg)
        if op == "neg":
            return real_neg(inner)
        if op == "abs":
            return real_abs(inner)
        return real_recip(inner, derive_apartness(inner, cfg.budget))
    left = _tree_real(e[1], cfg)
    right = _tree_real(e[2], cfg)
    if op == "add":
        return real_add(left, right)
    if op == "sub":
        return real_sub(left, right)
    if op == "mul":
        return real_mul_total(left, right)
    if op == "div":
        return real_mul_total(left, real_recip(right, derive_apartness(right, cfg.budget)))
    if op == "min":
        return real_inf(left, right)
    return real_sup(left, right)


def _exact(e):
    """The value of a tree of literals, geom2 and lim(geom) (both 2)."""
    op = e[0]
    if op == "lit":
        return Fraction(e[1].num, e[1].den)
    if op in ("const", "lim"):
        return Fraction(2)
    if len(e) == 2:
        inner = _exact(e[1])
        if op == "recip":
            return 1 / inner
        return -inner if op == "neg" else abs(inner)
    left, right = _exact(e[1]), _exact(e[2])
    if op == "div":
        return left / right
    return {
        "add": left + right, "sub": left - right, "mul": left * right,
        "min": min(left, right), "max": max(left, right),
    }[op]


def _printed(build, e, cfg):
    """The decimal and certificate line of e built by build."""
    text, cert = real_to_decimal(build(e, cfg), cfg.digits, cfg.budget)
    return text, cert.line()


class TestSharing:
    def test_repeated_constant_is_one_real(self, monkeypatch):
        built = []
        make = CONSTANTS["geom2"]
        monkeypatch.setitem(CONSTANTS, "geom2", lambda: built.append(1) or make())
        text, _ = eval_expr(parse_expr("geom2*geom2*geom2"), EvalConfig(6))
        assert len(built) == 1
        assert text in ("8.000000", "7.999999")

    def test_equal_subtrees_share_a_node(self):
        # 0.5 and 1/2 are one literal, and a/b shares its reciprocal with recip(b)
        nodes = {}
        expr = parse_expr("min(0.5, 1/2) + geom2/lim(geom) + recip(lim(geom))")
        cli._shared(expr, EvalConfig(4), nodes)
        assert sorted(key[0] for key in nodes) == sorted(
            ["lit", "min", "const", "lim", "recip", "div", "add", "add"]
        )

    def test_a_quotient_in_a_chain_is_the_one_outside(self):
        nodes = {}
        cli._shared(parse_expr("geom2/3*2 + geom2/3"), EvalConfig(4), nodes)
        assert sorted(key[0] for key in nodes) == ["add", "const", "div", "lit", "lit", "mul", "recip"]

    def test_eight_factor_product_makes_at_most_14_raw_refines(self, monkeypatch):
        # balanced, the eight factors are the three nodes x^2, x^4 and x^8
        raws = []
        init = real.RefinedReal.__init__

        def counting_init(self, raw):
            init(self, lambda n: raws.append(n) or raw(n))

        monkeypatch.setattr(real.RefinedReal, "__init__", counting_init)
        text, _ = eval_expr(parse_expr("*".join(["geom2"] * 8)), EvalConfig(12))
        assert text in ("256.000000000000", "255.999999999999")
        assert len(raws) <= 14

    @given(e=real_trees, digits=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_shared_and_tree_builds_agree(self, e, digits):
        cfg = EvalConfig(digits)
        try:
            value = _exact(e)
        except ZeroDivisionError:  # some divisor is exactly zero
            # the point 0 divides by zero; a zero with width is undecided
            for build in (_to_real, _tree_real):
                with pytest.raises((ApartnessUndecided, DivisionByZero)):
                    build(e, cfg)
            return
        for build in (_to_real, _tree_real):
            lo, hi = certificate_interval(_printed(build, e, cfg)[1])
            assert lo <= value <= hi
            assert hi - lo <= Fraction(1, 10**digits)

    @given(e=rational_trees, digits=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_rational_trees_print_the_same_bytes(self, e, digits):
        cfg = EvalConfig(digits)
        try:
            _exact(e)
        except ZeroDivisionError:
            return
        assert _printed(_to_real, e, cfg) == _printed(_tree_real, e, cfg)


def _grouped(terms, split):
    """The tree of the chain terms[0] op1 terms[1] op2 ..., terms a list of
    (op, tree) with terms[0][0] None, grouped as split(k) says: the first
    split(k) terms of k go left, the rest right, each side grouped again.
    A right side starting with - or / is subtracted or divided by whole, so
    its own ops flip: a - b + c grouped right is a - (b - c)."""
    if len(terms) == 1:
        return terms[0][1]
    m = split(len(terms))
    op, head = terms[m]
    inverse = {"add": "sub", "sub": "add", "mul": "div", "div": "mul"}
    flip = op in ("sub", "div")
    right = [(None, head)] + [(inverse[o] if flip else o, t) for o, t in terms[m + 1:]]
    return (op, _grouped(terms[:m], split), _grouped(right, split))


GROUPINGS = {
    "left": lambda k: k - 1,
    "right": lambda k: 1,
    "balanced": lambda k: (k + 1) // 2,
}


def _chains(ops, leaves):
    """A first term and 1-11 (op, term) pairs, terms from leaves."""
    terms = st.one_of(
        leaves,
        st.just(GEOM2),
        st.just(LIM_GEOM),
        st.just(("mul", GEOM2, GEOM2)),
    )
    return st.tuples(terms, st.lists(st.tuples(st.sampled_from(ops), terms), min_size=1, max_size=11))


sum_chains = _chains(["add", "sub"], literals)
# grouped to the right, any factor may become a divisor: every term is nonzero
nonzero_rationals = st.builds(Rational, st.integers(1, 30) | st.integers(-30, -1), st.integers(1, 12))
product_chains = _chains(["mul", "div"], st.tuples(st.just("lit"), nonzero_rationals))


class TestAssociation:
    """Chains of + and -, or of * and /, are built as balanced trees
    whichever way the input groups them."""

    def _check_groupings(self, chain, digits):
        first, rest = chain
        terms = [(None, first)] + rest
        cfg = EvalConfig(digits)
        value = _exact(_grouped(terms, GROUPINGS["left"]))
        printed = set()
        for split in GROUPINGS.values():
            e = _grouped(terms, split)
            assert _exact(e) == value
            text, line = _printed(_to_real, e, cfg)
            printed.add((text, line))
            lo, hi = certificate_interval(line)
            assert lo <= value <= hi
            assert hi - lo <= Fraction(1, 10**digits)
        if all(t[0] == "lit" for _, t in terms):
            assert len(printed) == 1

    @given(chain=sum_chains, digits=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sums_contain_the_value_however_grouped(self, chain, digits):
        self._check_groupings(chain, digits)

    @given(chain=product_chains, digits=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_products_contain_the_value_however_grouped(self, chain, digits):
        self._check_groupings(chain, digits)

    def test_grouping_helper_keeps_the_value(self):
        terms = [(op, ("lit", q(n))) for op, n in [(None, 1), ("sub", 2), ("add", 4), ("sub", 8)]]
        assert _grouped(terms, GROUPINGS["right"]) == parse_expr("1 - (2 - (4 - 8))")
        assert _grouped(terms, GROUPINGS["balanced"]) == parse_expr("1 - 2 + (4 - 8)")

    @staticmethod
    def _largest_ask(monkeypatch, text, digits):
        asked = [0]
        init = real.RefinedReal.__init__

        def counting_init(self, raw):
            def counted(n):
                asked[0] = max(asked[0], n)
                return raw(n)

            init(self, counted)

        monkeypatch.setattr(real.RefinedReal, "__init__", counting_init)
        eval_expr(parse_expr(text), EvalConfig(digits))
        return asked[0]

    def test_long_left_sum_asks_a_bounded_precision(self, monkeypatch):
        # left-associated, the first term would be asked at about 2^102
        text = " + ".join("1/(geom2*geom2+%d)" % i for i in range(1, 101))
        assert self._largest_ask(monkeypatch, text, 6) <= 2**34

    def test_long_product_asks_a_bounded_precision(self, monkeypatch):
        # left-associated, the first factor would be asked at about 2^169
        text = "*".join("(1+geom2/%d)" % (i * i + 7) for i in range(1, 61))
        assert self._largest_ask(monkeypatch, text, 6) <= 2**40

    def test_flat_sum_of_two_thousand_terms(self):
        text = " + ".join("geom2/%d" % i for i in range(1, 2001)).replace("geom2/1 ", "geom2 ", 1)
        _, cert = eval_expr(parse_expr(text), EvalConfig(4))
        value = 2 * sum(Fraction(1, i) for i in range(1, 2001))
        lo, hi = certificate_interval(cert.line())
        assert lo <= value <= hi
        assert hi - lo <= Fraction(1, 10**4)


class TestEvaluation:
    def test_rational_sum(self):
        text, cert = eval_expr(parse_expr("1/3 + 1/6"), EvalConfig(4))
        assert text == "0.5000"
        assert cert.lo <= q(1, 2) <= cert.hi

    def test_abs_max_combination(self):
        text, _ = eval_expr(parse_expr("abs(-2) * max(1, 3/2)"), EvalConfig(2))
        assert text == "3.00"

    def test_division(self):
        text, _ = eval_expr(parse_expr("1 / 3"), EvalConfig(6))
        assert text == "0.333333"

    def test_recip_of_exact_zero_divides_by_zero(self):
        # 1 - 1 refines to the point 0 at once: no budget could separate it
        with pytest.raises(DivisionByZero, match="^division by zero$"):
            eval_expr(parse_expr("recip(1 - 1)"), EvalConfig(3, budget=1 << 12))

    @pytest.mark.parametrize("text", ["1/(3-3)", "recip(1 - 1)"])
    def test_exact_zero_divisor_exits_1(self, capsys, text):
        assert main(["eval", text, "--digits", "4"]) == 1
        assert capsys.readouterr() == ("", "error: DivisionByZero: division by zero\n")

    def test_unknown_constant(self):
        with pytest.raises(UnknownConstant):
            eval_expr(parse_expr("tau"), EvalConfig(3))

    def test_limit_constant(self):
        text, _ = eval_expr(parse_expr("geom2 - lim(geom)"), EvalConfig(4))
        assert text in ("0.0000", "-0.0000")

    def test_determinism(self):
        runs = {
            eval_expr(parse_expr("1/3 + 1/6"), EvalConfig(6))[0] for _ in range(3)
        }
        assert runs == {"0.500000"}

    def test_certificate_reverifies(self):
        expr = parse_expr("1/7 + 2/7")
        _, cert = eval_expr(expr, EvalConfig(5))
        from streaks.cli import _to_real

        fresh = _to_real(expr, EvalConfig(5))
        lo, hi = fresh.refine(cert.precision)
        assert cert.lo <= lo and hi <= cert.hi


# the law names in the order every suite prints them
LAWS = (
    "boundedness", "cotransitivity-below", "cotransitivity-above",
    "cotransitivity-split", "roundedness-below", "roundedness-above",
    "asymmetry", "extensionality", "add-commutative", "add-associative",
    "add-identity", "mul-commutative", "mul-associative", "mul-identity",
    "distributivity", "add-monotone", "add-monotone-above", "mul-monotone",
    "mul-monotone-above",
)
# laws that need certified-positive draws, which `upper` never yields
NEEDS_POSITIVES = {
    "mul-commutative", "mul-associative", "mul-identity", "distributivity",
    "mul-monotone", "mul-monotone-above",
}
GOLDEN_NAMES = [
    "real", "lower", "upper", "ring:rat", "field:rat", "field:ring:nat", "dyadic",
    "finjoin:rat",
]


class TestCheck:
    def test_golden_bytes(self, capsys):
        # printed before n-fold sums had a closed form and positive draws
        # stopped at the first miss; neither may change a byte
        expected = []
        for name in GOLDEN_NAMES:
            expected.append("streak %s: pass" % name)
            for law in LAWS:
                trials = 0 if name == "upper" and law in NEEDS_POSITIVES else 10
                expected.append("  %s: %d trials ok" % (law, trials))
        argv = ["check", *GOLDEN_NAMES, "--trials", "10", "--seed", "7"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_repeated_checks_print_the_same_bytes(self, capsys):
        # handles are cached across calls, so a second run in the same
        # process sees whatever the first left in their shared values
        argv = ["check", "finmeet:rat", "finjoin:rat", "ring:rat", "field:ring:nat", "real",
                "--trials", "10", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.count(": pass\n") == 5

    def test_passing_suites(self):
        code, text = check_streaks(["rat", "field:ring:nat"], 30, 0)
        assert code == 0
        assert "streak rat: pass" in text

    def test_initial_streak(self):
        code, _ = check_streaks(["nat"], 30, 0)
        assert code == 0


DEEP = "expression nested deeper than 256 levels"


def _recip_tower(levels):
    """recip(1 + 2*x) taken levels times, from x = 2."""
    x = Fraction(2)
    for _ in range(levels):
        x = 1 / (1 + 2 * x)
    return x


RECIP_TOWER = _recip_tower(200)


class TestMain:
    def test_eval_output(self, capsys):
        assert main(["eval", "1/3 + 1/6", "--digits", "6"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0.500000"
        assert out[1].startswith("interval lo=1/2 hi=1/2 precision=")

    @pytest.mark.parametrize(
        "expr, digits, expected",
        [
            # shifts far below zero are exact inputs, not a budget search
            (
                "(0-20000000)*2",
                4,
                ["-40000000.0000", "interval lo=-40000000 hi=-40000000 precision=1"],
            ),
            (
                "lim(geom)",
                6,
                [
                    "1.999999",
                    "interval lo=33554423/16777216 hi=33554439/16777216 precision=2097152",
                ],
            ),
            (
                "geom2*geom2 - lim(geom)",
                5,
                [
                    "1.99999",
                    "interval lo=316658732236849/158329674399744 "
                    "hi=316659738869761/158329674399744 precision=262144",
                ],
            ),
            # division, recip and min evaluated in-process
            ("(1)/3", 6, ["0.333333", "interval lo=1/3 hi=1/3 precision=1"]),
            ("(7)/(0-2)", 3, ["-3.500", "interval lo=-7/2 hi=-7/2 precision=1"]),
            (
                "geom2/(1/3)",
                4,
                ["5.9999", "interval lo=11010003/1835008 hi=11010051/1835008 precision=32768"],
            ),
            (
                "recip(geom2)",
                5,
                [
                    "0.50000",
                    "interval lo=35184380477440/70368765149183 "
                    "hi=35184380477440/70368748371967 precision=262144",
                ],
            ),
            ("min(geom2, 3/2)", 4, ["1.5000", "interval lo=3/2 hi=3/2 precision=32768"]),
        ],
    )
    def test_eval_golden_bytes(self, capsys, expr, digits, expected):
        assert main(["eval", expr, "--digits", str(digits)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        lo, hi = certificate_interval(expected[1])
        assert lo <= EXACT[expr] <= hi
        assert hi - lo <= Fraction(1, 10**digits)
        assert abs(Fraction(expected[0]) - EXACT[expr]) <= Fraction(2, 10**digits)

    def test_certificate_endpoints_past_the_int_to_str_limit(self, capsys):
        expr = "*".join(["geom2"] * 8)
        assert main(["eval", expr, "--digits", "1500"]) == 0
        text, line = capsys.readouterr().out.splitlines()
        lo, hi = certificate_interval(line)
        assert len(line) > 2 * sys.get_int_max_str_digits()
        assert lo <= 256 <= hi and hi - lo <= Fraction(1, 10**1500)
        assert text in ("256." + "0" * 1500, "255." + "9" * 1500)

    def test_literal_past_the_int_to_str_limit(self, capsys):
        literal = "1" * 4400
        assert main(["eval", literal, "--digits", "2"]) == 0
        text, line = capsys.readouterr().out.splitlines()
        assert text == literal + ".00"
        assert line == "interval lo=%s hi=%s precision=1" % (literal, literal)

    def test_reader_closing_early_ends_without_a_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "streaks.cli", "check", "rat", "--trials", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        proc.stdout.close()  # the reader is gone before the first line
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == ""
        assert code == 1

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("-1/3", ["-0.33", "interval lo=-1/3 hi=-1/3 precision=1"]),
            ("-geom2", ["-1.99", "interval lo=-1025/512 hi=-1021/512 precision=256"]),
        ],
    )
    def test_expression_may_start_with_a_minus(self, capsys, expr, expected):
        # only a token starting with -- and a letter is an option
        text, cert = eval_expr(parse_expr(expr), EvalConfig(2))
        assert [text, cert.line()] == expected
        assert main(["eval", expr, "--digits", "2"]) == 0
        assert capsys.readouterr().out == "%s\n%s\n" % (text, cert.line())

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["evaluate", "1/3", "--digits", "2"],
            ["--digits", "2", "eval", "1/3"],  # the command comes first
            ["eval", "1/3"],  # --digits is required
            ["eval", "--digits", "2"],
            ["eval", "1/3", "2/3", "--digits", "2"],
            ["eval", "1/3", "--digits"],
            ["eval", "1/3", "--digits="],
            ["eval", "1/3", "--digits", "two"],
            ["eval", "1/3", "--digits", "2.5"],
            ["eval", "1/3", "--dig", "2"],  # no abbreviations
            ["eval", "1/3", "--digits", "2", "--trials", "3"],
            ["eval", "1/3", "--digits", "2", "--budget", "--digits"],
            ["check"],
            ["check", "--trials", "3"],
            ["check", "rat", "--budget", "3"],
            ["check", "rat", "--trials"],
            ["check", "rat", "--seed", "x"],
        ],
    )
    def test_malformed_argv_is_one_usage_error_line(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["eval", "--help"], ["check", "rat", "-h"]])
    def test_help_prints_the_usage_block(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == cli.__doc__.split("\n\n")[1] + "\n"
        assert out.startswith("Usage:\n    streaks eval EXPR --digits N [--budget B]\n")
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "1/3", "--digits=4"],
            ["eval", "--digits", "4", "1/3"],
            ["eval", "--budget=64", "1/3", "--digits", "4"],
            ["eval", "1/3", "--digits", "9", "--digits", "4"],  # the last one counts
        ],
    )
    def test_option_spellings_and_places_agree(self, capsys, argv):
        assert main(["eval", "1/3", "--digits", "4"]) == 0
        expected = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_check_options_before_the_names(self, capsys):
        assert main(["check", "nat", "int", "--trials", "5", "--seed", "3"]) == 0
        expected = capsys.readouterr().out
        assert main(["check", "--seed=3", "--trials=5", "nat", "int"]) == 0
        assert capsys.readouterr().out == expected

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["streaks", "eval", "1/3", "--digits", "4"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.3333"

    def test_a_fresh_process_does_not_import_argparse(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probe = "import sys, streaks.cli; print('argparse' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
        proc = subprocess.run(
            [sys.executable, "-m", "streaks.cli", "eval", "1/3", "--digits", "4"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "0.3333\ninterval lo=1/3 hi=1/3 precision=1\n", ""
        )

    def test_syntax_error_exit(self, capsys):
        assert main(["eval", "min(1,2", "--digits", "2"]) == 2
        assert "syntax error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "1/3", "--digits", "-1"],
            ["eval", "\u00b2", "--digits", "2"],
            ["check", "rat", "--trials", "-3"],
            ["eval", "1/3", "--digits", "3", "--budget", "-5"],
            ["eval", "1/3", "--digits", "3", "--budget", "0"],
        ],
    )
    def test_bad_eval_input_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_superscript_digit_is_not_a_number(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1\u00b2")

    def test_eval_error_exit(self, capsys):
        assert main(["eval", "recip(0)", "--digits", "2"]) == 1

    @pytest.mark.parametrize(
        "expr, code, err",
        [
            # a zero denominator is caught while parsing the literal
            ("1/0", 1, "error: zero denominator in '1/0'\n"),
            ("tau", 2, "unknown constant: tau\n"),
        ],
    )
    def test_parse_and_name_error_exits(self, capsys, expr, code, err):
        assert main(["eval", expr, "--digits", "2"]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "expr, code, err",
        [
            ("(" * 400 + "1" + ")" * 400, 2, "syntax error: %s (at offset 256)\n" % DEEP),
            ("-" * 1200 + "geom2", 2, "syntax error: %s (at offset 256)\n" % DEEP),
            # the opener of a call is its parenthesis
            ("recip(" * 300 + "2" + ")" * 300, 2, "syntax error: %s (at offset 1541)\n" % DEEP),
            # parsed, but built with several frames per level
            ("recip(1 + 1 + 1 + 2*2*2*" * 200 + "geom2" + ")" * 200, 1,
             "error: expression too deep to evaluate\n"),
        ],
        ids=["parentheses", "minus-signs", "calls", "too-deep-to-build"],
    )
    def test_deep_input_is_one_error_line(self, capsys, expr, code, err):
        assert main(["eval", expr, "--digits", "2"]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("(" * 256 + "geom2" + ")" * 256, Fraction(2)),
            ("-" * 256 + "geom2", Fraction(2)),
            ("recip(1 + 2*" * 200 + "geom2" + ")" * 200, RECIP_TOWER),
        ],
        ids=["parentheses", "minus-signs", "recip-tower"],
    )
    def test_deepest_nesting_evaluates(self, capsys, expr, value):
        assert main(["eval", expr, "--digits", "6"]) == 0
        lo, hi = certificate_interval(capsys.readouterr().out.splitlines()[1])
        assert lo <= value <= hi
        assert hi - lo <= Fraction(1, 10**6)

    def test_unknown_streak_exit(self, capsys):
        assert main(["check", "bogus"]) == 2
        assert "unknown streak" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["field:nat", "finmeet:real"])
    def test_lift_that_does_not_apply_is_unknown(self, capsys, name):
        # field needs negation and total multiplication, finite subsets a
        # decidable base
        assert main(["check", name]) == 2
        assert "unknown streak: %s: " % name in capsys.readouterr().err

    @pytest.mark.parametrize("name, err", [
        # an empty base is reported under the name that has it
        ("ring:", "ring:"),
        ("field:ring:", "ring:"),
        ("pos:rat", "pos:rat"),
        ("halved:int", "halved:int"),
        ("arch:rat", "arch:rat"),
        ("field:nat",
         "field:nat: field_lift needs a ring streak (negation and total multiplication)"),
        # every probe of a ring lift over `lower` or `upper` would answer NO
        ("ring:lower",
         "ring:lower: ring_lift needs a base with a decidable order or a subtraction (cmp or sub)"),
        ("field:ring:upper",
         "ring:upper: ring_lift needs a base with a decidable order or a subtraction (cmp or sub)"),
    ])
    def test_unknown_streak_message(self, capsys, name, err):
        assert main(["check", name]) == 2
        assert capsys.readouterr().err == "unknown streak: %s\n" % err

    def test_check_exit(self, capsys):
        assert main(["check", "nat", "--trials", "20"]) == 0

    def test_deep_streak_name_is_one_error_line(self, capsys):
        # a name is resolved once per lift prefix, one frame or more each
        assert main(["check", "ring:" * 600 + "nat", "--trials", "1"]) == 1
        assert capsys.readouterr() == ("", "error: streak name too deep to check\n")

    def test_more_than_eight_lift_prefixes_are_refused(self, capsys):
        # each ring level doubles a sample, so 9 levels would run one
        # trial for seconds; the name is refused before it is resolved
        assert main(["check", "nat", "ring:" * 9 + "nat", "--trials", "1"]) == 1
        assert capsys.readouterr() == ("", "error: streak name too deep to check\n")

    def test_eight_lift_prefixes_are_checked(self, capsys):
        name = "ring:" * 8 + "nat"
        assert main(["check", name, "--trials", "0"]) == 0
        assert capsys.readouterr().out.startswith("streak %s: pass\n" % name)


# the certificate of an 8-factor geom2 product at 12 digits
_PRODUCT_LO = (
    "1720837231822587112361819704606075139547881976443436579906323098"
    "5067794955436271813887368491498633313412320773025194328157500349"
    "083185832483170778245601"
)
_PRODUCT_HI = (
    "1720837231822590625475949797169512793177919714232388990609935432"
    "3870069596093518359200342014384850934932130272169023652556008161"
    "293018460135890000390625"
)
_PRODUCT_DEN = (
    "6722020436806993739567882313331288851069966049611043065028289083"
    "7927180854262570306287990215465081207989683632359035101599089122"
    "278360890790595526656"
)

# (argv, bound on general Rational constructions, exit code, stdout, stderr)
COST_REQUESTS = [
    (
        ["eval", "1/(lim(geom) - geom2)", "--digits", "4", "--budget", "16384"],
        31,
        1,
        "",
        "error: ApartnessUndecided: could not separate from zero within budget 2^14\n",
    ),
    (
        ["eval", "*".join(["geom2"] * 8), "--digits", "12"],
        10,
        0,
        "255.999999999999\ninterval lo=%s/%s hi=%s/%s precision=2199023255552\n"
        % (_PRODUCT_LO, _PRODUCT_DEN, _PRODUCT_HI, _PRODUCT_DEN),
        "",
    ),
    (
        ["eval", "geom2*geom2 - lim(geom) - 8/9", "--digits", "5"],
        9,
        0,
        "1.11111\ninterval lo=703686208651313/633318697598976 "
        "hi=703688221917185/633318697598976 precision=262144\n",
        "",
    ),
    # seven parsed literals, each built once
    (
        ["eval", "1/3 + 1/6 + 1/7 + 1/8 + 1/9 + 1/10 + 1/11", "--digits", "8"],
        9,
        0,
        "1.06987734\ninterval lo=29657/27720 hi=29657/27720 precision=1\n",
        "",
    ),
]


class TestRationalConstructions:
    """General `Rational(...)` constructions per request, counted through
    `Rational.__init__` with no timing: a refine step builds no width
    Rational, the term memo copies no Rational, a constant member has no
    memo and a parsed literal is not built again.  Each request's printed
    bytes are pinned beside its count.  Since an entry point keeps a
    Rational argument as given rather than copying it, the counts read
    31, 10, 9 and 9 (they were 32, 12, 12 and 18, under bounds of 62, 17,
    17 and 18)."""

    @pytest.mark.parametrize(
        "argv, bound, code, out, err",
        COST_REQUESTS,
        ids=["zero-divisor", "product", "square-diff", "literal-sum"],
    )
    def test_constructions_and_bytes(self, monkeypatch, capsys, argv, bound, code, out, err):
        built = [0]
        init = Rational.__init__

        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Rational, "__init__", counted)
        assert main(argv) == code
        monkeypatch.undo()
        assert built[0] <= bound
        assert capsys.readouterr() == (out, err)
