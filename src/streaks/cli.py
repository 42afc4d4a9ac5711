"""Command-line front end: certified decimal evaluation and law suites.

Usage:
    streaks eval EXPR --digits N [--budget B]
    streaks check NAME... [--trials T] [--seed S]
    streaks -h | --help
Options go before or after the positionals as --opt N or --opt=N, spelled
in full; "-1/3" is an expression.  Defaults: budget max(10^7, P), P the
least power of two >= 2*10^N; trials 500; seed 0.

`eval` prints the decimal result followed by a one-line certificate
recording the final interval; identical inputs always produce
identical bytes.  Equal subexpressions are evaluated once per request:
they share one real, refined once per precision.  `check` runs the
randomized law suites on registered streaks.  Exit codes: 0 success,
1 evaluation/budget error or output closed early by its reader, 2 usage
error.
"""

from __future__ import annotations

import dataclasses
import os
import sys

from .cauchy import CauchyReal, cs_limit, cs_to_real
from .core import BudgetExceeded, Sampler, axiom_suite
from .rational import DivisionByZero, Rational, parse_rational
from .real import (
    ApartnessUndecided,
    decimal_precision,
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
from .registry import UnknownStreak, get_streak


class ExprSyntaxError(SyntaxError):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class UnknownConstant(Exception):
    pass


# -- AST -------------------------------------------------------------------


class Expr:
    pass


@dataclasses.dataclass
class Lit(Expr):
    value: Rational

    def __post_init__(self):
        self.value = Rational(self.value)

    def __repr__(self):
        return "Lit(%s)" % self.value


@dataclasses.dataclass
class Const(Expr):
    name: str

    def __repr__(self):
        return "Const(%s)" % self.name


@dataclasses.dataclass
class Lim(Expr):
    name: str

    def __repr__(self):
        return "Lim(%s)" % self.name


@dataclasses.dataclass
class Unary(Expr):
    op: str  # neg | abs | recip
    operand: Expr

    def __repr__(self):
        return "Unary(%s, %r)" % (self.op, self.operand)


@dataclasses.dataclass
class Binary(Expr):
    op: str  # add | sub | mul | div | min | max
    left: Expr
    right: Expr

    def __repr__(self):
        return "Binary(%s, %r, %r)" % (self.op, self.left, self.right)


# -- built-in constants (demo plumbing, not claimed results) ---------------


def _geometric_family(i):
    # partial sums of 1 + 1/2 + 1/4 + ...; member i is the constant
    # sequence at the i-th partial sum
    return CauchyReal.constant(Rational(2 ** (i + 1) - 1, 2**i))


def _geometric_real():
    partial = CauchyReal(
        lambda i: Rational(2 ** (i + 1) - 1, 2**i),
        lambda n: max(n.bit_length(), 1),
    )
    return cs_to_real(partial)


CONSTANTS = {
    "geom2": _geometric_real,  # the geometric series summing to 2
}

FAMILIES = {
    # partial sums are within 1/n of each other past index bit_length(n)+1
    "geom": (_geometric_family, lambda n: max(n.bit_length() + 1, 1)),
}


# -- tokenizer / parser ----------------------------------------------------


class _Token:
    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or not text[j].isdecimal():
                    raise ExprSyntaxError("malformed decimal literal", i)
                while j < len(text) and text[j].isdecimal():
                    j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError("expected %r" % kind, tok.pos)
        return tok

    def parse(self):
        expr = self.additive()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError("unexpected trailing input", tail.pos)
        return expr

    def additive(self):
        node = self.multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.multiplicative()
            node = Binary("add" if op == "+" else "sub", node, rhs)
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.unary()
            node = Binary("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            if self.peek().kind == "number":
                # a negated number is one literal, so format_expr's
                # negative literals parse back to themselves
                return Lit(-self.primary().value)
            return Unary("neg", self.unary())
        return self.primary()

    def primary(self):
        tok = self.next()
        if tok.kind == "number":
            # an integer literal directly followed by /integer is a
            # rational literal, read exactly
            if (
                "." not in tok.text
                and self.peek().kind == "/"
                and self.tokens[self.pos + 1].kind == "number"
                and "." not in self.tokens[self.pos + 1].text
            ):
                self.next()
                den = self.next()
                return Lit(parse_rational("%s/%s" % (tok.text, den.text)))
            return Lit(parse_rational(tok.text))
        if tok.kind == "(":
            node = self.additive()
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.text
            if self.peek().kind == "(":
                self.next()
                if name in ("abs", "recip"):
                    arg = self.additive()
                    self.expect(")")
                    return Unary(name, arg)
                if name in ("min", "max"):
                    left = self.additive()
                    self.expect(",")
                    right = self.additive()
                    self.expect(")")
                    return Binary(name, left, right)
                if name == "lim":
                    inner = self.expect("name")
                    self.expect(")")
                    return Lim(inner.text)
                raise ExprSyntaxError("unknown function %r" % name, tok.pos)
            return Const(name)
        raise ExprSyntaxError("expected an expression", tok.pos)


def parse_expr(text):
    """Parse an arithmetic expression into an AST (exact literals,
    precedence unary > mul/div > add/sub)."""
    return _Parser(_tokenize(text)).parse()


def format_expr(e):
    """Render an AST back to parseable text (round-trips structurally)."""
    if isinstance(e, Lit):
        return "(%s)" % e.value if e.value < 0 else str(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Lim):
        return "lim(%s)" % e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-(%s)" % format_expr(e.operand)
        return "%s(%s)" % (e.op, format_expr(e.operand))
    symbols = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
    if e.op in symbols:
        return "((%s) %s (%s))" % (format_expr(e.left), symbols[e.op], format_expr(e.right))
    return "%s(%s, %s)" % (e.op, format_expr(e.left), format_expr(e.right))


# -- evaluation ------------------------------------------------------------


class EvalConfig:
    """Digits to print and the precision cap.  Without a budget the cap
    is max(10^7, decimal_precision(digits)), so it follows the digits."""

    def __init__(self, digits, budget=None):
        self.digits = int(digits)
        if self.digits < 0:
            raise ValueError("digits must be non-negative")
        if budget is None:
            budget = max(10**7, decimal_precision(self.digits))
        self.budget = int(budget)
        if self.budget < 1:
            raise ValueError("budget must be positive")


def _to_real(e, cfg):
    """The real of e, one node per distinct subexpression (see _shared)."""
    return _shared(e, cfg, {})


def _shared(e, cfg, nodes):
    """The node of e, built on first sight and kept in nodes under e's key.

    A literal keys by its value, a name by its kind and name, and an
    operator by its op and its operands' nodes.  Equal operands are one
    node already, so equal subtrees get equal keys and share a node,
    which is refined once per precision.  Operands are built left to
    right, so the first error raised is the one of an unshared build.
    """
    if isinstance(e, Binary):
        key = (e.op, _shared(e.left, cfg, nodes), _shared(e.right, cfg, nodes))
    elif isinstance(e, Unary):
        key = (e.op, _shared(e.operand, cfg, nodes))
    elif isinstance(e, Lit):
        key = ("lit", e.value)
    else:
        key = ("lim" if isinstance(e, Lim) else "const", e.name)
    return _node(key, cfg, nodes)


def _node(key, cfg, nodes):
    """The node under key, built from the key alone on a miss."""
    node = nodes.get(key)
    if node is not None:
        return node
    op, x = key[0], key[1]
    if op == "lit":
        node = real_from_rational(x)
    elif op == "const":
        if x not in CONSTANTS:
            raise UnknownConstant(x)
        node = CONSTANTS[x]()
    elif op == "lim":
        if x not in FAMILIES:
            raise UnknownConstant(x)
        family, outer = FAMILIES[x]
        node = cs_to_real(cs_limit(family, outer))
    elif op == "neg":
        node = real_neg(x)
    elif op == "abs":
        node = real_abs(x)
    elif op == "recip":
        node = real_recip(x, derive_apartness(x, cfg.budget))
    elif op == "add":
        node = real_add(x, key[2])
    elif op == "sub":
        node = real_sub(x, key[2])
    elif op == "mul":
        node = real_mul_total(x, key[2])
    elif op == "div":
        # a/b shares its reciprocal with recip(b)
        node = real_mul_total(x, _node(("recip", key[2]), cfg, nodes))
    elif op == "min":
        node = real_inf(x, key[2])
    else:
        node = real_sup(x, key[2])
    nodes[key] = node
    return node


def eval_expr(e, cfg):
    """Evaluate an AST into a certified decimal string."""
    value = _to_real(e, cfg)
    return real_to_decimal(value, cfg.digits, cfg.budget)


def check_streaks(names, trials, seed):
    """Run the law suite on each named streak; returns (exit code, text)."""
    lines = []
    all_pass = True
    for name in names:
        handle = get_streak(name)
        report = axiom_suite(handle, Sampler(seed), trials)
        lines.append(report.summary())
        all_pass = all_pass and report.passed
    return (0 if all_pass else 1), "\n".join(lines)


# -- entry point -----------------------------------------------------------


# each command's options and defaults (None: required, or see EvalConfig)
OPTIONS = {"eval": {"digits": None, "budget": None}, "check": {"trials": 500, "seed": 0}}


def _read_argv(argv):
    """(command, positionals, options) of argv, or a ValueError saying what
    is malformed.  An option starts with -- and a letter; all else is positional."""
    if not argv or argv[0] not in OPTIONS:
        raise ValueError("expected a command, eval or check")
    command, positionals, tokens = argv[0], [], iter(argv[1:])
    options = dict(OPTIONS[command])
    for token in tokens:
        if not (token.startswith("--") and token[2:3].isalpha()):
            positionals.append(token)
            continue
        name, eq, value = token[2:].partition("=")
        if name not in options:
            raise ValueError("unknown option --%s for %s" % (name, command))
        value = value if eq else next(tokens, "")
        try:
            options[name] = int(value)
        except ValueError:
            raise ValueError("--%s needs an integer value, got %r" % (name, value)) from None
    if command == "check" and not positionals:
        raise ValueError("check needs at least one streak name")
    if command == "eval" and (len(positionals) != 1 or options["digits"] is None):
        raise ValueError("eval needs one expression and --digits N")
    if options.get("trials", 0) < 0:
        raise ValueError("trials must be non-negative")
    return command, positionals, options


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        return _print_out(__doc__.split("\n\n")[1], 0)
    try:
        command, positionals, options = _read_argv(argv)
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    if command == "eval":
        try:
            ast = parse_expr(positionals[0])
            cfg = EvalConfig(options["digits"], options["budget"])
        except ExprSyntaxError as exc:
            print("syntax error: %s" % exc, file=sys.stderr)
            return 2
        except DivisionByZero as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        except ValueError as exc:
            print("usage error: %s" % exc, file=sys.stderr)
            return 2
        try:
            text, cert = eval_expr(ast, cfg)
        except (BudgetExceeded, ApartnessUndecided, DivisionByZero) as exc:
            print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            return 1
        except UnknownConstant as exc:
            print("unknown constant: %s" % exc, file=sys.stderr)
            return 2
        return _print_out("%s\n%s" % (text, cert.line()), 0)
    try:
        code, text = check_streaks(positionals, options["trials"], options["seed"])
    except UnknownStreak as exc:
        print("unknown streak: %s" % exc, file=sys.stderr)
        return 2
    return _print_out(text, code)


def _print_out(text, code):
    """Print text and return code; a reader that closes the pipe early
    ends the run with exit 1 and no traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout is pointed at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
