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
they share one real, refined once per precision.  A chain of + and -, or
of * and /, is evaluated as a balanced tree however it is grouped, so a
long sum or product asks its operands a few bits more, not a few bits per
operand.  Parentheses, function calls and prefix minus signs nest at most
256 levels deep; deeper input is a syntax error.  `check` runs the
randomized law suites on registered streaks, named with at most 8 lift
prefixes.  Exit codes: 0 success, 1 evaluation/budget error, a streak
name too deep to check or output closed early by its reader, 2 usage
error.

An expression has exact literals (1/3 is one number), constants,
lim(family), and the operators + - * / abs recip min max of one table,
OPERATORS, which the parser, the node builder and format_expr all read.
parse_expr returns it as nested tuples, the keys the node builder shares
nodes by: ("lit", q) with q a Rational, ("const", name), ("lim", name),
(op, operand) for neg, abs and recip, and (op, left, right) for the rest.
"""

from __future__ import annotations

import operator
import os
import re
import sys

from .cauchy import CauchyReal, cs_limit, cs_to_real
from .core import BudgetExceeded, Sampler, axiom_suite
from .rational import DivisionByZero, Rational, parse_rational
from .real import (
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


# -- operators -----------------------------------------------------------


# op -> (spelling, arity, build), build making the op's real from the
# config and the operands' nodes; it looks each real_* up at call time, so
# a function swapped in for one runs.  A symbol is infix, or neg's prefix
# -; a word is a function.  div has no build: a/b is a * recip(b), sharing
# the node of recip(b).
OPERATORS = {
    "add": ("+", 2, lambda cfg, a, b: real_add(a, b)),
    "sub": ("-", 2, lambda cfg, a, b: real_sub(a, b)),
    "mul": ("*", 2, lambda cfg, a, b: real_mul_total(a, b)),
    "div": ("/", 2, None),
    "neg": ("-", 1, lambda cfg, a: real_neg(a)),
    "abs": ("abs", 1, lambda cfg, a: real_abs(a)),
    "recip": ("recip", 1, lambda cfg, a: real_recip(a, derive_apartness(a, cfg.budget))),
    "min": ("min", 2, lambda cfg, a, b: real_inf(a, b)),
    "max": ("max", 2, lambda cfg, a, b: real_sup(a, b)),
}
# infix symbol -> (op, precedence level); a higher level binds tighter
INFIX = {
    OPERATORS[op][0]: (op, level)
    for level, ops in enumerate([("add", "sub"), ("mul", "div")])
    for op in ops
}
# the functions by name; lim(name) takes a family name and is parsed apart
FUNCTIONS = {spelling: op for op, (spelling, _, _) in OPERATORS.items() if spelling.isidentifier()}


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

# a token per match: spaces (no group, skipped), a number (an integer/integer
# rational literal, a decimal, or malformed as in 1.), a word, a symbol, or
# any other character, an error.  \s, \d and \w test str.isspace,
# str.isdecimal and str.isalnum-or-_ on each character.
_TOKEN = re.compile(
    r"\s+|(?P<number>\d+\s*/\s*\d+(?![.\d])|\d+(?:\.\d*)?)|(?P<name>\w+)"
    r"|(?P<symbol>[-+*/(),])|(?P<other>.)"
)


def _tokenize(text):
    """The (kind, text, offset) tokens of text and an "end" token, last
    first, so the parser peeks at tokens[-1] and takes it by tokens.pop();
    a symbol's kind is itself."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:  # spaces
            continue
        word, at = match[0], match.start()
        if kind == "symbol":
            kind = word
        elif kind == "number":
            if word.endswith("."):
                raise ExprSyntaxError("malformed decimal literal", at)
        # a name starts with a letter or _, so ²5 is no name
        elif kind == "other" or not (word[0].isalpha() or word[0] == "_"):
            raise ExprSyntaxError("unexpected character %r" % word[0], at)
        tokens.append((kind, word, at))
    tokens.append(("end", "", len(text)))
    return tokens[::-1]


# the deepest nesting of parentheses, function calls and prefix minus signs
# the parser reads: it recurses at most three frames a level, so deeper
# input is a syntax error with an offset, not an overflow of the stack
MAX_DEPTH = 256

# the most lift prefixes a `check` name may have: a sample of a k-deep
# ring tower holds 2^k base values, and each level makes one trial about
# three times dearer (8 levels check one trial in under a second)
MAX_LIFTS = 8


def parse_expr(text):
    """Parse an arithmetic expression into its tuple form (exact literals,
    precedence unary > mul/div > add/sub)."""
    tokens = _tokenize(text)
    expr = _infix(tokens, 0)
    kind, _, at = tokens.pop()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", at)
    return expr


def _expect(tokens, kind):
    """Take the next token, which must be of kind; returns its text."""
    tok = tokens.pop()
    if tok[0] != kind:
        raise ExprSyntaxError("expected %r" % kind, tok[2])
    return tok[1]


def _deeper(depth, at):
    """depth + 1, the level of an opener at offset at, if it is allowed."""
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError("expression nested deeper than %d levels" % MAX_DEPTH, at)
    return depth + 1


def _infix(tokens, depth):
    """Operands joined by infix operators, a tighter level first and equal
    levels to the left, reduced on one stack: operand, (op, level), operand..."""
    node = _unary(tokens, depth)
    if tokens[-1][0] not in INFIX:
        return node
    stack = [node]
    while True:
        entry = INFIX.get(tokens[-1][0])
        while len(stack) > 1 and (entry is None or stack[-2][1] >= entry[1]):
            right = stack.pop()
            op = stack.pop()[0]
            stack[-1] = (op, stack[-1], right)
        if entry is None:
            return stack[0]
        tokens.pop()
        stack += [entry, _unary(tokens, depth)]


def _unary(tokens, depth):
    if tokens[-1][0] != "-":
        return _primary(tokens, depth)
    depth = _deeper(depth, tokens.pop()[2])
    if tokens[-1][0] == "number":
        # a negated number is one literal, so format_expr's
        # negative literals parse back to themselves
        return ("lit", -_primary(tokens, depth)[1])
    return ("neg", _unary(tokens, depth))


def _primary(tokens, depth):
    kind, text, at = tokens.pop()
    if kind == "number":  # read exactly, without spaces around a /
        return ("lit", parse_rational("".join(text.split())))
    if kind == "(":
        node = _infix(tokens, _deeper(depth, at))
        _expect(tokens, ")")
        return node
    if kind != "name":
        raise ExprSyntaxError("expected an expression", at)
    if tokens[-1][0] != "(":
        return ("const", text)
    depth = _deeper(depth, tokens.pop()[2])
    if text == "lim":
        node = ("lim", _expect(tokens, "name"))
    elif text in FUNCTIONS:
        op = FUNCTIONS[text]
        node = (op, _infix(tokens, depth))
        for _ in range(OPERATORS[op][1] - 1):
            _expect(tokens, ",")
            node += (_infix(tokens, depth),)
    else:
        raise ExprSyntaxError("unknown function %r" % text, at)
    _expect(tokens, ")")
    return node


# infix op -> its precedence level; any other node binds tighter than all
_LEVELS = dict(INFIX.values())


def _level(e):
    """The precedence level of e as an operand."""
    return _LEVELS.get(e[0], len(_LEVELS))


def format_expr(e):
    """Render a parsed expression back to text that parses to it again.
    Brackets go only where bare text would read back differently: around
    an infix operand that binds looser than its parent, or as tightly on
    the right (a - (b - c)); around a negative literal; around a literal
    after / that would join the number before it into one rational; and
    around what neg negates, unless it is an atom other than a number (--x).
    So a flat chain prints flat and a run of minus signs as its input.
    One explicit stack walks the tree, so depth costs no recursion."""
    todo = [e]  # nodes to render, and [node] once its operands are done
    done = []  # rendered operands, the latest last
    while todo:
        e = todo.pop()
        if isinstance(e, list):  # its operands are the last ones done
            (e,) = e
            op, spelling = e[0], OPERATORS[e[0]][0]
            if len(e) == 2:
                bare = op == "neg" and _level(e[1]) == len(_LEVELS)
                if bare and not done[-1][0].isdigit():  # -1 reads as a literal
                    done[-1] = "-" + done[-1]
                else:
                    done[-1] = "%s(%s)" % (spelling, done[-1])
                continue
            left, right = done[-2:]
            if spelling in FUNCTIONS:
                done[-2:] = ["%s(%s, %s)" % (spelling, left, right)]
                continue
            level = _LEVELS[op]
            if _level(e[1]) < level:
                left = "(%s)" % left
            # n / m would read back as one rational literal
            if _level(e[2]) <= level or (
                spelling == "/" and right[0].isdigit() and left.rsplit(" ", 1)[-1].isdigit()
            ):
                right = "(%s)" % right
            done[-2:] = ["%s %s %s" % (left, spelling, right)]
        elif e[0] == "lit":
            done.append("(%s)" % e[1] if e[1] < 0 else str(e[1]))
        elif e[0] == "const":
            done.append(e[1])
        elif e[0] == "lim":
            done.append("lim(%s)" % e[1])
        else:  # the operands, the first on top
            todo += [[e], *e[:0:-1]]
    return done[0]


# -- evaluation ------------------------------------------------------------


class EvalConfig:
    """Digits to print and the precision cap.  Without a budget the cap
    is max(10^7, decimal_precision(digits)), so it follows the digits."""

    def __init__(self, digits, budget=None):
        self.digits = operator.index(digits)
        if self.digits < 0:
            raise ValueError("digits must be non-negative")
        if budget is None:
            budget = max(10**7, decimal_precision(self.digits))
        self.budget = operator.index(budget)
        if self.budget < 1:
            raise ValueError("budget must be positive")


def _to_real(e, cfg):
    """The real of e, one node per distinct subexpression (see _shared)."""
    return _shared(e, cfg, {})


# op -> the ops of its chain kind, (join, inverse), that _shared re-associates
_CHAINS = {op: kind for kind in (("add", "sub"), ("mul", "div")) for op in kind}


def _shared(e, cfg, nodes):
    """The node of e, built on first sight and kept in nodes under e's key.

    A leaf keys as itself, and an operator as (op, *its operands'
    nodes), not as its subtree, whose hash and == would walk all of it.
    Equal operands are one node already, so equal subtrees get equal
    keys and share a node, which is refined once per precision.
    Operands are built left to right, so the first error raised is the
    one of an unshared build.  A chain of + and -, or of * and /, is
    rebuilt balanced (see _chain).
    """
    op = e[0]
    if len(e) == 3:
        same = _CHAINS.get(op)
        # _chain keeps a divisor whole, so a/(b*c) is no chain
        if same and (e[1][0] in same or op != "div" and e[2][0] in same):
            return _chain(e, same, cfg, nodes)
        e = (op, _shared(e[1], cfg, nodes), _shared(e[2], cfg, nodes))
    elif op in OPERATORS:
        e = (op, _shared(e[1], cfg, nodes))
    return _node(e, cfg, nodes)


def _chain(e, same, cfg, nodes):
    """The node of a chain of + and -, or of * and /, as a balanced tree.

    Each node asks its operands at a higher precision than its own (a sum
    at twice it), so left-associated the first of k operands would be
    asked through k - 1 inflations; balanced, through at most ceil(log2 k).
    The walk lists the operands left to right, each with whether it is
    inverse: subtracted (a - (b - c) is +a, -b, +c) or divided by.  A
    divisor stays whole, so a/(b*c) is a and the divisor b*c, and a
    quotient keys as a/b does outside a chain.
    """
    operands, todo = [], [(e, False)]
    while todo:
        x, inverse = todo.pop()
        if x[0] in same and not (inverse and same[1] == "div"):
            todo.append((x[2], inverse != (x[0] == same[1])))
            todo.append((x[1], inverse))
        else:
            operands.append((x, inverse))
    return _balanced(operands, 0, len(operands), same, cfg, nodes)[0]


def _balanced(operands, lo, hi, same, cfg, nodes):
    """(node, inverse) for operands[lo:hi], the left half taking the extra
    one.  Halves join by same[0], add or mul, or by same[1], sub or div,
    when one is inverse; two subtracted halves add to a subtracted sum,
    and two divisors stay whole and multiply as reciprocals.  Equal halves
    share one node.  A chain's first operand is not inverse, so neither
    is the chain."""
    if hi - lo == 1:
        x, inverse = operands[lo]
        node = _shared(x, cfg, nodes)
        if inverse and same[1] == "div":  # now, so errors come in text order
            _node(("recip", node), cfg, nodes)
        return node, inverse
    mid = (lo + hi + 1) // 2
    x, x_inverse = _balanced(operands, lo, mid, same, cfg, nodes)
    y, y_inverse = _balanced(operands, mid, hi, same, cfg, nodes)
    if x_inverse != y_inverse:
        return _node((same[1], y, x) if x_inverse else (same[1], x, y), cfg, nodes), False
    if x_inverse and same[1] == "div":
        x, y = _node(("recip", x), cfg, nodes), _node(("recip", y), cfg, nodes)
        return _node(("mul", x, y), cfg, nodes), False
    return _node((same[0], x, y), cfg, nodes), x_inverse


def _node(key, cfg, nodes):
    """The node under key, built from the key alone on a miss."""
    node = nodes.get(key)
    if node is not None:
        return node
    op, x = key[0], key[1]
    if op == "div":  # a/b shares its reciprocal with recip(b)
        node = real_mul_total(x, _node(("recip", key[2]), cfg, nodes))
    elif op in OPERATORS:
        node = OPERATORS[op][2](cfg, *key[1:])
    elif op == "lit":
        node = real_from_rational(x)
    elif x not in (CONSTANTS if op == "const" else FAMILIES):
        raise UnknownConstant(x)
    elif op == "const":
        node = CONSTANTS[x]()
    else:
        node = cs_to_real(cs_limit(*FAMILIES[x]))
    nodes[key] = node
    return node


def eval_expr(e, cfg):
    """Evaluate a parsed expression into a certified decimal string."""
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
            expr = parse_expr(positionals[0])
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
            text, cert = eval_expr(expr, cfg)
        except (BudgetExceeded, DivisionByZero) as exc:
            print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            return 1
        except UnknownConstant as exc:
            print("unknown constant: %s" % exc, file=sys.stderr)
            return 2
        except RecursionError:
            # building and refining recurse once per tree level
            print("error: expression too deep to evaluate", file=sys.stderr)
            return 1
        return _print_out("%s\n%s" % (text, cert.line()), 0)
    if any(name.count(":") > MAX_LIFTS for name in positionals):
        print("error: streak name too deep to check", file=sys.stderr)
        return 1
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
