"""Certified decimal evaluation of arithmetic expressions.

The expression language has exact rational literals (1/3 is a single
number, not a division), named constants, limits of named families,
and the operators + - * / abs recip min max.  Every answer comes with
an interval certificate that can be re-checked independently.

Run with: python3 demos/07_certified_evaluation.py
"""

from streaks.cli import EvalConfig, eval_expr, format_expr, main, parse_expr
from streaks.rational import Rational

# literals are exact: 0.25 and 1/4 are the same number.  The parse is
# nested tuples: ("lit", q), ("const", name), ("lim", name) at the
# leaves and (op, operand, ...) above them
expr = parse_expr("1/3 + 2 * abs(-5/2)")
print("parsed:", expr)
print("round trip:", format_expr(expr))

text, cert = eval_expr(expr, EvalConfig(digits=6))
print("1/3 + 2*|-5/2| =", text)
print("certificate:", cert.line())

# the certificate really does pin the value down
lo, hi = cert.lo, cert.hi
assert lo <= Rational(16, 3) <= hi and hi - lo <= Rational(1, 10**6)

# the built-in geometric constant and family agree in the limit
text, cert = eval_expr(parse_expr("geom2 - lim(geom)"), EvalConfig(digits=4))
print("geom2 - lim(geom) =", text)

# min and max are total, no sign analysis needed from the caller
text, _ = eval_expr(parse_expr("min(1/3, 0.5) * max(-2, 3)"), EvalConfig(digits=3))
print("min(1/3, 0.5) * max(-2, 3) =", text)

# the same machinery is scriptable through the command line entry point
print("--- command line ---")
code = main(["eval", "1/3 + 1/6", "--digits", "6"])
print("exit code:", code)
code = main(["check", "rat", "--trials", "100"])
print("exit code:", code)
