"""Correctness oracle for benchmark outputs.

It reads only the bytes the library printed and the exact values the
generators attached to each request, and computes with
`fractions.Fraction`; it never calls the library.  A request that ended
in an error (exit 1 or an exception) is a failure, which the caller
counts; an output that contradicts the exact value is a wrong answer,
which aborts the run.
"""

from __future__ import annotations

import re
from fractions import Fraction

_CERT = re.compile(r"^interval lo=(-?\d+(?:/\d+)?) hi=(-?\d+(?:/\d+)?) precision=(\d+)$")
_DECIMAL = re.compile(r"^-?\d+(?:\.(\d+))?$")
_LAW = re.compile(r"^  [a-z-]+: (\d+) trials ok$")


class WrongAnswer(Exception):
    """An output the oracle rejects."""


def check_eval(request, code, stdout):
    """Check one `streaks eval` outcome; raise WrongAnswer if it is wrong.

    Exit 1 is a failure, not a wrong answer, except that a request whose
    divisor is exactly zero must end in exit 1 and never print a number.
    """
    if request.value is None:
        if code != 1:
            raise WrongAnswer("exact zero divisor gave exit %r: %r" % (code, stdout))
        return
    if code == 1:
        return
    if code != 0:
        raise WrongAnswer("exit %r" % (code,))
    lines = stdout.splitlines()
    if len(lines) != 2:
        raise WrongAnswer("expected a decimal and a certificate, got %r" % stdout)
    text, cert = lines
    m = _CERT.match(cert)
    if m is None:
        raise WrongAnswer("malformed certificate %r" % cert)
    lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
    v, ulp = request.value, Fraction(1, 10**request.digits)
    if not lo <= v <= hi:
        raise WrongAnswer("certificate [%s, %s] misses %s" % (lo, hi, v))
    if hi - lo > ulp:
        raise WrongAnswer("certificate width %s above 10^-%d" % (hi - lo, request.digits))
    d = _DECIMAL.match(text)
    if d is None or len(d.group(1) or "") != request.digits:
        raise WrongAnswer("malformed decimal %r" % text)
    if abs(Fraction(text) - v) > 2 * ulp:
        raise WrongAnswer("decimal %s is further than 2*10^-%d from %s" % (text, request.digits, v))


def check_laws(request, code, text):
    """Check one law-suite report: the suite and every law in it pass, and
    no law reports more trials than were requested (a law may run fewer
    when its precondition fails)."""
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != "streak %s: pass" % request.name:
        raise WrongAnswer("law suite did not pass: %r" % text[:500])
    for line in lines[1:]:
        m = _LAW.match(line)
        if m is None or int(m.group(1)) > request.trials:
            raise WrongAnswer("unexpected law line %r" % line)
