"""End-to-end acceptance checks: law suites, oracle agreement, and
certified evaluation, each driven by a fixed seed."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from streaks.cauchy import (
    CauchyReal,
    cs_add,
    cs_limit,
    cs_mul,
    cs_to_real,
    cs_validate,
)
from streaks.core import (
    NO,
    YES,
    Element,
    Order,
    Sampler,
    axiom_suite,
    dense_generate,
)
from streaks.onesided import LowerReal, lower_cmp_rat, lower_sup
from streaks.rational import Rational
from streaks.real import (
    real_abs,
    real_add,
    real_cmp_rat,
    real_embed,
    real_from_rational,
    real_inf,
    real_mul_total,
    real_neg,
    real_sub,
    real_sup,
)
from streaks.reflections import (
    FiniteSubset,
    subset_lt_exists_forall,
    subset_lt_forall_exists,
)
from streaks.registry import get_streak
from test_real import _shifted_product


def q(*args):
    return Rational(*args)


def to_fraction(r):
    return Fraction(r.num, r.den)


def test_criterion_01_axiom_suites():
    """Every registered decidable streak satisfies the full law suite."""
    names = ["nat", "int", "rat", "dyadic", "finmeet:rat", "finjoin:rat"]
    start = time.monotonic()
    for name in names:
        report = axiom_suite(get_streak(name), Sampler(42), 500)
        assert report.passed, report.summary()
    assert time.monotonic() - start < 30.0


def test_criterion_02_oracle_isomorphisms():
    """The difference and fraction towers over the naturals agree with the
    built-in integer and rational arithmetic."""
    ring = get_streak("ring:nat")
    rng = random.Random(7)

    def fd_int(v):
        return int(v.pos) - int(v.neg)

    for _ in range(1000):
        u = ring.sample(rng)
        v = ring.sample(rng)
        a, b = fd_int(u), fd_int(v)
        assert ring.cmp(u, v) == (a > b) - (a < b)
        assert fd_int(ring.add(u, v)) == a + b
        assert fd_int(ring.mul_total(u, v)) == a * b

    field = get_streak("field:ring:nat")

    def fq_fraction(v):
        return Fraction(fd_int(v.num), fd_int(v.den))

    for _ in range(1000):
        u = field.sample(rng)
        v = field.sample(rng)
        a, b = fq_fraction(u), fq_fraction(v)
        assert field.cmp(u, v) == (a > b) - (a < b)
        assert fq_fraction(field.add(u, v)) == a + b
        assert fq_fraction(field.mul_total(u, v)) == a * b


def test_criterion_03_quantifier_swap_exhaustive():
    """Both quantifier forms of the subset order agree on every pair of
    subsets of size <= 4 over a 7-point rational grid."""
    rat = get_streak("rat")
    grid = [q(0), q(1), q(-1), q(1, 2), q(-1, 2), q(3, 2), q(2)]
    subsets = [
        FiniteSubset(list(c))
        for size in (1, 2, 3, 4)
        for c in itertools.combinations(grid, size)
    ]
    checks = 0
    for A in subsets:
        for B in subsets:
            assert subset_lt_exists_forall(rat, A, B) == subset_lt_forall_exists(
                rat, A, B
            )
            checks += 1
    assert checks == len(subsets) ** 2


def _random_cauchy(rng, positive=False):
    base = q(rng.randint(1, 9) if positive else rng.randint(-9, 9))
    raw_slope = rng.randint(-2, 2)
    if positive:
        base = base + q(3)
        raw_slope = abs(raw_slope)
    slope = q(raw_slope)
    term = lambda i: base + slope * q(1, i + 1)
    return CauchyReal(term, lambda n: 3 * n)


def test_criterion_04_constructor_outputs_validate():
    """Every sum, product and limit built from random valid sequences
    satisfies the modulus law on the checked prefix."""
    rng = random.Random(11)
    for _ in range(200):
        kind = rng.choice(("add", "mul", "limit"))
        if kind == "add":
            out = cs_add(_random_cauchy(rng), _random_cauchy(rng))
        elif kind == "mul":
            out = cs_mul(_random_cauchy(rng, positive=True),
                         _random_cauchy(rng, positive=True))
        else:
            anchor = q(rng.randint(-5, 5))
            drift = q(rng.randint(-2, 2))
            fam = lambda i: CauchyReal.constant(anchor + drift * q(1, i + 1))
            out = cs_limit(fam, lambda n: 2 * n)
        violation = cs_validate(out, 32, 256)
        assert violation is None, violation


def test_criterion_05_limit_operator_contract():
    """Limits of constant families coincide with the repeated member, and
    the limit stays within the modulus-law distance of late terms."""
    rng = random.Random(13)
    for _ in range(100):
        x = _random_cauchy(rng)
        lim = cs_limit(lambda i: x, lambda n: 0)
        # never apart from the member
        from streaks.cauchy import cs_lt

        assert cs_lt(lim, x, 32) is Order.UNKNOWN
        r = cs_to_real(lim)
        for n in range(1, 33):
            lo, hi = r.refine(n)
            k = x.modulus(n)
            assert lo - q(1, n) <= x.term(k) <= hi + q(1, n)


_TREE_OPS = ("add", "sub", "neg", "mul", "inf", "sup", "abs")


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        leaf = q(rng.randint(-12, 12), rng.randint(1, 8))
        return ("leaf", leaf)
    op = rng.choice(_TREE_OPS)
    if op in ("neg", "abs"):
        return (op, _random_tree(rng, depth - 1))
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _eval_tree(node):
    kind = node[0]
    if kind == "leaf":
        return real_from_rational(node[1]), to_fraction(node[1])
    if kind in ("neg", "abs"):
        sub_real, sub_exact = _eval_tree(node[1])
        if kind == "neg":
            return real_neg(sub_real), -sub_exact
        return real_abs(sub_real), abs(sub_exact)
    left_real, left_exact = _eval_tree(node[1])
    right_real, right_exact = _eval_tree(node[2])
    if kind == "add":
        return real_add(left_real, right_real), left_exact + right_exact
    if kind == "sub":
        return real_sub(left_real, right_real), left_exact - right_exact
    if kind == "mul":
        return real_mul_total(left_real, right_real), left_exact * right_exact
    if kind == "inf":
        return real_inf(left_real, right_real), min(left_exact, right_exact)
    return real_sup(left_real, right_real), max(left_exact, right_exact)


def test_criterion_06_interval_soundness_on_trees():
    """Every interval emitted for a random rational expression tree
    contains the exact value, meets the width bound, and nests."""
    rng = random.Random(17)
    for _ in range(500):
        tree = _random_tree(rng, rng.randint(1, 5))
        value, exact = _eval_tree(tree)
        prev = None
        for n in range(1, 65):
            lo, hi = value.refine(n)
            assert Fraction(lo.num, lo.den) <= exact <= Fraction(hi.num, hi.den)
            assert hi - lo <= q(2, n)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)


def test_criterion_07_total_multiplication_shift_independence():
    """Different valid shift choices for total multiplication give
    overlapping, never-apart results."""
    rng = random.Random(19)
    for _ in range(200):
        x = real_from_rational(q(rng.randint(-20, 20), rng.randint(1, 9)))
        y = real_from_rational(q(rng.randint(-20, 20), rng.randint(1, 9)))
        m = abs(x.refine(1)[0].num // x.refine(1)[0].den) + 1
        n = abs(y.refine(1)[0].num // y.refine(1)[0].den) + 1
        a = _shifted_product(x, y, m, n)
        b = _shifted_product(x, y, m + 1, n + 2)
        for p in (1, 2, 4, 8, 16, 32):
            alo, ahi = a.refine(p)
            blo, bhi = b.refine(p)
            assert max(alo, blo) <= min(ahi, bhi)
        assert real_cmp_rat(real_sub(a, b), q(0), 32) is Order.UNKNOWN


def test_criterion_08_morphism_uniqueness():
    """The three embeddings of a rational into the reals agree at every
    precision and are never certified apart."""
    rng = random.Random(23)
    rat = get_streak("rat")
    for _ in range(200):
        v = q(rng.randint(-30, 30), rng.randint(1, 12))
        ways = [
            real_from_rational(v),
            real_embed(Element(rat, v), 1 << 14),
            cs_to_real(CauchyReal.constant(v)),
        ]
        for a, b in itertools.combinations(ways, 2):
            for n in range(1, 65):
                alo, ahi = a.refine(n)
                blo, bhi = b.refine(n)
                assert max(alo, blo) <= min(ahi, bhi)
            assert real_cmp_rat(real_sub(a, b), q(0), 16) is Order.UNKNOWN


def test_criterion_09_dense_substreak_generation():
    """The single-generator density search lands inside requested
    intervals, including the worked value 3/8 in (1/4, 1/2)."""
    z = q(-1, 2)
    assert dense_generate(z, q(1, 4), q(1, 2), 1 << 12).value == q(3, 8)
    rng = random.Random(29)
    for _ in range(100):
        a = q(rng.randint(-200, 200), rng.randint(1, 50))
        width = q(rng.randint(1, 100), 100)  # at least 1/100 wide
        got = dense_generate(z, a, a + width, 1 << 16).value
        assert a < got < a + width


def test_criterion_10_one_sided_suprema():
    """The supremum of the family 1 - 1/(k+1) answers YES exactly for the
    probes below 1 within budget 10^4."""
    sup = lower_sup(lambda k: LowerReal.from_rational(q(1) - q(1, k + 1)))
    budget = 10**4
    below_one = [q(1) - q(1, j + 2) for j in range(25)] + [
        q(j, 25) - q(1, 3) for j in range(25)
    ]
    at_or_above = [q(1) + q(j, 25) for j in range(50)]
    assert len(below_one) == len(at_or_above) == 50
    for probe in below_one:
        assert probe < q(1)
        assert lower_cmp_rat(probe, sup, budget) is YES
    for probe in at_or_above:
        assert lower_cmp_rat(probe, sup, budget) is NO


def test_criterion_11_cli_determinism_and_certificate(capsys):
    """The evaluation command prints a fixed certified decimal."""
    from streaks.cli import main

    outputs = []
    for _ in range(2):
        assert main(["eval", "1/3 + 1/6", "--digits", "6"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == "0.500000"
    cert = lines[1]
    assert cert.startswith("interval lo=")
    parts = dict(field.split("=") for field in cert.split()[1:])
    from streaks.rational import parse_rational

    width = parse_rational(parts["hi"]) - parse_rational(parts["lo"])
    assert width <= q(1, 10**6)
