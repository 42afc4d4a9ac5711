"""Per-call costs of single layer operations, on fixed inputs.

The list is the one in ROADMAP aim 1: one `Rational` op, one `locate` /
`strict_lt` call, one raw (memo-miss) refine per real operator, one
Cauchy modulus query and one one-sided probe, plus one reflected-streak
probe and one parse.  Each probe builds fresh objects for every
repetition, so memo tables start empty, and times only the call it
names.  A real operator's raw refine is timed on a node over fresh
rational leaves, so it includes the leaves' own (trivial) refines.  A
cost is the median over the repetitions, in measured (unscaled)
nanoseconds.

These run on the untraced library in every traced run, whatever the
workload, so each layer has a cost figure even on a workload that never
enters it.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time

REPEATS = 41
RATIONAL_BATCH = 200  # Rational ops per timed batch; one op is below the clock's grain
PRECISION = 1000  # precision asked of each raw refine
MODULUS_N = 1000  # the modulus query asks for M(n) at this n on a fresh lim(geom)
BUDGET = 64
PARSED = "recip(1/3 + recip(2/7 + geom2)) - min(geom2, 5/3) * abs(0 - 7/4)"


def _median_ns(make, call, repeats=REPEATS):
    """Median time of call(obj) over fresh objects from make()."""
    clock, samples = time.perf_counter_ns, []
    for _ in range(repeats):
        obj = make()
        start = clock()
        call(obj)
        samples.append(clock() - start)
    return float(statistics.median(samples))


def measure(seed):
    """{name: (ns, "ns")} for every probe; operands are drawn from seed."""
    mod = {name: importlib.import_module("streaks." + name)
           for name in ("rational", "real", "cauchy", "core", "onesided", "registry", "cli")}
    Rational = mod["rational"].Rational
    real, core, onesided = mod["real"], mod["core"], mod["onesided"]
    registry, cli, cauchy = mod["registry"], mod["cli"], mod["cauchy"]
    rng = random.Random("unitcost:%d" % seed)

    costs = {}
    pairs = [(Rational(rng.randint(1, 1 << 30), rng.randint(1, 1 << 30)),
              Rational(rng.randint(1, 1 << 30), rng.randint(1, 1 << 30)))
             for _ in range(RATIONAL_BATCH // 4)]

    def rational_batch(_):
        for a, b in pairs:
            a + b
            a * b
            a - b
            a < b

    costs["unit.rational_op_ns"] = _median_ns(lambda: None, rational_batch) / RATIONAL_BATCH

    rat = registry.get_streak("rat")
    q = Rational(rng.randint(1, 99), rng.randint(100, 199))
    near = q + Rational(1, 1 << 12)
    costs["unit.strict_lt_ns"] = _median_ns(
        lambda: (rat.element(q), rat.element(near)),
        lambda xy: core.strict_lt(xy[0], xy[1], BUDGET))
    costs["unit.locate_ns"] = _median_ns(
        lambda: rat.element(q), lambda x: core.locate(x, BUDGET, BUDGET))

    field = registry.get_streak("field:rat")
    costs["unit.reflections_probe_ns"] = _median_ns(
        lambda: field.element(field.sample(rng)),
        lambda x: core.below(x, q, BUDGET))

    top = Rational(2) - Rational(1, 1 << 20)
    costs["unit.onesided_probe_ns"] = _median_ns(
        lambda: onesided.LowerReal(lambda k: Rational(2) - Rational(1, 1 << k)),
        lambda x: onesided.lower_cmp_rat(top, x, BUDGET))

    family, outer = cli.FAMILIES["geom"]
    costs["unit.modulus_query_ns"] = _median_ns(
        lambda: cauchy.cs_limit(family, outer), lambda x: x.modulus(MODULUS_N))

    costs["unit.parse_ns"] = _median_ns(lambda: None, lambda _: cli.parse_expr(PARSED))

    a = Rational(rng.randint(1, 9), rng.randint(10, 19))
    b = Rational(rng.randint(1, 9), rng.randint(2, 9))
    leaf = real.real_from_rational

    def positive_pair():
        x, y = leaf(a), leaf(b)
        return x, y, real.derive_apartness(x, BUDGET), real.derive_apartness(y, BUDGET)

    def positive_leaf():
        x = leaf(a)
        return x, real.derive_apartness(x, BUDGET)

    nodes = {
        "from_rational": lambda: leaf(a),
        "add": lambda: real.real_add(leaf(a), leaf(b)),
        "sub": lambda: real.real_sub(leaf(a), leaf(b)),
        "neg": lambda: real.real_neg(leaf(a)),
        "scale": lambda: real.real_scale(b, leaf(a)),
        "mul_pos": lambda: real.real_mul_pos(*positive_pair()),
        "recip": lambda: real.real_recip(*positive_leaf()),
        "inf": lambda: real.real_inf(leaf(a), leaf(b)),
        "sup": lambda: real.real_sup(leaf(a), leaf(b)),
        "cauchy": cli.CONSTANTS["geom2"],
    }
    for op, make in nodes.items():
        costs["unit.raw_refine_ns." + op] = _median_ns(make, lambda x: x.refine(PRECISION))
    return {name: (ns, "ns") for name, ns in costs.items()}
