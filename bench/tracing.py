"""Per-layer tracing for a benchmark run, done entirely from outside the
library.

`install` replaces the public functions of each `streaks` module, in
every `streaks` module that holds a reference to them (so `cli`, which
binds `real_*`, `cs_limit` and `cs_to_real` at import, is patched too),
and wraps the methods and per-instance callables of the library's
classes.  Each wrapper opens a span tagged with its layer.  A layer's
self time is the duration of its spans minus the time their child spans
cover.  Fine spans (one per `Rational` op, modulus query, probe, ...)
are folded into per-(layer, op) totals as they close; coarse spans (one
per request, parse, eval, law suite, registry lookup, limit) are kept in
memory and written out when the run ends.

The untraced runs that give the end-to-end numbers never call
`install`, so they execute the library unmodified.
"""

from __future__ import annotations

import gc
import json
import sys
import time

LAYER_OF_MODULE = {
    "streaks.rational": "rational",
    "streaks.core": "core",
    "streaks.reflections": "reflections",
    "streaks.cauchy": "cauchy",
    "streaks.real": "real",
    "streaks.onesided": "onesided",
    "streaks.registry": "registry",
    "streaks.cli": "cli",
}

# public functions wrapped per module; a name listed in TAGS is a real
# constructor, and RefinedReal objects built inside it time their raw
# (memo-miss) refinements under real.raw_ns.<tag>
FUNCTIONS = {
    "rational": ("rat_arith", "rat_cmp", "rat_decimal", "parse_rational"),
    "core": (
        "strict_lt", "locate", "archimedean_witness", "interpolate", "nat_scale",
        "dense_substreak", "dense_generate", "elements_apart", "axiom_suite",
        "morphism_check",
    ),
    "reflections": (
        "scale_value", "mul_total_nonneg", "pos_part", "arch_member", "arch_lt",
        "subset_lt_exists_forall", "subset_lt_forall_exists", "finset_meet_lift",
        "positive_representative", "finset_join_lift", "ring_lift", "field_lift",
        "halved_lift", "approx_eq",
    ),
    "cauchy": (
        "cs_validate", "cs_lt", "cs_add", "cs_neg", "cs_positive", "cs_mul",
        "cs_limit", "cs_to_real",
    ),
    "real": (
        "real_from_rational", "real_add", "real_neg", "real_sub", "real_scale",
        "real_mul_pos", "real_mul_total", "real_inf", "real_sup", "real_abs",
        "real_dist", "real_recip", "real_cmp_rat", "derive_apartness", "real_embed",
        "real_to_decimal", "real_streak_handle",
    ),
    "onesided": (
        "lower_cmp_rat", "upper_cmp_rat", "lower_add", "upper_add", "lower_mul_pos",
        "upper_mul_pos", "lower_sup", "upper_inf", "real_to_pair", "pair_to_real",
        "lower_streak_handle", "upper_streak_handle",
    ),
    "registry": ("get_streak", "registered_names"),
    "cli": ("main", "parse_expr", "eval_expr", "check_streaks"),
}
TAGS = {
    "real_from_rational": "from_rational", "real_add": "add", "real_sub": "sub",
    "real_neg": "neg", "real_scale": "scale", "real_mul_pos": "mul_pos",
    "real_recip": "recip", "real_inf": "inf", "real_sup": "sup",
    "real_embed": "embed", "cs_to_real": "cauchy", "pair_to_real": "pair",
}
RAW_OPS = ("from_rational", "add", "sub", "neg", "scale", "mul_pos", "recip", "inf", "sup", "cauchy")
KEPT = {
    "main", "parse_expr", "eval_expr", "check_streaks", "get_streak", "axiom_suite",
    "morphism_check", "real_to_decimal", "derive_apartness", "real_mul_total",
    "cs_limit", "cs_to_real",
}
RATIONAL_OPS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__", "__eq__",
    "__lt__", "__le__", "__gt__", "__ge__",
)
HANDLE_CALLABLES = ("below", "above", "add", "mul_pos", "cmp", "eq", "sample", "interpolate")

# a stats record: [calls, self_ns, outermost_ns, open_depth, outermost_calls]
CALLS, SELF_NS, OUTER_NS, DEPTH, OUTER_CALLS = range(5)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [child_ns, layer, kept span index]
        self.stats = {}  # (layer, op) -> stats record
        self.spans = []  # kept spans: [request, "layer.op", start_ns, end_ns, parent]
        self.tags = []  # open real constructors, innermost last
        self.request = None
        self.max_precision = 0
        self.endpoint_bits_max = 0
        self.gc_ns = 0
        self._gc_start = None

    def wrap(self, layer, op, fn, keep=False, tag=None, after=None):
        """Wrap fn in a span of (layer, op)."""
        stat = self.stats.setdefault((layer, op), [0, 0, 0, 0, 0])
        stack, spans, tags, clock = self.stack, self.spans, self.tags, time.perf_counter_ns
        name = "%s.%s" % (layer, op)
        rational = layer == "rational"

        def traced(*args, **kwargs):
            if rational and stack and stack[-1][1] == "rational":
                # work inside one Rational op is part of that op
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            index = parent
            if keep:
                index = len(spans)
                spans.append([self.request, name, 0, 0, parent])
            frame = [0, layer, index]
            stack.append(frame)
            if tag is not None:
                tags.append(tag)
            outermost = stat[DEPTH] == 0
            stat[DEPTH] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[DEPTH] -= 1
                if tag is not None:
                    tags.pop()
                stack.pop()
                stat[CALLS] += 1
                stat[SELF_NS] += elapsed - frame[0]
                if outermost:
                    stat[OUTER_NS] += elapsed
                    stat[OUTER_CALLS] += 1
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans[index][2:4] = [start, start + elapsed]
            if after is not None:
                after(result)
            return result

        traced.traced_by_bench = True
        return traced

    # -- hooks for values the library produces ------------------------------

    def _endpoints(self, interval):
        for e in interval:
            bits = e.num.bit_length() + e.den.bit_length() if hasattr(e, "den") else int(e).bit_length()
            if bits > self.endpoint_bits_max:
                self.endpoint_bits_max = bits

    def _gc_callback(self, phase, info):
        # only pauses inside a request count; the runner's own collection
        # between requests happens with no span open
        if phase == "start":
            self._gc_start = time.perf_counter_ns() if self.stack else None
        elif self._gc_start is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def start_gc_timing(self):
        gc.callbacks.append(self._gc_callback)

    def stop_gc_timing(self):
        gc.callbacks.remove(self._gc_callback)

    # -- results ------------------------------------------------------------

    def _sum(self, field, layer=None, op=None):
        return sum(
            rec[field]
            for (lay, o), rec in self.stats.items()
            if (layer is None or lay == layer) and (op is None or o == op)
        )

    def _get(self, layer, op, field):
        rec = self.stats.get((layer, op))
        return rec[field] if rec else 0

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        s = lambda ns: ns / 1e9
        ratio = lambda a, b: a / b if b else 0.0
        m = {}
        ops = self._sum(CALLS, "rational")
        m["rational.ops"] = (ops, "count")
        m["rational.self_s"] = (s(self._sum(SELF_NS, "rational")), "s")
        m["rational.ns_per_op"] = (ratio(self._sum(SELF_NS, "rational"), ops), "ns")

        refines = self._get("real", "refine", CALLS)
        raws = sum(rec[CALLS] for (_, op), rec in self.stats.items() if op.startswith("raw."))
        m["real.refine_calls"] = (refines, "count")
        m["real.refine_raw_calls"] = (raws, "count")
        m["real.refine_hit_ratio"] = (1 - ratio(raws, refines) if refines else 0.0, "ratio")
        m["real.max_precision"] = (self.max_precision, "count")
        m["real.endpoint_bits_max"] = (self.endpoint_bits_max, "bits")
        m["real.self_s"] = (s(self._sum(SELF_NS, "real")), "s")
        m["real.apartness_s"] = (s(self._get("real", "derive_apartness", OUTER_NS)), "s")
        m["real.mul_total_s"] = (s(self._get("real", "real_mul_total", OUTER_NS)), "s")
        m["real.to_decimal_s"] = (s(self._get("real", "real_to_decimal", OUTER_NS)), "s")
        for op in RAW_OPS:
            key = ("real", "raw." + op)
            m["real.raw_ns." + op] = (ratio(self._get(*key, SELF_NS), self._get(*key, CALLS)), "ns")

        m["cauchy.modulus_calls"] = (self._get("cauchy", "modulus", CALLS), "count")
        m["cauchy.term_calls"] = (self._get("cauchy", "term", CALLS), "count")
        m["cauchy.reals_built"] = (self._get("cauchy", "init", CALLS), "count")
        m["cauchy.self_s"] = (s(self._sum(SELF_NS, "cauchy")), "s")
        m["cauchy.ns_per_modulus"] = (
            ratio(self._get("cauchy", "modulus_query", OUTER_NS),
                  self._get("cauchy", "modulus_query", OUTER_CALLS)),
            "ns",
        )

        m["core.strict_lt_calls"] = (self._get("core", "strict_lt", CALLS), "count")
        m["core.locate_calls"] = (self._get("core", "locate", CALLS), "count")
        m["core.probe_calls"] = (self._sum(CALLS, op="probe"), "count")
        m["core.self_s"] = (s(self._sum(SELF_NS, "core")), "s")
        m["reflections.probe_calls"] = (self._get("reflections", "probe", CALLS), "count")
        m["reflections.self_s"] = (s(self._sum(SELF_NS, "reflections")), "s")
        m["onesided.cmp_calls"] = (
            self._get("onesided", "lower_cmp_rat", CALLS) + self._get("onesided", "upper_cmp_rat", CALLS),
            "count",
        )
        m["onesided.approx_calls"] = (self._get("onesided", "approx", CALLS), "count")
        m["onesided.self_s"] = (s(self._sum(SELF_NS, "onesided")), "s")
        m["registry.get_streak_s"] = (s(self._get("registry", "get_streak", OUTER_NS)), "s")
        m["cli.parse_s"] = (s(self._get("cli", "parse_expr", OUTER_NS)), "s")
        m["cli.eval_s"] = (s(self._get("cli", "eval_expr", OUTER_NS)), "s")
        m["cli.self_s"] = (s(self._sum(SELF_NS, "cli")), "s")
        m["python.gc_pause_s"] = (s(self.gc_ns), "s")
        return m

    def dump(self, path, header):
        with open(path, "w") as fh:
            json.dump(
                dict(
                    header,
                    fields=["request", "span", "start_ns", "end_ns", "parent"],
                    spans=self.spans,
                    totals={
                        "%s.%s" % key: {"calls": r[CALLS], "self_ns": r[SELF_NS], "outermost_ns": r[OUTER_NS]}
                        for key, r in sorted(self.stats.items())
                    },
                ),
                fh,
            )


def install(tracer):
    """Wrap the layer functions of the imported `streaks` modules."""
    modules = {layer: sys.modules[name] for name, layer in LAYER_OF_MODULE.items()}
    replace = {}  # id(original) -> (original, wrapper)
    for layer, names in FUNCTIONS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            wrapper = tracer.wrap(layer, name, fn, keep=name in KEPT, tag=TAGS.get(name))
            replace[id(fn)] = (fn, wrapper)

    real = modules["real"]
    refined_real = real.RefinedReal

    def refined_real_factory(raw):
        tag = tracer.tags[-1] if tracer.tags else "other"
        return refined_real(tracer.wrap("real", "raw." + tag, raw, after=tracer._endpoints))

    replace[id(refined_real)] = (refined_real, refined_real_factory)

    for name, module in list(sys.modules.items()):
        if name != "streaks" and not name.startswith("streaks."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    rational = modules["rational"].Rational
    for op in RATIONAL_OPS:
        setattr(rational, op, tracer.wrap("rational", op, getattr(rational, op)))

    refine = refined_real.refine

    def refine_tracking_precision(self, n):
        if int(n) > tracer.max_precision:
            tracer.max_precision = int(n)
        return refine(self, n)

    refined_real.refine = tracer.wrap("real", "refine", refine_tracking_precision)

    cauchy_real = modules["cauchy"].CauchyReal
    cauchy_init = cauchy_real.__init__

    def cauchy_real_init(self, term, modulus, monotone=False):
        cauchy_init(
            self,
            tracer.wrap("cauchy", "term", term),
            tracer.wrap("cauchy", "modulus", modulus),
            monotone,
        )
        self.term = tracer.wrap("cauchy", "term_query", self.term)
        self.modulus = tracer.wrap("cauchy", "modulus_query", self.modulus)

    cauchy_real.__init__ = tracer.wrap("cauchy", "init", cauchy_real_init)

    for cls in (modules["onesided"].LowerReal, modules["onesided"].UpperReal):
        _wrap_stream_init(tracer, cls)

    handle = modules["core"].StreakHandle
    handle_init = handle.__init__

    def streak_handle_init(self, *args, **kwargs):
        handle_init(self, *args, **kwargs)
        for attr in HANDLE_CALLABLES:
            fn = getattr(self, attr)
            if fn is None or getattr(fn, "traced_by_bench", False):
                continue
            layer = LAYER_OF_MODULE.get(getattr(fn, "__module__", None), "other")
            op = "probe" if attr in ("below", "above") else attr
            setattr(self, attr, tracer.wrap(layer, op, fn))

    handle.__init__ = streak_handle_init


def _wrap_stream_init(tracer, cls):
    init = cls.__init__

    def stream_init(self, stream, monotone=False):
        init(self, stream, monotone)
        self.approx = tracer.wrap("onesided", "approx", self.approx)

    cls.__init__ = stream_init
