"""The tracing contract of the benchmark harness: `bench/tracing.py` wraps
the library's constructors and layer functions from outside, and every
command must print the same bytes with the wrappers in place.

The check runs in a subprocess, because installing the tracer patches
the imported `streaks` modules for good.  It reads `bench/` and changes
nothing there.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

COMMANDS = [
    ["eval", "geom2*geom2 - lim(geom)", "--digits", "5"],
    # the one-node reciprocal of a positive, then of two negatives
    ["eval", "recip(1/3 + 2/7)", "--digits", "6"],
    ["eval", "7/(0-2) + recip(0-geom2)", "--digits", "6"],
    # shared subtrees still build through the `cli` globals the tracer patches
    ["eval", "geom2*geom2*geom2 - min(geom2, 3) + recip(geom2)", "--digits", "8"],
    ["check", "nat", "ring:nat", "lower", "--trials", "5"],
    # law suites of semidecidable streaks compare through elements_apart
    ["check", "ring:real", "lower", "--trials", "5"],
]

SCRIPT = r"""
import contextlib, io, json, sys

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import streaks  # imports every layer the tracer wraps
from streaks import cli, registry
import tracing

def run_all():
    results = []
    for argv in json.loads(sys.argv[3]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append([code, out.getvalue()])
    return results

plain = run_all()
tracer = tracing.Tracer()
tracing.install(tracer)
registry._cache.clear()  # rebuild the handles under the wrappers
traced = run_all()
calls = {"%s.%s" % key: record[0] for key, record in tracer.stats.items()}
print(json.dumps({"plain": plain, "traced": traced, "calls": calls}))
"""


def test_traced_commands_print_the_same_bytes():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps(COMMANDS)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert [code for code, _ in report["plain"]] == [0] * len(COMMANDS)
    assert report["traced"] == report["plain"]
    for span in (
        "cauchy.init", "cauchy.modulus_query", "onesided.approx", "core.axiom_suite",
        "core.strict_lt", "core.elements_apart", "real.real_mul_total", "real.real_recip",
    ):
        assert report["calls"].get(span, 0) > 0, span


def test_traced_law_suites_print_the_same_bytes():
    # the tracer wraps RefinedReal.refine and the handle probes, so a
    # change to their slots or probe loops shows here within a second
    command = ["check", "real", "upper", "--trials", "5"]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps([command])],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["plain"][0][0] == 0
    assert report["traced"] == report["plain"]
    for span in ("real.refine", "real.probe", "onesided.probe"):
        assert report["calls"].get(span, 0) > 0, span


def test_traced_reflection_towers_print_the_same_bytes():
    # the registry looks each lift up when it builds a handle, so the
    # traced lifts run and show as spans; a direct reference would keep
    # the bytes equal but drop the spans
    command = ["check", "field:ring:nat", "dyadic", "--trials", "5"]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps([command])],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["plain"][0][0] == 0
    assert report["traced"] == report["plain"]
    for span in ("reflections.ring_lift", "reflections.field_lift", "reflections.halved_lift"):
        assert report["calls"].get(span, 0) > 0, span
