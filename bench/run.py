"""The streaks benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload eval-interval --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

A run imports the library from `src/` next to this directory, generates
the workload's requests from the seed, and sends them one at a time
through the library's own entry point, `streaks.cli.main`, with stdout
and stderr captured.  It repeats the whole request list (a pass) while
another pass is expected to end within `--seconds`, checks every output
against the oracle, and prints the metrics, each with its unit.  Times
are scaled by a reference job timed alongside them (see REFERENCE_S).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one
untraced pass, times single layer calls (see unitcost.py), then runs one
pass with every layer wrapped (see tracing.py).  It prints every
per-layer metric and the tracing overhead, and puts in the result line
those of LAYER_RESULT, which are never 0 on any workload.
`--workload all` runs each workload in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracle
import tracing
import unitcost
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 21
# A shared machine's speed drifts by 15-50% over minutes (see README.md),
# so every reported time is scaled by REFERENCE_S over the time of
# reference_job() measured around it.  REFERENCE_S is that job's usual
# time on a shared 2-vCPU Intel Xeon with Python 3.11.7, so scaled times
# read as seconds on that machine at its usual speed.
REFERENCE_S = 0.00075

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_ms_p50": "ms",
    "req_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}

# the per-layer metrics of the result line: the traced totals that every
# workload makes positive, and the per-call costs, which every traced run
# measures; a layer that a workload never enters (core on eval-*, cauchy
# on check-laws) reads 0 there, so its totals appear only in the lines
# printed above the result
LAYER_RESULT = (
    "rational.ops", "rational.self_s", "rational.ns_per_op",
    "real.refine_calls", "real.refine_raw_calls", "real.refine_hit_ratio",
    "real.max_precision", "real.endpoint_bits_max", "real.self_s", "real.apartness_s",
    "cli.self_s", "python.gc_pause_s", "trace.overhead_ratio",
    "unit.rational_op_ns", "unit.strict_lt_ns", "unit.locate_ns",
    "unit.reflections_probe_ns", "unit.onesided_probe_ns", "unit.modulus_query_ns",
    "unit.parse_ns",
) + tuple("unit.raw_refine_ns." + op for op in tracing.RAW_OPS)


def reference_job():
    """A fixed pure-Python job, independent of the library: exact
    fraction sums with growing big-int denominators, and a dict of them."""
    total, memo = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction(1, i)
        memo[i] = total
    return total


def time_reference():
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


def fresh_import():
    """Import `streaks` from SRC as if for the first time."""
    for name in [n for n in sys.modules if n == "streaks" or n.startswith("streaks.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    import streaks  # noqa: F401  (imports every layer)

    cli = importlib.import_module("streaks.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("streaks was imported from %s, not %s" % (cli.__file__, SRC))
    return cli, importlib.import_module("streaks.registry")


def setup(workload, seed, tracer=None):
    """Import the library, generate the requests and resolve the registry
    names they use; returns (cli module, requests).  With a tracer, the
    wrappers go in right after the import, so the registry lookups and
    the handles they build are traced."""
    cli, registry = fresh_import()
    if tracer is not None:
        tracing.install(tracer)
    requests = workloads.GENERATORS[workload](seed)
    for name in workloads.streak_names(requests):
        try:
            registry.get_streak(name)
        except registry.UnknownStreak:
            pass  # counted as a failure when the request runs
    return cli, requests


def run_request(cli, request):
    """Send one request; returns (seconds, exit code, stdout, stderr, crash)."""
    out, err = io.StringIO(), io.StringIO()
    argv = request.argv()
    crash = None
    # each request starts from a collected heap, as in a fresh CLI process,
    # so its collector pauses do not depend on the requests before it
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash outside the CLI's exit codes: data
            code, crash = None, exc
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), crash


def outcome_class(request, code, stderr, crash):
    """None for a result; otherwise the failure class for the tally."""
    if crash is not None:
        return type(crash).__name__
    if code == 0:
        return None
    if isinstance(request, workloads.CheckRequest) and code == 2 and stderr.startswith("unknown streak"):
        return "UnknownStreak"
    if isinstance(request, workloads.EvalRequest) and code == 1:
        head = stderr.split(":", 2)
        return head[1].strip() if len(head) == 3 else "exit1"
    return None  # left to the oracle


def run_pass(cli, requests, on_request=None):
    """One closed-loop pass over the requests; returns (latencies, speed
    scale, failures by request index, crashes, digest).  Multiply a
    latency by the scale to get reference seconds.  Raises WrongAnswer."""
    digest = hashlib.sha256()
    latencies, references, failures, crashes = [], [], {}, 0
    for i, request in enumerate(requests):
        if on_request is not None:
            on_request(i)
        references.append(time_reference())
        elapsed, code, stdout, stderr, crash = run_request(cli, request)
        latencies.append(elapsed)
        failure = outcome_class(request, code, stderr, crash)
        if crash is not None:
            crashes += 1
        elif isinstance(request, workloads.EvalRequest):
            oracle.check_eval(request, code, stdout)
        elif failure is None:
            oracle.check_laws(request, code, stdout)
        if failure is not None:
            failures[i] = failure
        for part in (request.label(), repr(code), stdout, stderr, repr(crash)):
            digest.update(part.encode())
            digest.update(b"\0")
    scale = REFERENCE_S / statistics.median(references)
    return latencies, scale, failures, crashes, digest.hexdigest()


def tally(failures):
    return dict(sorted(collections.Counter(failures.values()).items()))


def measure(workload, seed, seconds):
    """The untraced run: end-to-end metrics."""
    setups = []
    for _ in range(SETUP_REPEATS):
        reference = time_reference()
        start = time.perf_counter()
        cli, requests = setup(workload, seed)
        setups.append((time.perf_counter() - start) * REFERENCE_S / reference)

    # passes run while another one is expected to end within the time
    # given, so every run of a workload makes about the same number
    passes, scales, first = [], [], None
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        latencies, scale, failures, crashes, digest = run_pass(cli, requests)
        if first is None:
            first = (failures, crashes, digest)
        elif digest != first[2]:
            raise oracle.WrongAnswer("identical requests printed different bytes in pass %d" % len(passes))
        passes.append([latency * scale for latency in latencies])
        scales.append(scale)

    failures, crashes, digest = first
    per_request = [statistics.median(lat) for lat in zip(*passes)]
    metrics = {
        "setup_s": statistics.median(setups),
        # one pass with every request at its median over the passes
        "wall_s": sum(per_request),
        "req_ms_p50": 1e3 * statistics.median(per_request),
        "req_ms_p90": 1e3 * statistics.quantiles(per_request, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": len(failures) / len(requests),
    }
    report = {
        "requests per pass": len(requests),
        "passes": len(passes),
        "speed scale per pass": " ".join("%.3f" % x for x in scales),
        "failures by class": tally(failures),
        "crashes": crashes,
        "digest sha256": digest,
    }
    result = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return result, report, len(requests) * len(passes), crashes * len(passes)


def trace(workload, seed):
    """The traced run: one untraced pass, the per-call costs, then one
    traced pass."""
    cli, requests = setup(workload, seed)
    latencies, scale, _, _, digest = run_pass(cli, requests)
    untraced = sum(latencies) * scale
    unit_costs = unitcost.measure(seed)

    tracer = tracing.Tracer()
    cli, requests = setup(workload, seed, tracer)

    def on_request(i):
        tracer.request = i

    tracer.start_gc_timing()
    try:
        latencies, scale, failures, crashes, traced_digest = run_pass(cli, requests, on_request)
    finally:
        tracer.stop_gc_timing()
    if traced_digest != digest:
        raise oracle.WrongAnswer("tracing changed the printed bytes")

    metrics = tracer.metrics()
    per_name = {}
    for request, elapsed in zip(requests, latencies):
        if isinstance(request, workloads.CheckRequest):
            per_name[request.name] = per_name.get(request.name, 0.0) + elapsed
    for name in workloads.CHECK_NAMES + workloads.README_ONLY_NAMES:
        metrics["check.%s_s" % name.replace(":", "-")] = (per_name.get(name, 0.0), "s")
    metrics["trace.overhead_ratio"] = (sum(latencies) * scale / untraced, "ratio")
    metrics.update(unit_costs)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (workload, seed))
    tracer.dump(path, {"workload": workload, "seed": seed, "requests": [r.label() for r in requests]})
    report = {
        "requests per pass": len(requests),
        "failures by class": tally(failures),
        "crashes": crashes,
        "digest sha256": digest,
        "spans written to": os.path.relpath(path, ROOT),
    }
    return metrics, report, 2 * len(requests), 2 * crashes


def print_result(workload, seed, metrics, report, attempted, failed, result_names):
    """Print every metric, then the result line with those of result_names."""
    print("workload %s seed %d" % (workload, seed))
    for key, value in report.items():
        print("  %s: %s" % (key, value))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
                    for name in result_names},
    }))


def run_all(args):
    """Each workload in a fresh process; prints every metric per workload."""
    merged, attempted, failed = {}, 0, 0
    for workload in workloads.GENERATORS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print("workload %s exited with %d" % (workload, child.returncode), file=sys.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged["%s.%s" % (workload, name)] = metric
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "streaks", "__init__.py")):
        print("error: no streaks sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.trace:
            metrics, report, attempted, failed = trace(args.workload, args.seed)
            result_names = LAYER_RESULT
        else:
            metrics, report, attempted, failed = measure(args.workload, args.seed, args.seconds)
            result_names = tuple(END_TO_END_UNITS)
    except oracle.WrongAnswer as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        return 1
    print_result(args.workload, args.seed, metrics, report, attempted, failed, result_names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
