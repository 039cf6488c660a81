"""Benchmark of logcouple: the probe, count and cli workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload probe --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout, never from an
installed copy.  Set-up (import, seeded inputs, cli input files, warm-up)
is repeated and timed; then whole rounds of the workload's queries run
one after another on one thread, each timed, until ``--seconds`` have
passed and at least three rounds are done.  A query's latency is the
fastest of its runs; p50 and p90 are taken over the queries of a round
(at least 100, so at least ten lie beyond p90), and the throughput is the
number of queries in a round over the sum of their latencies.  Every answer
is checked against an oracle afterwards (see ``oracles.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run ignores ``--seconds``: each query runs once plain and once with span
wrappers around the public functions of every layer (the pair gives
``trace.overhead_ratio``), then one round runs under cProfile for the
element counts, and the run reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25
# Every query runs in at least three rounds; its latency is the fastest of
# its runs, and the throughput is derived from those latencies.  On a shared
# 2-vCPU virtual machine, speed was measured to swing by up to 2x between
# periods lasting from seconds to minutes, so a median over all runs follows
# whichever period held most of the run, while the fastest of runs spread
# over the run is rarely from a slow period.
MIN_ROUNDS = 3
MODULES = ("element", "psifun", "quotient", "sets", "terms", "gen", "identities", "cli")


def repo_root() -> str:
    return os.path.dirname(BENCH_DIR)


def load_library(src: str) -> types.SimpleNamespace:
    """Import logcouple afresh from ``src`` and return its modules."""
    for name in [n for n in sys.modules if n == "logcouple" or n.startswith("logcouple.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("logcouple")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise ImportError(f"logcouple was imported from {package.__file__}, not from {src}")
    lib = types.SimpleNamespace(modules=[package])
    for name in MODULES:
        module = importlib.import_module(f"logcouple.{name}")
        setattr(lib, name, module)
        lib.modules.append(module)
    return lib


def set_up(workload: str, seed: int, src: str, workdir: str):
    start = time.perf_counter()
    lib = load_library(src)
    queries = workloads.BUILDERS[workload](lib, seed, workdir)
    for q in queries:
        if q.warm:
            q.call()
    return time.perf_counter() - start, lib, queries


class Answers:
    """The first answer of each query, and how many later answers differed
    from it; later answers are compared as they come and then dropped, so
    memory does not grow with the number of rounds."""

    def __init__(self, queries):
        self.queries = queries
        self.first = [None] * len(queries)
        self.runs = [0] * len(queries)
        self.changed = [0] * len(queries)

    def record(self, i, answer):
        if self.runs[i] == 0:
            self.first[i] = answer
        elif isinstance(answer, Exception) or answer != self.first[i]:
            self.changed[i] += 1
        self.runs[i] += 1

    def verify(self):
        """Check each first answer against its oracle; return (attempted,
        failed, reasons)."""
        attempted = failed = 0
        reasons = []
        for q, first, runs, changed in zip(self.queries, self.first, self.runs, self.changed):
            if isinstance(first, Exception):
                reason = f"raised {type(first).__name__}: {first}"
            else:
                try:
                    reason = q.check(first)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            attempted += runs
            bad = runs if reason else changed
            failed += bad
            if bad:
                reasons.append(f"{q.kind}: {reason or 'answer changed between rounds'}")
        return attempted, failed, reasons


def run_query(q):
    """Call one query; return its answer (or the exception it raised) and
    its wall time in ns."""
    start = time.perf_counter_ns()
    try:
        answer = q.call()
    except Exception as exc:  # a raising query counts as failed
        answer = exc
    return answer, time.perf_counter_ns() - start


def run_round(queries, fastest=None):
    """Run every query once; keep in ``fastest`` each query's fastest time
    and return the answers, to be recorded after the round so that
    comparing them is not timed or profiled."""
    results = []
    for i, q in enumerate(queries):
        answer, ns = run_query(q)
        if fastest is not None:
            fastest[i] = min(fastest[i], ns)
        results.append(answer)
    return results


def record_round(answers, results):
    for i, answer in enumerate(results):
        answers.record(i, answer)


def nearest_rank(values, share):
    """The smallest value with at least ``share`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1]


def end_to_end(queries, seconds, setup_s):
    answers = Answers(queries)
    fastest = [math.inf] * len(queries)
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        record_round(answers, run_round(queries, fastest))
        rounds += 1
    measured = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons = answers.verify()
    ms = [v / 1e6 for v in fastest]
    metrics = {
        "queries_per_s": (len(queries) / (sum(fastest) / 1e9), "1/s"),
        "latency_p50_ms": (nearest_rank(ms, 0.5), "ms"),
        "latency_p90_ms": (nearest_rank(ms, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    print(f"rounds={rounds} queries_per_round={len(queries)} measured_s={measured:.3f} "
          f"all_rounds_queries_per_s={attempted / measured:.4f} error_rate={failed / attempted:.6f}")
    return attempted, failed, reasons, metrics


def per_layer(lib, queries):
    """Run each query once plain and once traced, back to back in alternating
    order so both runs see the same state of the host, then one round under
    cProfile; return the per-layer metrics."""
    answers = Answers(queries)
    tracer = tracing.Tracer()
    plain = traced = 0
    for i, q in enumerate(queries):
        for with_spans in (False, True) if i % 2 else (True, False):
            if with_spans:
                tracer.install(lib)
            try:
                answer, ns = run_query(q)
            finally:
                tracer.uninstall()
            answers.record(i, answer)
            if with_spans:
                traced += ns
            else:
                plain += ns

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = run_round(queries)
    finally:
        profiler.disable()
    record_round(answers, results)

    attempted, failed, reasons = answers.verify()
    metrics = tracer.metrics()
    metrics.update(tracing.element_metrics(pstats.Stats(profiler).stats))
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    tracer.report(sys.stdout)
    return attempted, failed, reasons, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.WORKLOAD_SEEDS[args.workload] if args.seed is None else args.seed

    root = repo_root()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "logcouple", "__init__.py")):
        print(f"error: no logcouple sources under {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, lib, queries = set_up(args.workload, seed, src, workdir)
            setups.append(elapsed)
        kinds = {}
        for q in queries:
            kinds[q.kind] = kinds.get(q.kind, 0) + 1
        print(f"workload={args.workload} seed={seed} mix={json.dumps(kinds, sort_keys=True)}")
        if args.trace:
            attempted, failed, reasons, metrics = per_layer(lib, queries)
        else:
            attempted, failed, reasons, metrics = end_to_end(
                queries, args.seconds, statistics.median(setups)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
