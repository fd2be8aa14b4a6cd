"""Measure one workload in this process and print the result as one JSON line.

``run.py`` starts this script with the package on ``PYTHONPATH``, so that
the peak RSS it reports (its own, and that of its largest child such as a
pool worker) belongs to the workload alone:

    python3 bench/measure.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--spans FILE]

With ``--trace 0`` it times calls for ``--seconds`` (at least ``MIN_CALLS``
and one whole cycle of the workload's inputs) with no tracing. With ``--trace 1`` it runs a fixed list of calls in
alternating untraced and traced passes and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy
import scipy

import sectorgraphs
from spans import Tracer
from workloads import WORKLOADS, nproc

MIN_CALLS = 3
TRACE_PASSES = 2

# Per-layer time metrics (self time in ms per item) and the span they read.
LAYER_TIMES = {
    "geometry.ordered_pairs_within_ms": "geometry.ordered_pairs_within",
    "geometry.build_index_ms": "geometry.build_index",
    "geometry.angle_in_arc_ms": "geometry.angle_in_arc",
    "randomness.pair_uniforms_ms": "randomness.pair_uniforms",
    "randomness.trial_stream_ms": "randomness.trial_stream",
    "model.sample_graph_ms": "model.sample_graph",
    "model.degree_summary_ms": "model.degree_summary",
    "harness.run_one_trial_self_ms": "harness.run_one_trial",
    "harness.compare_ms": "harness.compare",
    "harness.write_trials_csv_ms": "harness.write_trials_csv",
    "cli.self_ms": "cli.main",
    "theory.predict_ms": "theory.predict",
    "bounds.tv_bound_self_ms": "bounds.tv_bound",
    "bounds.expected_count_ms": "bounds.expected_count",
    "geometry.clipped_sector_areas_ms": "geometry.clipped_sector_areas",
    "geometry.points_in_sector_ms": "geometry.points_in_sector",
    "degree_sets.poisson_prob_ms": "degree_sets.poisson_prob",
}
# Spans that make up one sampled graph, from stream set-up to degrees.
SAMPLER_SPANS = (
    "harness.run_one_trial",
    "randomness.trial_stream",
    "model.sample_graph",
    "geometry.build_index",
    "geometry.ordered_pairs_within",
    "geometry.angle_in_arc",
    "randomness.pair_uniforms",
    "model.degree_summary",
)


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _report(workload, fails) -> bool:
    for reason in fails:
        print(f"check failed: {workload.name}: {reason}", file=sys.stderr)
    return bool(fails)


def _call(workload, k, tracer=None) -> tuple[float, bool]:
    """Wall time of call ``k`` (traced when a tracer is given) and whether
    its untimed output check failed."""
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    output = workload.call(k)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    return wall, _report(workload, [f"call {k}: {r}" for r in workload.check(k, output)])


def timed(workload, seconds: float, min_calls: int = MIN_CALLS):
    """End-to-end metrics from untraced calls; checks run between calls.

    A workload whose calls cycle through inputs of unequal cost is
    summarised over whole cycles only, so every run weighs the same mix.
    """
    cycle = workload.cycle
    walls = []
    failed = 0
    start = time.perf_counter()
    while len(walls) < max(min_calls, cycle) or time.perf_counter() - start < seconds:
        wall, bad = _call(workload, len(walls))
        walls.append(wall)
        failed += bad
    attempted = len(walls)
    del walls[attempted // cycle * cycle:]
    metrics = {
        "call_s": statistics.median(walls),
        "peak_rss_mib": peak_rss_mib(),
    }
    return metrics, attempted, failed


def _pass(workload, calls, tracer=None) -> tuple[float, int]:
    results = [_call(workload, k, tracer) for k in calls]
    return sum(wall for wall, _ in results), sum(bad for _, bad in results)


def traced(workload, calls):
    """Per-layer metrics from traced passes, each after an untraced pass
    over the same calls. Returns (metrics, attempted, failed, tracers)."""
    plain, with_trace, tracers = [], [], []
    # One untraced call first, so lazy imports and caches are warm in
    # every timed pass.
    _, failed = _pass(workload, calls[:1])
    for _ in range(TRACE_PASSES):
        wall, f = _pass(workload, calls)
        plain.append(wall)
        failed += f
        tracer = Tracer()
        with tracer:
            wall, f = _pass(workload, calls, tracer)
        with_trace.append(wall)
        failed += f
        tracers.append(tracer)
    attempted = 1 + 2 * TRACE_PASSES * len(calls)

    # Counts are a pure function of the seed: every traced pass must agree.
    first = (dict(tracers[0].counts), tracers[0].max_graph_bytes)
    for tr in tracers[1:]:
        if (dict(tr.counts), tr.max_graph_bytes) != first:
            failed += _report(workload, ["counts differ between traced passes"])

    items = len(calls) * workload.items
    self_s = Counter()
    for tr in tracers:
        self_s.update(tr.self_seconds())

    def per_item_ms(span):
        return 1000.0 * self_s[span] / (TRACE_PASSES * items)

    metrics = {name: per_item_ms(span) for name, span in LAYER_TIMES.items()}
    efficiency = 0.0
    if hasattr(workload, "parallel_efficiency"):
        efficiency, fails = workload.parallel_efficiency(nproc())
        attempted += 1
        failed += _report(workload, fails)
    sampler_s = sum(self_s[s] for s in SAMPLER_SPANS) if self_s["model.sample_graph"] else 0.0
    counts = tracers[0].counts
    pairs = counts["geometry.pairs_within"]
    outer = counts["bounds.outer_samples"]
    metrics.update({
        "geometry.pairs_within": pairs,
        "model.arcs": counts["model.arcs"],
        "model.arc_yield": counts["model.arcs"] / pairs if pairs else 0.0,
        "model.graph_bytes": tracers[0].max_graph_bytes,
        "geometry.clipped_rows": counts["geometry.clipped_rows"],
        "degree_sets.poisson_prob_calls": counts["degree_sets.poisson_prob_calls"],
        # Each accepted outer pair is tested twice for sector membership.
        "bounds.accept_ratio": counts["bounds.pair_tests"] / 2 / outer if outer else 0.0,
        "harness.parallel_efficiency": efficiency,
        "trace_overhead_pct": 100.0 * (statistics.median(with_trace) / statistics.median(plain) - 1.0),
        "trace.sampler_coverage_pct": 100.0 * sampler_s / sum(with_trace),
    })
    return metrics, attempted, failed, tracers


def provenance(workload) -> dict:
    return {
        "package_version": sectorgraphs.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "workers": getattr(workload, "parallelism", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    if args.trace:
        workload = cls(args.seed, args.workdir, **cls.trace_options)
        metrics, attempted, failed, tracers = traced(workload, cls.trace_calls)
        if args.spans:
            args.spans.write_text(json.dumps([tr.dump() for tr in tracers]))
    else:
        workload = cls(args.seed, args.workdir)
        metrics, attempted, failed = timed(workload, args.seconds)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(workload),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
