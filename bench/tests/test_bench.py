"""Tests of the benchmark itself, on small inputs:

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import measure
import sectorgraphs.bounds
import sectorgraphs.harness
import sectorgraphs.model
from spans import Tracer
from workloads import Graph1e6, McFocus, TvBoundC6

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def small(name, workdir, **kw):
    """The workload at a size that runs in seconds."""
    if name == "mc_focus":
        return McFocus(3, workdir, trials=40, **kw)
    if name == "graph_1e6":
        return Graph1e6(3, workdir, n=3000, **kw)
    return TvBoundC6(3, workdir, n=500, outer=100, area=200, ew=300, **kw)


SMALL_TRACE_CALLS = {"mc_focus": [0], "graph_1e6": [0, 1], "tv_bound_c6": [0, 1]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_timed_run_passes_and_prints_declared_metrics(name, tmp_path):
    workload = small(name, tmp_path)
    metrics, attempted, failed = measure.timed(workload, 0, min_calls=1)
    assert (attempted, failed) == (workload.cycle, 0)
    declared = {m["name"] for m in MANIFEST["end_to_end"]}
    assert set(metrics) | {"setup_s"} == declared
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_passes_and_prints_declared_metrics(name, tmp_path):
    kw = {"parallelism": 1} if name == "mc_focus" else {}
    metrics, _, failed, tracers = measure.traced(
        small(name, tmp_path, **kw), SMALL_TRACE_CALLS[name]
    )
    assert failed == 0
    assert set(metrics) == {m["name"] for m in MANIFEST["per_layer"]}
    assert len(tracers) == measure.TRACE_PASSES


@pytest.mark.parametrize("name", ["graph_1e6", "tv_bound_c6"])
def test_counts_repeat_for_a_fixed_seed(name, tmp_path):
    count_names = {m["name"] for m in MANIFEST["per_layer"] if m["unit"] == "count"}
    counts = []
    for _ in range(2):
        metrics = measure.traced(small(name, tmp_path), SMALL_TRACE_CALLS[name])[0]
        counts.append({k: metrics[k] for k in count_names})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_sampler_dropping_an_arc_fails_graph(tmp_path, monkeypatch):
    original = sectorgraphs.model.sample_graph

    def drops_one_arc(params, stream):
        g = original(params, stream)
        return dataclasses.replace(g, arcs=g.arcs[1:])

    monkeypatch.setattr(sectorgraphs.model, "sample_graph", drops_one_arc)
    # Brute force on every vertex, so the dropped arc is always seen.
    _, attempted, failed = measure.timed(small("graph_1e6", tmp_path, spot=3000), 0, min_calls=1)
    assert failed == attempted == 1


def test_sampler_missing_half_the_pairs_fails_the_spot_check(tmp_path, monkeypatch, capsys):
    original = sectorgraphs.model.ordered_pairs_within

    def every_other_pair(*args, **kwargs):
        ia, ja = original(*args, **kwargs)
        return ia[::2], ja[::2]

    monkeypatch.setattr(sectorgraphs.model, "ordered_pairs_within", every_other_pair)
    # The default 16 spot vertices, as the benchmark runs the check.
    _, attempted, failed = measure.timed(small("graph_1e6", tmp_path), 0, min_calls=1)
    assert failed == attempted == 1
    assert "degrees differ from brute force" in capsys.readouterr().err


def test_degrees_missing_an_arc_fail_graph(tmp_path, monkeypatch):
    original = sectorgraphs.model.degree_summary

    def drops_one_arc(g):
        return original(dataclasses.replace(g, arcs=g.arcs[1:]))

    monkeypatch.setattr(sectorgraphs.model, "degree_summary", drops_one_arc)
    _, attempted, failed = measure.timed(small("graph_1e6", tmp_path), 0, min_calls=1)
    assert failed == attempted == 1


def test_bound_above_one_fails_tv(tmp_path, monkeypatch):
    original = sectorgraphs.bounds.tv_bound

    def too_large(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), bound=1.5)

    monkeypatch.setattr(sectorgraphs.bounds, "tv_bound", too_large)
    _, attempted, failed = measure.timed(small("tv_bound_c6", tmp_path), 0, min_calls=1)
    assert failed == attempted == 16


def test_pool_that_changes_a_record_fails_mc_focus(tmp_path, monkeypatch):
    original = sectorgraphs.harness.run_trials

    def wrong_in_parallel(params, trials, parallelism=1, options=None):
        records = original(params, trials, parallelism, options)
        if parallelism > 1:
            records[0].max_in += 1
        return records

    monkeypatch.setattr(sectorgraphs.harness, "run_trials", wrong_in_parallel)
    _, attempted, failed = measure.timed(small("mc_focus", tmp_path, parallelism=2), 0, min_calls=1)
    assert failed == attempted == 1


def test_self_times_add_up_to_the_root_span(monkeypatch):
    mod = types.ModuleType("bench_fake_layers")

    def leaf():
        return sum(range(20000))

    def root():
        return mod.leaf() + mod.leaf() + sum(range(20000))

    mod.leaf, mod.root = leaf, root
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    tracer.install([(mod.__name__, "leaf", "leaf"), (mod.__name__, "root", "root")])
    tracer.enabled = True
    mod.root()
    tracer.uninstall()
    assert mod.leaf is leaf and mod.root is root
    assert [s.name for s in tracer.spans] == ["root", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    own = tracer.self_seconds()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert own["root"] + own["leaf"] == pytest.approx(total, rel=1e-9)


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
