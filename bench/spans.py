"""In-memory spans around the package's functions, for the traced run.

The package imports names directly (``from .geometry import
ordered_pairs_within``), so a function is wrapped where its caller looks
it up: ``sectorgraphs.model.ordered_pairs_within``, not only
``sectorgraphs.geometry.ordered_pairs_within``. Methods are wrapped on
their class. A target that a later version of the package no longer has
is skipped, and its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


# (module, attribute path, span name). Several lookups can share one name.
TARGETS = (
    ("sectorgraphs.cli", "main", "cli.main"),
    ("sectorgraphs.cli", "predict", "theory.predict"),
    ("sectorgraphs.harness", "predict", "theory.predict"),
    ("sectorgraphs.cli", "write_trials_csv", "harness.write_trials_csv"),
    ("sectorgraphs.harness", "compare", "harness.compare"),
    ("sectorgraphs.harness", "run_one_trial", "harness.run_one_trial"),
    ("sectorgraphs.harness", "sample_graph", "model.sample_graph"),
    ("sectorgraphs.harness", "degree_summary", "model.degree_summary"),
    ("sectorgraphs.model", "sample_graph", "model.sample_graph"),
    ("sectorgraphs.model", "degree_summary", "model.degree_summary"),
    ("sectorgraphs.model", "build_index", "geometry.build_index"),
    ("sectorgraphs.model", "ordered_pairs_within", "geometry.ordered_pairs_within"),
    ("sectorgraphs.model", "angle_in_arc", "geometry.angle_in_arc"),
    ("sectorgraphs.geometry", "angle_in_arc", "geometry.angle_in_arc"),
    ("sectorgraphs.randomness", "TrialStream.__init__", "randomness.trial_stream"),
    ("sectorgraphs.randomness", "TrialStream.pair_uniforms", "randomness.pair_uniforms"),
    ("sectorgraphs.bounds", "tv_bound", "bounds.tv_bound"),
    ("sectorgraphs.bounds", "expected_count", "bounds.expected_count"),
    ("sectorgraphs.bounds", "clipped_sector_areas", "geometry.clipped_sector_areas"),
    ("sectorgraphs.bounds", "points_in_sector", "geometry.points_in_sector"),
    ("sectorgraphs.degree_sets", "DegreeSet.poisson_prob", "degree_sets.poisson_prob"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Records spans (name, start, end, parent) and counts while enabled.

    Counts are taken at the same boundaries as the spans, from the
    arguments and results of the wrapped calls.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.max_graph_bytes = 0
        self.enabled = False
        self._pair_bytes = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for module_name, path, span_name in targets:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), parent.id if parent else None, name, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts -----------------------------------------------------------
    def _count(self, name, parent, args, kwargs, result) -> None:
        c = self.counts
        if name == "geometry.ordered_pairs_within":
            ia, ja = result
            c["geometry.pairs_within"] += int(ia.size)
            self._pair_bytes = int(ia.nbytes + ja.nbytes)
        elif name == "model.sample_graph":
            c["model.arcs"] += int(result.arcs.shape[0])
            graph_bytes = sum(
                int(a.nbytes)
                for a in (result.positions, result.orientations, result.alive, result.arcs)
            ) + self._pair_bytes
            self._pair_bytes = 0
            self.max_graph_bytes = max(self.max_graph_bytes, graph_bytes)
        elif name == "geometry.clipped_sector_areas":
            apex = np.asarray(_arg(args, kwargs, 0, "apex_xy"), dtype=float)
            r = float(_arg(args, kwargs, 3, "radius"))
            interior = (
                (apex[:, 0] >= r) & (apex[:, 0] <= 1.0 - r)
                & (apex[:, 1] >= r) & (apex[:, 1] <= 1.0 - r)
            )
            c["geometry.clipped_rows"] += int(np.count_nonzero(~interior))
        elif name == "geometry.points_in_sector":
            # tv_bound tests each accepted outer pair twice with 2-D point
            # arrays (x2 in x1's sector and back); the pair decomposition
            # passes 3-D sample arrays.
            points = np.asarray(_arg(args, kwargs, 4, "points"))
            if parent is not None and parent.name == "bounds.tv_bound" and points.ndim == 2:
                c["bounds.pair_tests"] += int(points.shape[0])
        elif name == "bounds.tv_bound":
            c["bounds.outer_samples"] += int(_arg(args, kwargs, 3, "outer_samples"))
        elif name == "degree_sets.poisson_prob":
            c["degree_sets.poisson_prob_calls"] += 1

    # -- analysis -----------------------------------------------------------
    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus the children's durations."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = Counter()
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.id]
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
            for s in self.spans
        ]
