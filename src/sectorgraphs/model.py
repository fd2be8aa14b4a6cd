"""Sampling of random faulty scaled sector graphs and their degree statistics.

A realization places ``N`` points uniformly on the unit square (``N = n``
in binomial mode, ``N ~ Poisson(n)`` in poisson mode), gives each an
independent uniform orientation, kills each vertex independently with
probability ``v``, and keeps the arc ``(i, j)`` when both endpoints are
alive, ``j`` lies in ``i``'s sector of angle ``alpha`` and radius ``r``,
and the arc survives an independent fault of probability ``q``. A dead
vertex carries no arcs in either direction and is excluded from all
degree statistics.

Randomness follows the draw-order contract in ``randomness``: count,
positions, orientations, alive flags from the per-trial generator, then
counter-based per-pair fault uniforms (arc fails iff its uniform is
below ``q``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, angle_in_arc, ordered_pairs_within
from .randomness import TrialStream

MODES = ("binomial", "poisson")
SIDES = ("out", "in")


def check_side(side: str) -> None:
    """Raise ``ValueError`` unless ``side`` names a degree side."""
    if side not in SIDES:
        raise ValueError("side must be 'out' or 'in'")


@dataclass(frozen=True)
class ModelParams:
    """Inputs of the random faulty scaled sector graph."""

    n: int
    alpha: float
    r: float
    v: float
    q: float
    mode: str = "binomial"
    master_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (0.0 < self.alpha <= TWO_PI):
            raise ValueError("alpha must lie in (0, 2*pi]")
        if not (0.0 < self.r < 0.5):
            raise ValueError("r must lie in (0, 0.5)")
        if not (0.0 <= self.v < 1.0):
            raise ValueError("v must lie in [0, 1)")
        if not (0.0 <= self.q < 1.0):
            raise ValueError("q must lie in [0, 1)")
        if self.mode not in MODES:
            raise ValueError("mode must be 'binomial' or 'poisson'")
        if not (isinstance(self.master_seed, (int, np.integer)) and 0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")


@dataclass
class FaultySectorGraph:
    """One realization: positions, orientations, alive flags and arcs.

    ``arcs`` is an ``(m, 2)`` integer array of arcs ``(tail, head)`` in
    strictly increasing order, so each arc is present at most once.
    """

    params: ModelParams
    realized_count: int
    positions: np.ndarray
    orientations: np.ndarray
    alive: np.ndarray
    arcs: np.ndarray


@dataclass
class DegreeSummary:
    """Degrees of the alive vertices; dead vertices are absent."""

    alive_indices: np.ndarray
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    max_out: int
    max_in: int
    alive_count: int
    empty: bool

    def degrees(self, side: str) -> np.ndarray:
        """The out- or in-degrees of the alive vertices."""
        check_side(side)
        return self.out_degrees if side == "out" else self.in_degrees


def sample_graph(params: ModelParams, stream: TrialStream) -> FaultySectorGraph:
    """Draw one realization from the given trial stream."""
    gen = stream.generator
    if params.mode == "poisson":
        realized = int(gen.poisson(params.n))
    else:
        realized = int(params.n)
    positions = gen.random((realized, 2))
    orientations = TWO_PI * gen.random(realized)
    alive = gen.random(realized) < 1.0 - params.v

    # Dead vertices neither send nor receive, so only the alive ones are paired.
    i, j = ordered_pairs_within(positions, np.flatnonzero(alive), orientations, params.r, params.alpha)
    if params.q > 0.0:
        survives = np.flatnonzero(stream.pair_uniforms(i, j) >= params.q)
        i, j = i[survives], j[survives]
    arcs = np.stack([i, j], axis=1)
    return FaultySectorGraph(params, realized, positions, orientations, alive, arcs)


def sample_trial(params: ModelParams, trial_index: int) -> FaultySectorGraph:
    """Realization of trial ``trial_index`` under ``params.master_seed``."""
    return sample_graph(params, TrialStream(params.master_seed, trial_index))


def degree_summary(g: FaultySectorGraph) -> DegreeSummary:
    """Out/in degree of every alive vertex plus the maxima; the one place
    that counts a graph's arcs.

    An empty alive set reports maxima 0 with the ``empty`` flag set.
    """
    alive_idx = np.nonzero(g.alive)[0]
    out_deg = np.bincount(g.arcs[:, 0], minlength=g.realized_count)[alive_idx]
    in_deg = np.bincount(g.arcs[:, 1], minlength=g.realized_count)[alive_idx]
    return DegreeSummary(
        alive_indices=alive_idx,
        out_degrees=out_deg,
        in_degrees=in_deg,
        max_out=int(out_deg.max(initial=0)),
        max_in=int(in_deg.max(initial=0)),
        alive_count=int(alive_idx.size),
        empty=alive_idx.size == 0,
    )


def interior_out_degree_stats(summary: DegreeSummary, positions: np.ndarray, r: float) -> tuple[int, int]:
    """(sum of out-degrees, vertex count) over the alive vertices of
    ``summary`` farther than ``r`` from every side of the square."""
    p = positions[summary.alive_indices]
    inner = np.all((p > r) & (p < 1.0 - r), axis=1)
    return int(summary.out_degrees[inner].sum()), int(np.count_nonzero(inner))


def write_edge_list(g: FaultySectorGraph, path) -> None:
    """Text dump: header ``N alive_count``, then one arc ``i j`` per line, ascending."""
    with open(path, "w") as fh:
        fh.write(f"{g.realized_count} {np.count_nonzero(g.alive)}\n")
        for a, b in g.arcs.tolist():
            fh.write(f"{a} {b}\n")


def write_vertex_csv(g: FaultySectorGraph, path) -> None:
    """CSV dump with columns index, x, y, theta, alive."""
    with open(path, "w") as fh:
        fh.write("index,x,y,theta,alive\n")
        rows = zip(g.positions.tolist(), g.orientations.tolist(), g.alive.tolist())
        for k, ((x, y), theta, alive) in enumerate(rows):
            fh.write(f"{k},{x:.17g},{y:.17g},{theta:.17g},{int(alive)}\n")


def check_structure(g: FaultySectorGraph) -> None:
    """Raise AssertionError naming the first failed structural invariant:
    endpoints that are vertex indices, no dead endpoints, distance bound,
    distinct endpoints, sector membership of every arc, or arcs strictly
    increasing in ``(tail, head)``, which rules out repeated arcs. Raised
    explicitly, so ``python -O`` checks too.
    """
    # Tested first: the other invariants index by the endpoints, and the key
    # ``i * N + j`` orders arcs as ``(i, j)`` only for endpoints below N.
    if not np.all((g.arcs >= 0) & (g.arcs < g.realized_count)):
        raise AssertionError("graph structure: an arc endpoint is not a vertex index")
    i, j = g.arcs[:, 0], g.arcs[:, 1]
    d = g.positions[j] - g.positions[i]
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2
    in_sector = angle_in_arc(d[:, 0], d[:, 1], g.orientations[i], g.params.alpha)
    invariants = {
        "an arc has a dead endpoint": np.all(g.alive[i]) and np.all(g.alive[j]),
        "an arc is longer than r": np.all(d2 <= g.params.r**2),
        "an arc joins coincident points": np.all(d2 > 0.0),
        "an arc leaves its tail's sector": np.all(in_sector),
        "arcs are not strictly increasing in (tail, head)": np.all(np.diff(i * g.realized_count + j) > 0),
    }
    for broken, holds in invariants.items():
        if not holds:
            raise AssertionError(f"graph structure: {broken}")
