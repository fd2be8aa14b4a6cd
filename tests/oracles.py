"""Independent oracles used across the test suite.

``poisson_tail_mp`` sums the Poisson law term by term in extended
precision. ``brute_force_graph`` rebuilds a realization from the same
per-trial stream but derives the arc set by a full O(n^2) pairwise scan,
with no spatial index involved.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from sectorgraphs.geometry import TWO_PI
from sectorgraphs.model import ModelParams
from sectorgraphs.randomness import TrialStream


def poisson_tail_mp(mean: float, j: int, dps: int = 60) -> mp.mpf:
    """P(Poi(mean) >= j) by extended-precision term-by-term summation."""
    with mp.workdps(dps):
        m = mp.mpf(mean)
        if j <= 0:
            return mp.mpf(1)
        if j > m:
            term = mp.e ** (-m) * m**j / mp.factorial(j)
            total = mp.mpf(0)
            i = j
            while True:
                total += term
                i += 1
                term *= m / i
                if term < total * mp.mpf(10) ** (-dps):
                    return total
        total = mp.mpf(0)
        for i in range(j):
            total += mp.e ** (-m) * m**i / mp.factorial(i)
        return 1 - total


def brute_force_graph(params: ModelParams, trial_index: int):
    """Replay the trial stream and apply the arc definition pairwise.

    Returns (positions, orientations, alive, adjacency) with adjacency a
    dense boolean matrix.
    """
    stream = TrialStream(params.master_seed, trial_index)
    gen = stream.generator
    if params.mode == "poisson":
        n = int(gen.poisson(params.n))
    else:
        n = int(params.n)
    positions = gen.random((n, 2))
    orientations = TWO_PI * gen.random(n)
    alive = gen.random(n) < 1.0 - params.v
    adj = np.zeros((n, n), dtype=bool)
    if n >= 2:
        dx = positions[None, :, 0] - positions[:, None, 0]
        dy = positions[None, :, 1] - positions[:, None, 1]
        d2 = dx * dx + dy * dy
        in_range = (d2 > 0.0) & (d2 <= params.r * params.r)
        # alpha = 2*pi is the full disk: every direction is in the arc.
        if params.alpha >= TWO_PI:
            in_arc = True
        else:
            rel = np.mod(np.arctan2(dy, dx) - orientations[:, None], TWO_PI)
            in_arc = rel < params.alpha
        adj = in_range & in_arc & alive[:, None] & alive[None, :]
        np.fill_diagonal(adj, False)
        if params.q > 0.0:
            ii, jj = np.nonzero(adj)
            if ii.size:
                fails = stream.pair_uniforms(ii, jj) < params.q
                adj[ii[fails], jj[fails]] = False
    return positions, orientations, alive, adj


def brute_force_degrees(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return adj.sum(axis=1).astype(np.int64), adj.sum(axis=0).astype(np.int64)


def chi2_gof(observed: np.ndarray, probs: np.ndarray) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom after pooling cells with
    expected count below 5 into their neighbors."""
    total = observed.sum()
    expected = probs * total
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    if exp_pool:
        obs_pool[-1] += acc_o
        exp_pool[-1] += acc_e
    obs_arr = np.array(obs_pool)
    exp_arr = np.array(exp_pool)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    return stat, max(len(obs_pool) - 1, 1)
