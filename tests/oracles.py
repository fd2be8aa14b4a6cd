"""Independent oracles used across the test suite.

``poisson_tail_mp`` sums the Poisson law term by term in extended
precision. ``brute_force_graph`` rebuilds a realization from the same
per-trial stream but derives the arc set by a full O(n^2) pairwise scan,
with no spatial index involved. ``arcs_interior_out_degrees`` counts the
interior out-degrees from a graph's arcs. ``eager_points_in_sector`` runs
the arc test on every point. ``sampled_clipped_areas`` and
``sampled_decomposition`` estimate the bound's region areas by plain
Monte Carlo, with binomial standard errors. ``scan_focusing_index`` and
``scan_max_degree_law`` find the focusing index and the law's keys by a
linear scan over ``j``, one tail per step.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from sectorgraphs import poisson
from sectorgraphs.geometry import TWO_PI, angle_in_arc, in_unit_square
from sectorgraphs.model import ModelParams
from sectorgraphs.randomness import TrialStream
from sectorgraphs.theory import mean_degree


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


def scan_focusing_index(n: int, v: float, mu: float) -> tuple[int, int]:
    """``theory.focusing_index`` for valid input, by trying ``j = 1, 2, ...``."""
    bound = 1.0 / (1.0 - v)
    xi_prev = 1.0  # tail(0)
    j = 0
    while True:
        j += 1
        xi_j = float(poisson.upper_tail(mu, j))
        if n * xi_j <= bound:
            break
        xi_prev = xi_j
    k = j - 1 if (1.0 - v) * n * xi_j <= math.sqrt(xi_j / xi_prev) else j
    return j, k


def scan_max_degree_law(params: ModelParams) -> dict[int, float]:
    """``theory.max_degree_law`` by scanning ``m = 0, 1, ...`` from the start."""
    mu = mean_degree(params)
    law: dict[int, float] = {}
    m, cdf_below = 0, 0.0  # cdf_below is the cdf at m - 1
    while cdf_below <= 1.0 - 1e-10:
        cdf = math.exp(-params.n * (1.0 - params.v) * float(poisson.upper_tail(mu, m + 1)))
        if cdf >= 1e-10:
            law[m] = cdf - cdf_below
        m, cdf_below = m + 1, cdf
    return law


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


def arcs_interior_out_degrees(g) -> tuple[int, int]:
    """(sum of out-degrees, vertex count) over the alive vertices of graph
    ``g`` farther than ``r`` from every side, counted from its arcs."""
    out_all = np.bincount(g.arcs[:, 0], minlength=g.realized_count)
    r, p = g.params.r, g.positions
    mask = g.alive & np.all((p > r) & (p < 1.0 - r), axis=1)
    return int(out_all[mask].sum()), int(np.count_nonzero(mask))


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


def eager_points_in_sector(apex_xy, elevation, central_angle, radius, points):
    """``points_in_sector`` with the arc test on every point, inside the
    radius or not."""
    delta = np.asarray(points, dtype=float) - np.asarray(apex_xy, dtype=float)
    d2 = delta[..., 0] ** 2 + delta[..., 1] ** 2
    inside = (d2 > 0.0) & (d2 <= radius * radius)
    return inside & angle_in_arc(delta[..., 0], delta[..., 1], elevation, central_angle)


def _all_sector_points(apex_xy, elevation, central_angle, radius, samples, rng):
    """``(x, y)``, each ``(m, samples)``: every sector's points, all radii
    drawn first."""
    m = apex_xy.shape[0]
    rad = radius * np.sqrt(rng.random((m, samples)))
    ang = elevation[:, None] + central_angle * rng.random((m, samples))
    return apex_xy[:, 0, None] + rad * np.cos(ang), apex_xy[:, 1, None] + rad * np.sin(ang)


def sampled_clipped_areas(apex_xy, elevation, central_angle, radius, samples, rng, chunk=512):
    """Monte Carlo ``geometry.clipped_sector_areas`` and standard errors:
    per block of ``chunk`` clipped rows, the points of every row, then
    their fraction in the square."""
    full = 0.5 * central_angle * radius * radius
    areas = np.full(len(apex_xy), full)
    ses = np.zeros(len(apex_xy))
    interior = np.all((apex_xy >= radius) & (apex_xy <= 1.0 - radius), axis=1)
    idx = np.flatnonzero(~interior)
    for lo in range(0, idx.size, chunk):
        rows = idx[lo : lo + chunk]
        p = np.stack(
            _all_sector_points(apex_xy[rows], elevation[rows], central_angle, radius, samples, rng),
            axis=-1,
        )
        frac = in_unit_square(p).mean(axis=1)
        areas[rows] = full * frac
        ses[rows] = full * np.sqrt(frac * (1.0 - frac) / samples)
    return areas, ses


def sampled_decomposition(apex1, elev1, apex2, elev2, angle, radius, samples, rng, chunk=128):
    """Monte Carlo three-piece areas of ``bounds.decompose_regions``: per
    block of ``chunk`` rows, region 1's points against the square and
    region 2, then region 2's points against the square and region 1.
    Each piece is the full sector area times a binomial fraction of
    ``samples`` points."""
    m = apex1.shape[0]
    area_full = 0.5 * angle * radius * radius
    common = np.zeros(m)
    only1 = np.zeros(m)
    only2 = np.zeros(m)
    for lo in range(0, m, chunk):
        sl = slice(lo, min(lo + chunk, m))
        a1, e1 = apex1[sl], elev1[sl]
        a2, e2 = apex2[sl], elev2[sl]
        p = np.stack(_all_sector_points(a1, e1, angle, radius, samples, rng), axis=-1)
        in_q = in_unit_square(p)
        in_r2 = eager_points_in_sector(a2[:, None, :], e2[:, None], angle, radius, p)
        common[sl] = area_full * np.mean(in_q & in_r2, axis=1)
        only1[sl] = area_full * np.mean(in_q & ~in_r2, axis=1)
        p = np.stack(_all_sector_points(a2, e2, angle, radius, samples, rng), axis=-1)
        in_q = in_unit_square(p)
        in_r1 = eager_points_in_sector(a1[:, None, :], e1[:, None], angle, radius, p)
        only2[sl] = area_full * np.mean(in_q & ~in_r1, axis=1)
    return common, only1, only2
