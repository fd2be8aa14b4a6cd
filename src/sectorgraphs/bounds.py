"""Total-variation bounds for the Poisson approximation of degree counts.

In Poisson mode with intensity ``lam = n``, let ``W`` be the number of
alive vertices whose out- (or in-) degree lies in a degree set ``A``. The
bound evaluated here is

    d_TV(W, Poi(E W)) <= min(1, 1/EW) * (I1 + I2)

where ``I1`` integrates the product of two marginal count probabilities
over ordered pairs of locations within distance ``3r``, and ``I2``
integrates the joint probability that both locations' counts land in
``A``. The two counts share the Poisson points of the overlap region and
each gains the mutual-arc indicator of the other location; the joint
probability comes from the three-piece area decomposition of the two
regions (out side: the two sectors; in side: the two disks, counted by the
orientation-thinned process of intensity ``lam * alpha/2pi``). It is exact
only on the out side with ``q = 0``: the shared count is thinned once by
``(1-q)``, and on the in side a lens point counts as covering both
locations. For a monotone ``A`` (``tail:k``, ``set:0``) the bound stays
valid by Chebyshev's association inequality, only loose; no such ordering
is shown for other sets (ROADMAP item 1).

The region areas are exact (``geometry.intersection_areas``), and every
Poisson probability, the truncation test included, comes from
``poisson``. The outer integrals over locations and orientations are
plain Monte Carlo with reported standard errors, deterministic given
their seeds.

Every step takes a batch of rows, one row per location pair:
``decompose_regions`` gives the three piece areas of many region pairs
and ``joint_count_prob`` the joint probability for many rows of Poisson
means. Each row's result does not depend on the other rows, except that
the joint sum's term count follows the batch's largest shared mean.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import poisson
from .degree_sets import DegreeSet
from .geometry import (
    TWO_PI,
    clipped_sector_areas,
    in_unit_square,
    intersection_areas,
    points_in_sector,
)
from .model import SIDES, ModelParams, check_side
from .randomness import derive_key, substream

_DOM_EW = 0xB01
_DOM_TV = 0xB02
_DOM_BOOT = 0xB04
_MAX_TERMS = 10_000
BOOTSTRAP_REPLICATES = 200

class TruncationBudgetExceeded(RuntimeError):
    """The joint-count summation cannot reach the tail cap within the term limit."""


@dataclass
class TVBoundReport:
    side: str
    degree_set: str
    ew: float
    ew_se: float
    i1: float
    i1_se: float
    i2: float
    i2_se: float
    truncation_error: float
    bound_raw: float
    bound: float
    bound_se: float


def _check_inputs(params: ModelParams, side: str, **counts: int) -> None:
    """Reject, before any sampling, an unknown side, a mode other than
    Poisson (the bound's intensity is ``n``) and a sample count below 1."""
    check_side(side)
    if params.mode != "poisson":
        raise ValueError(f"the bound needs Poisson mode, got mode {params.mode!r}")
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


def _mean_se(scale: float, samples: int, rows, vals: np.ndarray) -> tuple[float, float]:
    """``scale`` times the mean of ``samples`` draws and its standard error,
    where the draws at ``rows`` take ``vals`` and every other draw is 0."""
    full = np.zeros(samples)
    full[rows] = vals
    return scale * float(np.mean(full)), scale * float(np.std(full) / math.sqrt(samples))


def _seed_for(params: ModelParams, domain: int, side: str, degree_set: DegreeSet) -> int:
    tag = zlib.crc32(degree_set.descriptor().encode())
    return derive_key(params.master_seed, domain, SIDES.index(side), tag)


def expected_count(
    params: ModelParams,
    degree_set: DegreeSet,
    side: str,
    samples: int = 20_000,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``E W`` with its standard error.

    Out side: ``(1-v) * lam * E_{x,y} P[Poi(lam*(1-q)*(1-v)*|S(x,y,r) ∩ Q|) in A]``.
    In side: the sector area is replaced by ``(alpha/2pi) * |B(x,r) ∩ Q|``
    and there is no orientation average. The areas are exact; the
    average over ``samples`` locations (and orientations) is Monte Carlo,
    seeded from ``params.master_seed``, the side and the degree set.
    """
    _check_inputs(params, side, samples=samples)
    rng = substream(_seed_for(params, _DOM_EW, side, degree_set))
    lam = float(params.n)
    thin = lam * (1.0 - params.q) * (1.0 - params.v)
    x = rng.random((samples, 2))
    if side == "out":
        angle, elev, lam_eff = params.alpha, TWO_PI * rng.random(samples), thin
    else:
        angle, elev, lam_eff = TWO_PI, np.zeros(samples), thin * (params.alpha / TWO_PI)
    areas = clipped_sector_areas(x, elev, angle, params.r)
    vals = degree_set.poisson_prob(lam_eff * areas)
    return _mean_se((1.0 - params.v) * lam, samples, slice(None), vals)


def _terms_needed(m_max: float, cap: float) -> int:
    """Terms of the shared-count summation so the residual ``P(Nc >= n)``
    falls below ``cap``: the first of the counts growing 1.4-fold from
    about ``m_max`` to ``_MAX_TERMS`` that reaches it; raises when
    ``_MAX_TERMS`` cannot."""
    if m_max <= 0.0:
        return 1
    counts = [min(max(2, int(m_max) + 1), _MAX_TERMS)]
    while counts[-1] < _MAX_TERMS:
        counts.append(min(int(counts[-1] * 1.4) + 1, _MAX_TERMS))
    reached = poisson.upper_tail_log(m_max, counts) <= math.log(cap)
    if not reached[-1]:
        raise TruncationBudgetExceeded(
            f"residual above cap {cap:g} after {_MAX_TERMS} terms at mean {m_max:.4g}"
        )
    return counts[int(np.argmax(reached))]


def joint_count_prob(
    mean_common: np.ndarray,
    mean_only1: np.ndarray,
    mean_only2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    degree_set: DegreeSet,
    trunc_cap: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """P[{Nc+N1+B1 in A} and {Nc+N2+B2 in A}] for vectors of Poisson means.

    Per row, ``Nc``, ``N1``, ``N2`` are independent Poisson with means
    ``mean_common``, ``mean_only1``, ``mean_only2``, and ``B1``, ``B2``
    are Bernoulli with success probabilities ``p1``, ``p2`` (an absent
    arc has probability 0). Sums over the shared count ``Nc`` until
    residual mass is below ``trunc_cap`` for every row, so the number of
    terms follows the largest ``mean_common``, up to ``_MAX_TERMS``;
    returns the probabilities and the worst residual, which bounds the
    truncation error.
    """
    mc = np.asarray(mean_common, dtype=float)
    m_max = float(mc.max()) if mc.size else 0.0
    n_terms = _terms_needed(m_max, trunc_cap)
    probs = np.zeros_like(mc)
    cum = np.zeros_like(mc)
    pmf = np.exp(-mc)
    # Side 1's rows, then side 2's. ``g`` and ``h``: ``P(N + c in A)`` and
    # ``P(N + c + 1 in A)`` for each side's own count ``N``; each shift is
    # evaluated once for both sides and passed on. Rows are independent in
    # ``poisson``, so joining the sides leaves every row's bits alone.
    mean_only = np.concatenate((mean_only1, mean_only2))
    p = np.concatenate((p1, p2))
    g = degree_set.poisson_prob(mean_only, shift=0)
    for c in range(n_terms):
        h = degree_set.poisson_prob(mean_only, shift=c + 1)
        f1, f2 = np.split((1.0 - p) * g + p * h, 2)
        probs += pmf * f1 * f2
        cum += pmf
        pmf = pmf * mc / (c + 1.0)
        g = h
    residual = float(np.max(1.0 - cum)) if mc.size else 0.0
    return probs, max(residual, 0.0)


def decompose_regions(
    region1: tuple, region2: tuple, radius: float, areas1: np.ndarray, areas2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise exact three-piece areas for many region pairs, given each
    region's clipped area. A region is ``(apexes, elevations, angle)``,
    as in ``intersection_areas``.

    Only pairs with apexes at most ``2r`` apart can overlap; the others
    get ``common = 0``. The single pieces are the clipped areas less the
    common piece, clamped at 0 against rounding.
    """
    common = np.zeros(len(areas1))
    near = np.sum((region1[0] - region2[0]) ** 2, axis=1) <= (2.0 * radius) ** 2
    if near.any():
        common[near] = intersection_areas(
            [(apex[near], elev[near], angle) for apex, elev, angle in (region1, region2)], radius
        )
    return (
        common,
        np.maximum(areas1 - common, 0.0),
        np.maximum(areas2 - common, 0.0),
    )


def tv_bound(
    params: ModelParams,
    degree_set: DegreeSet,
    side: str,
    outer_samples: int = 10_000,
    area_samples: int = 10_000,
    ew_samples: int = 20_000,
    trunc_cap: float = 1e-8,
) -> TVBoundReport:
    """Evaluate the full bound ``min(1, 1/EW) * (I1 + I2)`` for one side.

    The second location is drawn by rejection from the bounding square of
    the radius-``3r`` ball around the first, with the square's measure
    ``(6r)^2`` folded into the integrand weight. A rejected draw adds
    exactly 0 to both integrals, so only the accepted pairs are evaluated;
    both locations of a pair share one area call and one Poisson call, as
    rows are independent. The reported ``bound`` is additionally capped at
    1 (a total-variation distance never exceeds 1); ``bound_raw`` keeps the
    uncapped value. The outer samples are seeded from
    ``params.master_seed``, the side and the degree set. The region areas
    are exact, so ``area_samples`` is ignored; it stays accepted for
    existing callers.
    """
    _check_inputs(params, side, outer_samples=outer_samples, ew_samples=ew_samples)
    rng = substream(_seed_for(params, _DOM_TV, side, degree_set))
    lam = float(params.n)
    r = params.r
    thin = lam * (1.0 - params.q) * (1.0 - params.v)
    lam_eff = thin if side == "out" else thin * params.alpha / TWO_PI
    pref = (1.0 - params.v) ** 2 * lam * lam
    weight = (6.0 * r) ** 2

    x1 = rng.random((outer_samples, 2))
    y1 = TWO_PI * rng.random(outer_samples)
    x2 = x1 + 6.0 * r * (rng.random((outer_samples, 2)) - 0.5)
    y2 = TWO_PI * rng.random(outer_samples)
    d2 = np.sum((x2 - x1) ** 2, axis=1)
    acc = np.nonzero((d2 <= (3.0 * r) ** 2) & in_unit_square(x2))[0]
    x1, y1, x2, y2 = x1[acc], y1[acc], x2[acc], y2[acc]

    # Regions counted at each location: the sectors on the out side, the
    # full disks (orientation-thinned through ``lam_eff``) on the in side.
    if side == "out":
        angle, e1, e2 = params.alpha, y1, y2
    else:
        angle, e1, e2 = TWO_PI, np.zeros(acc.size), np.zeros(acc.size)
    areas = clipped_sector_areas(np.concatenate((x1, x2)), np.concatenate((e1, e2)), angle, r)
    areas1, areas2 = np.split(areas, 2)
    prob1, prob2 = np.split(degree_set.poisson_prob(lam_eff * areas), 2)
    i1, i1_se = _mean_se(pref, outer_samples, acc, weight * prob1 * prob2)

    # Joint probabilities for I2. Count 1 is the out-degree at x1, shifted
    # when x2 sits in x1's sector; on the in side, the in-degree at x1,
    # shifted when x2's sector covers x1.
    c_area, o1_area, o2_area = decompose_regions(
        (x1, e1, angle), (x2, e2, angle), r, areas1, areas2
    )
    in_s1 = points_in_sector(x1, y1, params.alpha, r, x2)
    in_s2 = points_in_sector(x2, y2, params.alpha, r, x1)
    if side == "in":
        in_s1, in_s2 = in_s2, in_s1
    joint, truncation = joint_count_prob(
        lam_eff * c_area,
        lam_eff * o1_area,
        lam_eff * o2_area,
        in_s1 * (1.0 - params.q),
        in_s2 * (1.0 - params.q),
        degree_set,
        trunc_cap,
    )
    i2, i2_se = _mean_se(pref, outer_samples, acc, weight * joint)

    ew, ew_se = expected_count(params, degree_set, side, samples=ew_samples)
    factor = min(1.0, 1.0 / ew) if ew > 0.0 else 1.0
    bound_raw = factor * (i1 + i2)
    dfactor = 0.0 if ew <= 1.0 else 1.0 / (ew * ew)
    bound_se = math.sqrt(
        factor**2 * (i1_se**2 + i2_se**2) + (dfactor * (i1 + i2)) ** 2 * ew_se**2
    )
    return TVBoundReport(
        side=side,
        degree_set=degree_set.descriptor(),
        ew=ew,
        ew_se=ew_se,
        i1=i1,
        i1_se=i1_se,
        i2=i2,
        i2_se=i2_se,
        truncation_error=truncation,
        bound_raw=bound_raw,
        bound=min(1.0, bound_raw),
        bound_se=bound_se,
    )


def empirical_tv(samples, mean: float) -> float:
    """Half L1 distance between the empirical law of integer samples and
    ``Poi(mean)``, with the Poisson mass beyond the sample maximum included
    in full."""
    values = np.asarray(samples, dtype=np.int64)
    if values.size == 0:
        raise ValueError("samples must be nonempty")
    if mean <= 0.0:
        raise ValueError("mean must be positive")
    counts = np.bincount(values)
    emp = counts / values.size
    pois = poisson.pmf(np.arange(counts.size), mean)
    tail = float(poisson.upper_tail(mean, counts.size))
    return 0.5 * (float(np.sum(np.abs(emp - pois))) + tail)


def bootstrap_se(statistic, samples: tuple[np.ndarray, ...], rng: np.random.Generator) -> float:
    """Standard deviation of ``statistic`` over ``BOOTSTRAP_REPLICATES``
    bootstrap replicates. Each replicate resamples every array of
    ``samples`` with replacement, in order, and passes them on."""
    reps = np.empty(BOOTSTRAP_REPLICATES)
    for b in range(BOOTSTRAP_REPLICATES):
        reps[b] = statistic(*(s[rng.integers(0, s.size, s.size)] for s in samples))
    return float(np.std(reps))


def empirical_tv_bootstrap_se(samples, mean: float, seed: int = 0) -> float:
    """Bootstrap standard error of ``empirical_tv`` over
    ``BOOTSTRAP_REPLICATES`` resamples of the data."""
    values = np.asarray(samples, dtype=np.int64)
    return bootstrap_se(lambda v: empirical_tv(v, mean), (values,), substream(seed, _DOM_BOOT))
