"""Analytic quantities of the model: mean degree and the two-point
focusing prediction for the maximum out/in-degree. The Poisson tails
are scalar calls of ``poisson.upper_tail``.

For mean degree ``mu = (alpha/2) * n * r**2 * (1-v) * (1-q)`` bounded away
from zero and growing slower than any power of ``ln n``, the maximum degree
concentrates on two consecutive integers ``k-1`` and ``k``. The index ``j``
is the smallest integer with ``n * P(Poi(mu) >= j) <= 1/(1-v)``; ``k`` is
``j-1`` or ``j`` depending on a threshold rule, and the limiting masses are
``exp(-a)`` at ``k-1`` and ``1 - exp(-a)`` at ``k`` with
``a = n * (1-v) * P(Poi(mu) >= k)``. The same Poisson approximation of the
number of alive vertices of degree ``>= m`` gives ``max_degree_law``, the
law at every threshold ``m``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import poisson
from .model import ModelParams

# Convention used by every report: the lower mass sits at k-1.
TWO_POINT_CONVENTION = (
    "P(max = k-1) -> exp(-a), P(max = k) -> 1 - exp(-a), "
    "a = n*(1-v)*P(Poi(mu) >= k)"
)


class RadiusOutOfRange(ValueError):
    """Requested mean degree needs a radius at or above 0.5."""


class NoFocusingIndex(ValueError):
    """No two-point law at these parameters: n*(1-v) <= 1, or a mean degree not in (0, inf)."""


@dataclass(frozen=True)
class FocusingPrediction:
    """Two-point limit law of the maximum degree (either side, either mode)."""

    mu: float
    j: int
    k: int
    xi_k: float
    a: float
    p_km1: float
    p_k: float


def _tail(mu: float, j: int) -> float:
    return float(poisson.upper_tail(mu, j))


def _first_index(test) -> int:
    """The least integer ``j >= 1`` that passes ``test``, a test that every
    larger integer then passes too: a doubling search, then a bisection,
    so ``O(log j)`` calls instead of a scan's ``j``."""
    lo, hi = 0, 1
    while not test(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if test(mid) else (mid, hi)
    return hi


def mean_degree(params: ModelParams) -> float:
    """``(alpha/2) * n * r**2 * (1-v) * (1-q)``; also the asymptotic mean
    out-degree of an interior alive vertex."""
    p = params
    return 0.5 * p.alpha * p.n * p.r * p.r * (1.0 - p.v) * (1.0 - p.q)


def radius_for_mean_degree(
    n: int, alpha: float, v: float, q: float, mu_target: float
) -> float:
    """Radius r < 0.5 that makes ``mean_degree`` equal ``mu_target``."""
    if not mu_target > 0.0:
        raise ValueError("mu_target must be positive")
    r = math.sqrt(2.0 * mu_target / (alpha * n * (1.0 - v) * (1.0 - q)))
    if r >= 0.5:
        raise RadiusOutOfRange(
            f"mu_target {mu_target} needs r = {r:.6g} >= 0.5 at n = {n}"
        )
    return r


def focusing_index(n: int, v: float, mu: float) -> tuple[int, int]:
    """The pair ``(j, k)`` locating the two-point concentration.

    ``j`` is the smallest integer with ``n * tail(j) <= 1/(1-v)`` (it exists
    and is >= 1 when ``n*(1-v) > 1`` since ``tail(0) = 1``); ``k = j-1``
    when ``j > 1`` and ``(1-v)*n*tail(j) <= sqrt(tail(j)/tail(j-1))``, else
    ``k = j``, so ``k >= 1``. Exact threshold equality keeps ``k = j-1``.
    """
    if not n * (1.0 - v) > 1.0:
        raise NoFocusingIndex(f"n*(1-v) = {n * (1.0 - v):.6g} must exceed 1")
    if not 0.0 < mu < math.inf:
        raise NoFocusingIndex(f"mean degree {mu:.6g} must be positive and finite")
    bound = 1.0 / (1.0 - v)
    j = _first_index(lambda i: n * _tail(mu, i) <= bound)
    xi_j, xi_prev = _tail(mu, j), _tail(mu, j - 1)
    k = j - 1 if j > 1 and (1.0 - v) * n * xi_j <= math.sqrt(xi_j / xi_prev) else j
    return j, k


def predict(params: ModelParams, k: int | None = None) -> FocusingPrediction:
    """Assemble the two-point prediction for the given parameters.

    Applies to the maximum out-degree and in-degree alike, in both
    point-process modes. A given ``k`` replaces the focusing index in the
    law (``j`` is still the one computed) and must be an integer of at
    least 1 (``operator.index``); ``None`` uses the focusing index.
    """
    if k is not None and operator.index(k) < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    mu = mean_degree(params)
    j, k_focus = focusing_index(params.n, params.v, mu)
    k = k_focus if k is None else operator.index(k)
    xi_k = _tail(mu, k)
    a = params.n * (1.0 - params.v) * xi_k
    p_km1 = math.exp(-a)
    return FocusingPrediction(mu=mu, j=j, k=k, xi_k=xi_k, a=a, p_km1=p_km1, p_k=1.0 - p_km1)


def max_degree_law(params: ModelParams) -> dict[int, float]:
    """The law of the maximum degree that ``predict``'s approximation gives
    at every threshold: ``P(max <= m) ~ exp(-a_{m+1})`` with
    ``a_m = n*(1-v)*P(Poi(mu) >= m)``.

    Maps ``m`` to ``exp(-a_{m+1}) - exp(-a_m)``; ``m = 0`` gets
    ``exp(-a_1)``, graphs with no arc included. The keys run from the
    first ``m`` whose cdf reaches ``1e-10`` to the first whose cdf
    exceeds ``1 - 1e-10``.
    """
    mu = mean_degree(params)

    def cdf(m: int) -> float:
        return math.exp(-params.n * (1.0 - params.v) * _tail(mu, m + 1))

    law: dict[int, float] = {}
    m = _first_index(lambda i: cdf(i - 1) >= 1e-10) - 1
    cdf_below = cdf(m - 1) if m else 0.0  # the cdf at m - 1
    while cdf_below <= 1.0 - 1e-10:
        cdf_m = cdf(m)
        law[m] = cdf_m - cdf_below
        m, cdf_below = m + 1, cdf_m
    return law
