"""Poisson probabilities, the package's only ones: ``pmf(k, mean)`` and the
upper tail ``P(Poi(mean) >= j)``, on numpy and ``math`` alone.

Both broadcast over arrays and 0-d inputs; a scalar call is one row of the
vector routine and equals it bit for bit. The tail is a log-space series
away from the mode: ``sum_{i >= j} pmf(i)`` where ``mean < j``, else
``log1p(-sum_{i < j} pmf(i))``. It stops once every row's term is below
``1e-17`` of its sum: below half an ulp, as all later terms are, so extra
terms leave a row's bits alone and no row depends on the others.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_TAIL_STOP = 1e-17
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def pmf(k, mean) -> np.ndarray:
    """``P(Poi(mean) = k)`` for integers ``k >= 0`` and ``mean >= 0``; exact at mean 0."""
    k, mean = np.asarray(k, dtype=float), np.asarray(mean, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = k * np.log(mean) - mean - np.asarray(_lgamma(k + 1.0), dtype=float)
    return np.where(mean == 0.0, k == 0.0, np.exp(logp))


def _tail_log(mean: np.ndarray, j, upward: bool) -> np.ndarray:
    """Tail of the rows with ``mean < j`` (``upward``) or ``mean >= j``; ``j`` is one or per row."""
    start = j if upward else j - 1.0
    one_j = np.ndim(j) == 0
    # A row's term over its sum grows with its mean upward and falls with it
    # downward, so with one ``j`` only the row that stops last is watched.
    watch = (np.argmax(mean) if upward else np.argmin(mean)) if one_j else slice(None)
    with np.errstate(divide="ignore"):
        lead = -mean + start * np.log(mean) - np.asarray(_lgamma(start + 1.0), dtype=float)
    acc, term = np.ones_like(mean), np.ones_like(mean)
    for n in itertools.count() if upward else range(int(np.max(start))):
        term *= mean / (start + (n + 1.0)) if upward else np.maximum(start - n, 0.0) / mean
        acc += term
        done = term[watch] < _TAIL_STOP * acc[watch]
        if done if one_j else done.all():
            break
    series = lead + np.log(acc)
    return series if upward else np.log1p(-np.exp(series))


def upper_tail_log(mean, j) -> np.ndarray:
    """``log P(Poi(mean) >= j)`` for ``mean >= 0`` and integer ``j``:
    0 where ``j <= 0``, ``-inf`` where ``mean == 0 < j``."""
    mean, j = np.asarray(mean, dtype=float), np.asarray(j, dtype=float)
    if j.ndim:
        mean, j = np.broadcast_arrays(mean, j)
    out = np.zeros(mean.shape)
    up = mean < j
    for rows, upward in ((up, True), (~up & (j > 0.0), False)):
        if rows.any():
            out[rows] = _tail_log(mean[rows], j[rows] if j.ndim else float(j), upward)
    return out


def upper_tail(mean, j) -> np.ndarray:
    """``P(Poi(mean) >= j)``, broadcast; underflows to 0 below the float range."""
    return np.exp(upper_tail_log(mean, j))
