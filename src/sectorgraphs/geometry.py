"""Planar primitives on the unit square: sectors, clipped areas, grid index.

All geometry lives in ``Q = [0, 1]^2`` with the Euclidean norm. A sector is
the set of points within ``radius`` of its apex whose displacement angle,
measured anticlockwise from horizontal, falls in the half-open arc
``[elevation, elevation + central_angle)`` taken mod ``2*pi``. The apex
itself is excluded.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Sectors per block of ``clipped_sector_areas`` samples; fixed, so the
# order of the random draws is too.
_AREA_CHUNK = 512

# Apexes per block of ``ordered_pairs_within``; the output does not
# depend on it.
_PAIR_CHUNK = 8192


@dataclass(frozen=True)
class Point2:
    """A point of the unit square."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"point ({self.x}, {self.y}) outside [0,1]^2")


@dataclass(frozen=True)
class Sector:
    """Circular sector with apex, anticlockwise elevation, angle and radius.

    ``central_angle == 2*pi`` makes the sector the full disk around the apex.
    """

    apex: Point2
    elevation: float
    central_angle: float
    radius: float

    def __post_init__(self):
        if not (0.0 <= self.elevation < TWO_PI):
            raise ValueError(f"elevation {self.elevation} outside [0, 2*pi)")
        if not (0.0 < self.central_angle <= TWO_PI):
            raise ValueError(f"central_angle {self.central_angle} outside (0, 2*pi]")
        if not self.radius > 0.0:
            raise ValueError(f"radius {self.radius} must be positive")

    @classmethod
    def disk(cls, apex: Point2, radius: float) -> "Sector":
        return cls(apex=apex, elevation=0.0, central_angle=TWO_PI, radius=radius)

    @property
    def area(self) -> float:
        """Unclipped area, ``central_angle / 2 * radius**2``."""
        return 0.5 * self.central_angle * self.radius**2


def angle_in_arc(dx, dy, elevation, width):
    """True where the direction of ``(dx, dy)`` lies in ``[elevation, elevation+width) mod 2*pi``.

    Broadcasts over array inputs; ``width`` is a scalar. ``width >= 2*pi``
    always passes, without evaluating the angle: ``np.mod`` can round a tiny
    negative relative angle up to exactly ``2*pi``.
    """
    if width >= TWO_PI:
        shape = np.broadcast_shapes(np.shape(dx), np.shape(dy), np.shape(elevation))
        return np.ones(shape, dtype=bool)
    rel = np.mod(np.arctan2(dy, dx) - elevation, TWO_PI)
    return rel < width


def points_in_sector(
    apex_xy: np.ndarray,
    elevation,
    central_angle: float,
    radius: float,
    points: np.ndarray,
) -> np.ndarray:
    """Sector membership over the last axis being (x, y).

    ``apex_xy``, ``elevation`` and ``points`` broadcast against each other;
    a point equal to its apex is excluded. The arc test runs only on the
    points with ``0 < d2 <= radius**2``, and not at all for the full disk.
    """
    delta = np.asarray(points, dtype=float) - np.asarray(apex_xy, dtype=float)
    dx, dy, elev = np.broadcast_arrays(delta[..., 0], delta[..., 1], elevation)
    d2 = dx**2 + dy**2
    inside = np.asarray((d2 > 0.0) & (d2 <= radius * radius))  # an array even for one point
    if central_angle < TWO_PI:
        inside[inside] = angle_in_arc(dx[inside], dy[inside], elev[inside], central_angle)
    return inside


def sector_contains(s: Sector, p: Point2) -> bool:
    """One-point ``points_in_sector``."""
    return bool(
        points_in_sector((s.apex.x, s.apex.y), s.elevation, s.central_angle, s.radius, (p.x, p.y))
    )


def in_unit_square(points: np.ndarray) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    return (
        (p[..., 0] >= 0.0) & (p[..., 0] <= 1.0) & (p[..., 1] >= 0.0) & (p[..., 1] <= 1.0)
    )


def draw_sector_uniforms(
    sectors: int,
    samples: int,
    rng: np.random.Generator,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``sector_points``: ``(sectors, samples)`` radius
    uniforms, then as many angle uniforms.

    Returns the radius uniforms and a ``(2, rows, samples)`` buffer with
    the angle uniforms in plane 1, for the sectors ``keep`` (increasing
    row numbers; all by default). When every row is kept the angle
    uniforms are drawn straight into the buffer.
    """
    rad = rng.random((sectors, samples))
    if keep is None or keep.size == sectors:
        planes = np.empty((2, sectors, samples))
        rng.random(out=planes[1])
        return rad, planes
    planes = np.empty((2, keep.size, samples))
    planes[1] = rng.random((sectors, samples))[keep]
    return rad[keep], planes


def sector_points(
    apex_xy: np.ndarray,
    elevation: np.ndarray,
    central_angle: float,
    radius: float,
    rad: np.ndarray,
    planes: np.ndarray,
    part: slice,
) -> np.ndarray:
    """Uniform points of sectors by area-preserving polar sampling, in place.

    Turns rows ``part`` of the uniforms from ``draw_sector_uniforms`` into
    points: distance ``radius * sqrt(u)``, direction ``elevation +
    central_angle * u'``, x into plane 0 of ``planes`` and y over the
    angles in plane 1. ``apex_xy`` and ``elevation`` hold one sector per
    row of ``rad``. Returns the part's points as a ``(rows, samples, 2)``
    view of ``planes``, the last axis being (x, y). Distinct parts touch
    distinct rows, so they may run on different threads.
    """
    r = rad[part]
    np.sqrt(r, out=r)
    r *= radius
    x, y = planes[:, part]
    y *= central_angle
    y += elevation[part, None]
    np.cos(y, out=x)
    np.sin(y, out=y)
    x *= r
    x += apex_xy[part, 0, None]
    y *= r
    y += apex_xy[part, 1, None]
    return np.moveaxis(planes[:, part], 0, -1)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def row_parts():
    """Yields ``run(work, rows)``, which calls ``work(part)`` on contiguous,
    disjoint slices ``part`` that cover ``range(rows)``: one per CPU, never
    more than ``rows``.

    The first part runs on the calling thread and the others at the same
    time on helper threads. ``run`` returns once every part is done, and
    raises if any part raised. The helper threads end when the context
    exits, so none is left when a caller later forks; with one CPU, or
    only single-row calls, none starts.
    """
    cpus = _cpu_count()
    if cpus == 1:
        yield lambda work, rows: work(slice(0, rows))
        return
    from concurrent.futures.thread import ThreadPoolExecutor  # imported on use

    with ThreadPoolExecutor(cpus - 1) as pool:

        def run(work, rows):
            k = max(1, min(cpus, rows))
            edges = [rows * i // k for i in range(k + 1)]
            helpers = [pool.submit(work, slice(a, b)) for a, b in zip(edges[1:-1], edges[2:])]
            try:
                work(slice(0, edges[1]))
            finally:
                for h in helpers:
                    h.result()

        yield run


def clipped_sector_areas(
    apex_xy: np.ndarray,
    elevation: np.ndarray,
    central_angle: float,
    radius: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo ``|sector ∩ [0,1]^2|`` for many sectors sharing angle and radius.

    Each clipped row draws ``samples`` uniform points of its sector by
    area-preserving polar sampling and rejects them against the square, so
    its estimate is the sector area times a binomial fraction. Returns
    per-sector areas and standard errors. Rows whose enclosing disk is
    interior to the square are exact with zero error; the rest share no
    samples, so row errors are independent.

    Threads: per block of ``_AREA_CHUNK`` clipped rows, every draw is made
    on the calling thread in a fixed order; then ``row_parts`` turns
    disjoint row ranges into points and fractions at the same time. A
    row's fraction is an exact 0/1 count over its own samples, so the
    result does not depend on the number of parts.
    """
    apex = np.asarray(apex_xy, dtype=float)
    elev = np.broadcast_to(np.asarray(elevation, dtype=float), apex.shape[:1]).copy()
    m = apex.shape[0]
    full = 0.5 * central_angle * radius * radius
    areas = np.full(m, full)
    ses = np.zeros(m)
    clipped = ~(
        (apex[:, 0] >= radius)
        & (apex[:, 0] <= 1.0 - radius)
        & (apex[:, 1] >= radius)
        & (apex[:, 1] <= 1.0 - radius)
    )
    idx = np.nonzero(clipped)[0]
    with row_parts() as run:
        for lo in range(0, idx.size, _AREA_CHUNK):
            rows = idx[lo : lo + _AREA_CHUNK]
            rad, planes = draw_sector_uniforms(rows.size, samples, rng)
            block_apex, block_elev = apex[rows], elev[rows]

            def work(part):
                pts = sector_points(
                    block_apex, block_elev, central_angle, radius, rad, planes, part
                )
                frac = in_unit_square(pts).mean(axis=1)
                areas[rows[part]] = full * frac
                ses[rows[part]] = full * np.sqrt(frac * (1.0 - frac) / samples)

            run(work, rows.size)
    return areas, ses


def clipped_area(
    s: Sector, samples: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """One-row ``clipped_sector_areas``, deterministic for a fixed ``seed``."""
    areas, ses = clipped_sector_areas(
        np.array([[s.apex.x, s.apex.y]]),
        s.elevation,
        s.central_angle,
        s.radius,
        samples,
        np.random.Generator(np.random.PCG64(seed)),
    )
    return float(areas[0]), float(ses[0])


@dataclass
class GridIndex:
    """Points sorted by grid cell, for pair enumeration by key ranges.

    Cell ``(cx, cy)`` has the int64 key ``(cx + 1) * stride + cy + 1``, so
    the cell above is ``key + 1`` and the next column starts at
    ``key + stride``. ``_keys`` holds every point's key in ascending order
    and ``_order`` the point index at each key position; points of one
    cell keep their input order.
    """

    cell_size: float
    count: int
    _keys: np.ndarray = field(repr=False)
    _order: np.ndarray = field(repr=False)
    _stride: int = field(repr=False)


def _cell_keys(points: np.ndarray, cell_size: float, stride: int) -> np.ndarray:
    cells = np.floor(points / cell_size).astype(np.int64)
    return (cells[:, 0] + 1) * stride + (cells[:, 1] + 1)


def build_index(points: np.ndarray, cell_size: float) -> GridIndex:
    """Index an ``(N, 2)`` array of points on a grid of the given cell size
    (must be positive).

    Keys are below ``stride**2``, so when ``stride**2 * N < 2**63`` one
    sort of the distinct int64 values ``key * N + i`` gives the keys and
    their stable order; otherwise a stable ``argsort`` gives the same.
    """
    if not cell_size > 0.0:
        raise ValueError("cell_size must be positive")
    xy = np.asarray(points, dtype=float)
    n = xy.shape[0]
    stride = int(math.floor(1.0 / cell_size)) + 4
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return GridIndex(cell_size, 0, empty, empty, stride)
    keys = _cell_keys(xy, cell_size, stride)
    if stride * stride * n < 2**63:
        keys, order = np.divmod(np.sort(keys * n + np.arange(n, dtype=np.int64)), n)
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    return GridIndex(cell_size, n, keys, order, stride)


def _next_column_bounds(ukey, bound, stride):
    """``start(key + stride - 1)`` and ``stop(key + stride + 1)`` for each
    distinct key: the key positions of the next column's three cells.

    Those cells hold at most three distinct keys, so the stop is found by
    stepping at most three cells past the start, never past the last key.
    The stops overwrite the steps' positions: a fresh key-sized array there
    raised the peak RSS of repeated n = 10^6 graphs by about 6 MiB.
    """
    pos = np.searchsorted(ukey, ukey + (stride - 1))
    start = bound[pos]
    for _ in range(3):
        gap = np.take(ukey, pos, mode="clip")
        gap -= ukey
        pos += (gap <= stride + 1) & (pos < ukey.size)
    return start, np.take(bound, pos, out=pos)


def ordered_pairs_within(
    idx: GridIndex,
    points: np.ndarray,
    radius: float,
    orientations: np.ndarray | None = None,
    alpha: float = TWO_PI,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs ``(i, j)``, ``i != j``, with ``|p_i - p_j| <= radius``.

    ``points`` is the ``(N, 2)`` array ``idx`` was built from; requires
    ``radius <= cell_size``. Without ``orientations`` every such pair is
    returned, coincident points included. With ``orientations`` (one per
    point), ``(i, j)`` is kept only when ``p_j`` lies in the sector of
    angle ``alpha`` at apex ``p_i`` with elevation ``orientations[i]``,
    as ``points_in_sector`` decides it: a point at squared distance 0 from
    the apex is excluded.

    Order: blocks by the column offset of ``j``'s cell from ``i``'s
    (``-1, 0, 1``); within a block, by ``i`` and then by the position of
    ``j`` in the sorted keys. The order is restored by sorting the int64
    key ``(block * N + i) * N + pos_j``, which requires ``N < 1.7e9``.

    Each unordered pair is visited once, from its endpoint earlier in key
    order. The partners of the point at key position ``pos`` are two
    ranges of key positions: ``pos + 1 .. stop(key + 1)``, the rest of its
    cell and the cell above, and ``start(key + stride - 1) ..
    stop(key + stride + 1)``, the three cells of the next column. The
    bounds are found once per distinct cell: ``stop(key + 1)`` from the
    next distinct cell, ``start(key + stride - 1)`` by a search over the
    distinct keys, and ``stop(key + stride + 1)`` by counting the at most
    three distinct cells from there that still belong to the next column.
    Apexes are taken in blocks of ``_PAIR_CHUNK`` key
    positions, so temporaries stay O(block); the final sort makes the
    output independent of the block size. Both directions are tested
    from one ``(dx, dy)``; the reverse uses ``(-dx, -dy)``, which IEEE
    subtraction makes exact.
    """
    if radius > idx.cell_size:
        raise ValueError("radius must not exceed the index cell size")
    keys, order, n = idx._keys, idx._order, idx.count
    if orientations is not None:
        theta = np.asarray(orientations, dtype=float)
        if len(theta) != n:
            raise ValueError(f"{len(theta)} orientations for {n} indexed points")
        st = theta[order]
    xy = np.asarray(points, dtype=float)
    # Coordinates in key order: partner reads stay within neighbouring
    # cells instead of gathering from all of ``xy``.
    sx, sy = np.take(xy, order, axis=0).T
    # Distinct cells: the cell number of each key position, the key of
    # each cell, and ``bound[c] .. bound[c + 1]``, the positions of cell c.
    new = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    cell = np.cumsum(new) - 1
    head = np.flatnonzero(new)
    ukey = keys[head]
    bound = np.append(head, n)
    above = np.zeros(head.size, dtype=bool)
    above[:-1] = ukey[1:] == ukey[:-1] + 1
    stop_same = bound[np.arange(head.size) + 1 + above]
    start_next, stop_next = _next_column_bounds(ukey, bound, idx._stride)
    out = [np.empty(0, dtype=np.int64)]
    for lo in range(0, n, _PAIR_CHUNK):
        apex = np.arange(lo, min(lo + _PAIR_CHUNK, n), dtype=np.int64)
        c = cell[lo : lo + apex.size]
        # Same-column ranges first, then next-column ranges.
        first = np.concatenate((apex + 1, start_next[c]))
        counts = np.concatenate((stop_same[c], stop_next[c])) - first
        split = int(counts[: apex.size].sum())
        excl = np.cumsum(counts) - counts
        a = np.repeat(np.concatenate((apex, apex)), counts)
        b = np.arange(a.size, dtype=np.int64) + np.repeat(first - excl, counts)
        dx = sx[b] - sx[a]
        dy = sy[b] - sy[a]
        d2 = dx * dx + dy * dy
        near = d2 <= radius * radius
        if orientations is not None:
            near &= d2 > 0.0  # the apex rule of ``points_in_sector``
        near = np.nonzero(near)[0]
        col = near >= split
        a, b, dx, dy = a[near], b[near], dx[near], dy[near]
        if orientations is None:
            fwd = rev = slice(None)
        else:
            fwd = angle_in_arc(dx, dy, st[a], alpha)
            rev = angle_in_arc(-dx, -dy, st[b], alpha)
        # a -> b lies in block ``col + 1`` and b -> a in block ``1 - col``.
        out.append((((col + 1) * n + order[a]) * n + b)[fwd])
        out.append((((1 - col) * n + order[b]) * n + a)[rev])
    block_i, pos_j = np.divmod(np.sort(np.concatenate(out)), max(n, 1))
    return block_i % n, order[pos_j]
