"""Planar primitives on the unit square: sectors, clipped areas, grid index.

All geometry lives in ``Q = [0, 1]^2`` with the Euclidean norm. A sector is
the set of points within ``radius`` of its apex whose displacement angle,
measured anticlockwise from horizontal, falls in the half-open arc
``[elevation, elevation + central_angle)`` taken mod ``2*pi``. The apex
itself is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Apexes per block of ``ordered_pairs_within``; the output does not
# depend on it.
_PAIR_CHUNK = 8192
# ``ordered_pairs_within`` reads its range bounds from a table of
# ``stride**2`` cells only while that is at most ``8 * N`` plus this.
_TABLE_SLACK = 2**16


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


def in_unit_square(points: np.ndarray) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    return np.all((p >= 0.0) & (p <= 1.0), axis=-1)


@dataclass
class _Shape:
    """One shape of ``intersection_areas``: its anticlockwise boundary as
    segments ``(start, end)`` and arcs ``(centre, start angle, end
    angle)``, the lines ``(point, direction)`` and circle centres that
    carry its boundary, and its membership test ``contains(points,
    rows)`` of one point per given row."""

    segments: list
    arcs: list
    lines: list
    circles: list
    contains: Callable


def _unit(theta):
    return np.stack((np.cos(theta), np.sin(theta)), axis=-1)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _segment_cuts(p, v, lines, circles, radius):
    """Parameters ``t`` where ``p + t v`` crosses each line and circle;
    NaN or infinite where it does not."""
    cuts = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, d in lines:
            cuts.append(_cross(d, a - p) / _cross(d, v))
        for c in circles:
            w = p - c
            vv, vw = np.sum(v * v, axis=-1), np.sum(v * w, axis=-1)
            root = np.sqrt(vw * vw - vv * (np.sum(w * w, axis=-1) - radius * radius))
            cuts += [(-vw - root) / vv, (-vw + root) / vv]
    return cuts


def _arc_cuts(centre, start, lines, circles, radius):
    """Angles in ``[start, start + 2*pi)`` at which the circle of ``radius``
    around ``centre`` crosses each line and circle (of the same radius);
    NaN where it does not."""
    cuts = []
    with np.errstate(invalid="ignore"):
        for a, d in lines:
            phi = np.arctan2(d[..., 1], d[..., 0])
            s = np.arcsin(_cross(d, a - centre) / (radius * np.hypot(d[..., 0], d[..., 1])))
            cuts += [phi + s, phi + math.pi - s]
        for c in circles:
            delta = c - centre
            phi = np.arctan2(delta[..., 1], delta[..., 0])
            h = np.arccos(np.hypot(delta[..., 0], delta[..., 1]) / (2.0 * radius))
            cuts += [phi - h, phi + h]
    wrapped = []
    for t in cuts:
        d = t - start
        # NaN marks a miss; ``np.mod`` takes a slow path on NaN, so skip it.
        np.mod(d, TWO_PI, out=d, where=~np.isnan(d))
        wrapped.append(start + d)
    return wrapped


def _pieces(lo, hi, cuts):
    """The non-empty pieces of ``[lo, hi]`` split at the cuts: their ends
    ``a < b``, their flat indices ``live`` in the ``(m, count)`` array of
    all pieces, sorted per row, and ``count``. A cut outside the interval,
    or NaN, makes an empty piece at one end."""
    t = np.stack([np.broadcast_to(lo, hi.shape)] + cuts + [hi], axis=1)
    t = np.where(np.isnan(t), hi[:, None], np.clip(t, lo[:, None], hi[:, None]))
    t.sort(axis=1)
    count = t.shape[1] - 1
    live = np.flatnonzero(t[:, :-1] < t[:, 1:])
    start = live + live // count  # the piece's start in ``t``, one column wider
    return t.flat[start], t.flat[start + 1], live, count


def _row_sums(values, live, shape):
    """Row sums of the ``shape`` array that holds ``values`` at the flat
    indices ``live`` and ``+0`` elsewhere."""
    pieces = np.zeros(shape)
    pieces.flat[live] = values
    return np.sum(pieces, axis=1)


def intersection_areas(regions, radius: float) -> np.ndarray:
    """Exact ``|R_1 ∩ R_2 ∩ [0,1]^2|`` per row, by Green's theorem.

    ``regions`` holds one or two ``(apex_xy, elevation, central_angle)``
    of sectors of radius ``radius``: ``(m, 2)`` apexes, ``(m,)``
    elevations and one angle each; ``2*pi`` is the disk. The area is the
    integral of ``(x dy - y dx) / 2`` over the anticlockwise boundary
    pieces of the shapes (the square first, then the regions) that bound
    the intersection, closed-form for segments and arcs. Each boundary
    curve is cut where it crosses a line or circle carrying another
    shape's boundary, so each piece lies wholly inside or outside every
    other shape. Shape ``k``'s piece counts when, for every other shape
    ``j``, the point ``1e-9 * radius`` to the left of its midpoint lies in
    ``j``, and so does the point as far to the right whenever ``j < k``:
    a boundary shared by several shapes counts exactly once. The origin
    is the first apex, so the first region's radial edges add exactly 0
    and are left out.

    Only the non-empty pieces are evaluated; most are empty, since a cut
    that misses a curve leaves a piece of length 0 at one end. Their
    values are scattered into a zero ``(m, k)`` array that is summed per
    row, as all pieces were before: an empty piece's integral is exactly
    ``+0``, so each row adds the same values in the same order and keeps
    its bits (``test_intersection_areas_are_pinned``).
    """
    origin = np.asarray(regions[0][0], dtype=float)
    m = origin.shape[0]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    edges = list(zip(corners, np.roll(corners, -1, axis=0)))
    shapes = [
        _Shape(
            segments=[(np.broadcast_to(a, (m, 2)), np.broadcast_to(b, (m, 2))) for a, b in edges],
            arcs=[],
            lines=[(a, b - a) for a, b in edges],
            circles=[],
            contains=lambda p, rows: in_unit_square(p),
        )
    ]
    for i, (apex_xy, elevation, angle) in enumerate(regions):
        apex = np.asarray(apex_xy, dtype=float)
        elev = np.broadcast_to(np.asarray(elevation, dtype=float), (m,))
        ends = (elev, elev + angle)
        sides = angle < TWO_PI
        tips = [apex + radius * _unit(t) for t in ends]
        shapes.append(
            _Shape(
                segments=[(apex, tips[0]), (tips[1], apex)] if sides and i else [],
                arcs=[(apex, ends[0], ends[1])],
                lines=[(apex, _unit(t)) for t in ends] if sides else [],
                circles=[apex],
                contains=lambda p, rows, a=apex, e=elev, w=angle: points_in_sector(
                    a[rows], e[rows], w, radius, p
                ),
            )
        )

    total = np.zeros(m)
    offset = 1e-9 * radius
    for k, shape in enumerate(shapes):
        lines = [line for j, s in enumerate(shapes) if j != k for line in s.lines]
        circles = [c for j, s in enumerate(shapes) if j != k for c in s.circles]

        def bounding(mid, normal, rows):
            left, right = mid + offset * normal, mid - offset * normal
            keep = np.ones(len(rows), dtype=bool)
            for j, s in enumerate(shapes):
                if j != k:
                    keep &= s.contains(left, rows)
                    if j < k:
                        keep &= s.contains(right, rows)
            return keep

        for p, q in shape.segments:
            v = q - p
            a, b, live, count = _pieces(np.zeros(m), np.ones(m), _segment_cuts(p, v, lines, circles, radius))
            rows = live // count
            pr, vr = p[rows], v[rows]
            rel = pr - origin[rows]
            xa = rel + a[:, None] * vr
            xb = rel + b[:, None] * vr
            mid = pr + 0.5 * (a + b)[:, None] * vr
            normal = np.stack((-v[:, 1], v[:, 0]), axis=-1) / np.hypot(v[:, 0], v[:, 1])[:, None]
            keep = bounding(mid, normal[rows], rows)
            total += _row_sums(0.5 * _cross(xa, xb) * keep, live, (m, count))
        for c, t0, t1 in shape.arcs:
            a, b, live, count = _pieces(t0, t1, _arc_cuts(c, t0, lines, circles, radius))
            rows = live // count
            cx, cy = (c - origin)[rows].T
            green = radius * (
                radius * (b - a) + cx * (np.sin(b) - np.sin(a)) - cy * (np.cos(b) - np.cos(a))
            )
            u = _unit(0.5 * (a + b))
            keep = bounding(c[rows] + radius * u, -u, rows)
            total += _row_sums(0.5 * green * keep, live, (m, count))
    return total


def clipped_sector_areas(
    apex_xy: np.ndarray,
    elevation: np.ndarray,
    central_angle: float,
    radius: float,
) -> np.ndarray:
    """Exact ``|sector ∩ [0,1]^2|`` for many sectors sharing angle and radius.

    Rows whose enclosing disk is interior to the square get the full
    ``central_angle * radius**2 / 2``; the clipped rows get
    ``intersection_areas``.
    """
    apex = np.asarray(apex_xy, dtype=float)
    elev = np.broadcast_to(np.asarray(elevation, dtype=float), apex.shape[:1])
    areas = np.full(apex.shape[0], 0.5 * central_angle * radius * radius)
    clipped = ~np.all((apex >= radius) & (apex <= 1.0 - radius), axis=1)
    if clipped.any():
        areas[clipped] = intersection_areas(
            [(apex[clipped], elev[clipped], central_angle)], radius
        )
    return areas


@dataclass
class GridIndex:
    """Points sorted by grid cell, for sector arcs by key ranges.

    ``points`` is the ``(N, 2)`` array the index was built from (not a
    copy) and ``radius`` the side of its square cells. Cell ``(cx, cy)``
    has the int64 key ``(cx + 1) * stride + cy + 1``, so the cell above is
    ``key + 1`` and the next column starts at ``key + stride``. ``_keys``
    holds every point's key in ascending order and ``_order`` the point
    index at each key position; points of one cell keep their input order.
    """

    points: np.ndarray = field(repr=False)
    radius: float
    count: int
    _keys: np.ndarray = field(repr=False)
    _order: np.ndarray = field(repr=False)
    _stride: int = field(repr=False)


def _cell_keys(points: np.ndarray, cell_size: float, stride: int) -> np.ndarray:
    cells = np.floor(points / cell_size).astype(np.int64)
    return (cells[:, 0] + 1) * stride + (cells[:, 1] + 1)


def build_index(points: np.ndarray, radius: float) -> GridIndex:
    """Index an ``(N, 2)`` array of points of ``[0, 1]^2`` on a grid of
    cells of side ``radius`` (above about 3.3e-10, so int64 keys fit).

    Keys are below ``stride**2 < 2**63``, so when ``stride**2 * N < 2**63``
    one sort of the distinct int64 values ``key * N + i`` gives the keys
    and their stable order; otherwise a stable ``argsort`` gives the same.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    xy = np.asarray(points, dtype=float)
    n = xy.shape[0]
    # NaN fails both comparisons.
    if n and not (xy.min() >= 0.0 and xy.max() <= 1.0):
        raise ValueError("points must lie in [0, 1]^2")
    stride = int(math.floor(1.0 / radius)) + 4
    if stride * stride >= 2**63:
        raise ValueError("radius too small: cell keys would overflow int64")
    keys = _cell_keys(xy, radius, stride)
    if stride * stride * n < 2**63:
        keys, order = np.divmod(np.sort(keys * n + np.arange(n, dtype=np.int64)), n)
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    return GridIndex(xy, radius, n, keys, order, stride)


def ordered_pairs_within(
    idx: GridIndex, orientations: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sector arcs ``(i, j)`` among the indexed points.

    ``(i, j)`` is kept when ``p_j`` lies in the sector of radius
    ``idx.radius`` and angle ``alpha`` at apex ``p_i`` with elevation
    ``orientations[i]`` (one per point), as ``points_in_sector`` decides
    it: ``0 < d2 <= radius**2``, so a point coincident with the apex is
    excluded.

    Order: blocks by the column offset of ``j``'s cell from ``i``'s
    (``-1, 0, 1``); within a block, by ``i`` and then by the position of
    ``j`` in the sorted keys. The order is restored by sorting the int64
    key ``(block * N + i) * N + pos_j``, which requires ``N < 1.7e9``.

    Each unordered pair is visited once, from its endpoint earlier in key
    order. The partners of the point at key position ``pos`` are two
    ranges of key positions: ``pos + 1 .. stop[key + 1]``, the rest of its
    cell and the cell above, and ``stop[key + stride - 2] .. stop[key +
    stride + 1]``, the three cells of the next column, where ``stop[k]``
    is the number of keys ``<= k``. While ``stride**2 <= 8 * N +
    _TABLE_SLACK``, ``stop`` is one table ``cumsum(bincount(keys))``;
    points of ``[0, 1]^2`` have ``stride + 1 <= key <= stride**2 - 2 *
    stride - 3``, so every read stays inside it. Sparser grids, where a
    table costs more memory than a search for little speed, search each
    block's bounds among the keys from its first position to its last
    stop. In the model ``stride**2 / N`` is about ``alpha (1 - q) / (2
    mu)``, so the table serves mean degrees ``mu >= alpha (1 - q) / 16``
    and, through the slack, sparser grids of small ``N``. Apexes are taken
    in blocks of ``_PAIR_CHUNK`` key positions, so temporaries stay
    O(block); the final sort makes the output independent of the block
    size. Both directions are tested from one ``(dx, dy)``; the reverse
    uses ``(-dx, -dy)``, which IEEE subtraction makes exact.
    """
    keys, order, n, stride = idx._keys, idx._order, idx.count, idx._stride
    theta = np.asarray(orientations, dtype=float)
    if len(theta) != n:
        raise ValueError(f"{len(theta)} orientations for {n} indexed points")
    st = theta[order]
    # Coordinates in key order: partner reads stay within neighbouring
    # cells instead of gathering from all of the points.
    sx, sy = np.take(idx.points, order, axis=0).T
    table = None
    if stride * stride <= 8 * n + _TABLE_SLACK:
        table = np.bincount(keys, minlength=stride * stride)
        np.cumsum(table, out=table)
    # Per apex: the stops of the cell above and of the next column, its start.
    offset = np.array([[1], [stride + 1], [stride - 2]])
    r2 = idx.radius * idx.radius
    out = [np.empty(0, dtype=np.int64)]
    for lo in range(0, n, _PAIR_CHUNK):
        key = keys[lo : lo + _PAIR_CHUNK]
        m = key.size
        if table is None:
            # Every bound lies between ``lo`` and the last apex's last stop.
            hi = np.searchsorted(keys, key[-1] + stride + 1, side="right")
            bounds = np.searchsorted(keys[lo:hi], key + offset, side="right") + lo
        else:
            bounds = table[key + offset]
        # Same-column ranges first, then next-column ranges.
        first = np.concatenate((np.arange(lo + 1, lo + m + 1), bounds[2]))
        counts = bounds[:2].ravel() - first
        split = int(counts[:m].sum())
        excl = np.cumsum(counts) - counts
        # One repeat of the range ids: ``b`` walks each range from its
        # first position, and range ``k`` belongs to apex ``lo + k mod m``.
        a = np.repeat(np.arange(2 * m), counts)
        b = np.arange(a.size) + (first - excl)[a]
        a[split:] -= m
        a += lo
        dx = sx[b] - sx[a]
        dy = sy[b] - sy[a]
        d2 = dx * dx + dy * dy
        near = np.nonzero((d2 > 0.0) & (d2 <= r2))[0]
        col = near >= split
        a, b, dx, dy = a[near], b[near], dx[near], dy[near]
        fwd = angle_in_arc(dx, dy, st[a], alpha)
        rev = angle_in_arc(-dx, -dy, st[b], alpha)
        # a -> b lies in block ``col + 1`` and b -> a in block ``1 - col``.
        out.append((((col + 1) * n + order[a]) * n + b)[fwd])
        out.append((((1 - col) * n + order[b]) * n + a)[rev])
    # Free the key-order copies and the table before the final sort, the peak.
    del sx, sy, st, table
    block_i, pos_j = np.divmod(np.sort(np.concatenate(out)), n)
    return block_i % n, order[pos_j]
