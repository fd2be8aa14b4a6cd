"""Planar primitives on the unit square: sectors, clipped areas, grid index.

All geometry lives in ``Q = [0, 1]^2`` with the Euclidean norm. A sector is
the set of points within ``radius`` of its apex whose displacement angle,
measured anticlockwise from horizontal, falls in the half-open arc
``[elevation, elevation + central_angle)`` taken mod ``2*pi``. The apex
itself is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Apexes per block of ``ordered_pairs_within``; the output does not
# depend on it.
_PAIR_CHUNK = 8192
# ``build_index`` keeps cells of side ``radius`` only while their
# ``stride**2`` keys are at most ``2 * N`` plus this.
_TABLE_SLACK = 2**16
# The low 30 bits of an int64 sort key hold a point index, below ``2**30``.
_LOW30 = 2**30 - 1


def _wrap(t):
    """``np.mod(t, 2*pi)`` bit for bit on ``[-4*pi, 4*pi)``, NaN kept: ``t + k
    * 2*pi`` with ``k = (t < 0) + (t < -2*pi) - (t >= 2*pi)``. ``np.mod`` adds
    ``2*pi`` to a negative exact ``fmod``, here ``t`` or ``t -/+ 2*pi`` by
    Sterbenz's lemma, so both round ``t + k * 2*pi`` once; zero gives ``+0.0``."""
    k = (t < 0.0).view(np.int8) + (t < -TWO_PI).view(np.int8) - (t >= TWO_PI).view(np.int8)
    return t + k * TWO_PI


def _check_elevation(elevation) -> np.ndarray:
    """``elevation`` as a float array, all in ``[0, 2*pi]`` (NaN fails)."""
    elev = np.asarray(elevation, dtype=float)
    if elev.size and not (elev.min() >= 0.0 and elev.max() <= TWO_PI):
        raise ValueError("elevation must lie in [0, 2*pi]")
    return elev


def angle_in_arc(dx, dy, elevation, width):
    """True where the direction of ``(dx, dy)`` lies in ``[elevation, elevation+width) mod 2*pi``.

    Broadcasts over array inputs; ``width`` is a scalar. An elevation
    outside ``[0, 2*pi]``, or NaN, raises ``ValueError``; inside it, the
    relative angle lies in ``[-3*pi, pi]``, where ``_wrap`` is exact.
    ``width >= 2*pi`` always passes, without evaluating the angle: the
    reduction can round a tiny negative relative angle up to ``2*pi``.
    """
    elev = _check_elevation(elevation)
    if width >= TWO_PI:
        shape = np.broadcast_shapes(np.shape(dx), np.shape(dy), elev.shape)
        return np.ones(shape, dtype=bool)
    return _wrap(np.arctan2(dy, dx) - elev) < width


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
    return [start + _wrap(t - start) for t in cuts]


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
    elevations in ``[0, 2*pi]`` (else ``ValueError``) and one angle each;
    ``2*pi`` is the disk. The area is the
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
        elev = np.broadcast_to(_check_elevation(elevation), (m,))
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


def _cell_keys(points: np.ndarray, cell_size: float, stride: int) -> np.ndarray:
    """The int64 cell keys of the float ``(m, 2)`` array ``points``, which
    is overwritten: the arithmetic runs in place, in floats that stay
    integers below ``stride**2 < 2**53`` and so are exact."""
    np.floor(np.divide(points, cell_size, out=points), out=points)
    points += 1.0
    x, y = points.T
    x *= stride
    x += y
    return x.astype(np.int64)


def build_index(points: np.ndarray, ids: np.ndarray, radius: float):
    """Index the points ``points[ids]`` of ``[0, 1]^2``: ``points`` is an
    ``(N, 2)`` array with ``N < 2**30`` and ``ids`` strictly ascends in
    ``[0, N)``. Returns ``(keys, order, stride, cell)``.

    Cell ``(cx, cy)`` of side ``cell`` has the int64 key ``(cx + 1) *
    stride + cy + 1``, so the cell above is ``key + 1`` and the next
    column starts at ``key + stride``. ``keys`` holds every indexed
    point's key in ascending order and ``order`` the id at each key
    position; the ids of one cell keep their ascending order. The grid
    has ``stride**2 <= 2 * len(ids) + _TABLE_SLACK`` keys: cells of side
    ``radius`` while ``stride = floor(1 / radius) + 4`` fits that budget,
    otherwise the finest grid that fits, of ``stride = isqrt(2 *
    len(ids) + _TABLE_SLACK)`` and side ``1 / (stride - 4) > radius``.
    One sort of the distinct int64 values ``key << 30 | id``, below
    ``2**62``, gives the keys and their stable order.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    xy = np.asarray(points, dtype=float)
    # Checked before ``ids`` is read, so a view of 2**30 points costs nothing.
    if len(xy) >= 2**30:
        raise ValueError("too many points: int64 sort keys need N < 2**30")
    ids = np.asarray(ids).astype(np.int64, casting="safe", copy=False)
    if ids.ndim != 1 or ids.size and not (0 <= ids[0] and ids[-1] < len(xy) and np.all(ids[:-1] < ids[1:])):
        raise ValueError("ids must ascend strictly within [0, N)")
    sub = np.take(xy, ids, axis=0)
    # NaN fails both comparisons.
    if ids.size and not (sub.min() >= 0.0 and sub.max() <= 1.0):
        raise ValueError("points must lie in [0, 1]^2")
    stride = math.isqrt(2 * ids.size + _TABLE_SLACK)
    per_side = 1.0 / float(radius)  # inf for the smallest radii
    if per_side < stride - 3:
        stride, cell = int(per_side) + 4, radius
    else:
        cell = 1.0 / (stride - 4)
    # ``sub`` is this call's own copy, so the keys are made in place in it.
    packed = _cell_keys(sub, cell, stride)
    packed <<= 30
    packed |= ids
    packed.sort()
    order = packed & _LOW30
    packed >>= 30
    return packed, order, stride, cell


def ordered_pairs_within(
    points: np.ndarray, ids: np.ndarray, orientations: np.ndarray, radius: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sector arcs ``(i, j)`` among the points ``points[ids]``, in ids.

    ``points``, ``ids`` and ``radius`` are as ``build_index`` takes them,
    and ``orientations`` holds one elevation per point of ``points``.
    ``(i, j)`` is kept when ``p_j`` lies in the sector of radius
    ``radius`` and angle ``alpha`` at apex ``p_i`` with elevation
    ``orientations[i]``, as ``points_in_sector`` decides it: ``0 < d2 <=
    radius**2``, so a point coincident with the apex is excluded.

    Order: ascending ``(i, j)``, the natural edge-list order, whatever
    the grid: the arcs are sorted by the int64 key ``i << 30 | j``, which
    ``N < 2**30`` keeps below ``2**60``.

    Each unordered pair is visited once, from its endpoint earlier in key
    order. Cells are at least ``radius`` wide, so the partners of the
    point at key position ``pos`` are two ranges of key positions: ``pos
    + 1 .. stop[key + 1]``, the rest of its cell and the cell above, and
    ``stop[key + stride - 2] .. stop[key + stride + 1]``, the three cells
    of the next column, where ``stop[k]`` is the number of keys ``<= k``.
    ``stop`` is one table ``cumsum(bincount(keys))`` of ``stride**2``
    entries; points of ``[0, 1]^2`` have ``stride + 1 <= key <= stride**2
    - 2 * stride - 3``, so every read stays inside it. Apexes are taken
    in blocks of ``_PAIR_CHUNK`` key positions, so temporaries stay
    O(block); the final sort makes the output independent of the block
    size. Both directions are tested from one ``(dx, dy)``; the reverse
    uses ``(-dx, -dy)``, which IEEE subtraction makes exact.
    """
    keys, order, stride, _ = build_index(points, ids, radius)
    theta = np.asarray(orientations, dtype=float)
    if len(theta) != len(points):
        raise ValueError(f"{len(theta)} orientations for {len(points)} points")
    st = theta[order]
    # Coordinates in key order: partner reads stay within neighbouring
    # cells instead of gathering from all of the points.
    sx, sy = np.take(points, order, axis=0).T
    table = np.bincount(keys, minlength=stride * stride)
    np.cumsum(table, out=table)
    # Per apex: the stops of the cell above and of the next column, its start.
    offset = np.array([[1], [stride + 1], [stride - 2]])
    r2 = radius * radius
    out = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(keys), _PAIR_CHUNK):
        bounds = table[keys[lo : lo + _PAIR_CHUNK] + offset]
        m = bounds.shape[1]
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
        a, b, dx, dy = a[near], b[near], dx[near], dy[near]
        fwd = angle_in_arc(dx, dy, st[a], alpha)
        rev = angle_in_arc(-dx, -dy, st[b], alpha)
        i, j = order[a], order[b]
        # Several times faster than a boolean index.
        out.append(np.compress(fwd, (i << 30) | j))
        out.append(np.compress(rev, (j << 30) | i))
    # Free the index and its key-order copies before the final sort, the peak.
    del keys, order, sx, sy, st, table
    arcs = np.sort(np.concatenate(out))
    return arcs >> 30, arcs & _LOW30
