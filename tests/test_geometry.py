import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import eager_points_in_sector, sampled_clipped_areas
from sectorgraphs import geometry
from sectorgraphs.geometry import (
    _cell_keys,
    TWO_PI,
    angle_in_arc,
    build_index,
    clipped_sector_areas,
    intersection_areas,
    ordered_pairs_within,
    points_in_sector,
)


def _scan_pairs(pts: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """Ordered pairs at squared distance ``0 < d2 <= radius**2``, by a
    blockwise O(N^2) scan: the arcs of the full disk."""
    pairs = set()
    for lo in range(0, len(pts), 250):
        block = pts[lo : lo + 250]
        dx = pts[None, :, 0] - block[:, None, 0]
        dy = pts[None, :, 1] - block[:, None, 1]
        d2 = dx * dx + dy * dy
        i, j = np.nonzero((d2 > 0.0) & (d2 <= radius * radius))
        pairs.update(zip((i + lo).tolist(), j.tolist()))
    return pairs


@st.composite
def _cell_edge_points(draw):
    """``(points, radius)`` with duplicate points and coordinates on exact
    cell edges (multiples of ``radius``, the cell side, 0.0, 1.0) or one ulp
    off them."""
    radius = draw(
        st.one_of(
            st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 1 / 3, 0.45]), st.floats(0.01, 0.45)
        )
    )
    edge = st.builds(
        lambda k, ulp: float(np.clip(np.nextafter(k * radius, k * radius + ulp), 0.0, 1.0)),
        st.integers(0, int(1 / radius) + 1),
        st.sampled_from([0, -1, 1]),
    )
    coord = st.one_of(st.sampled_from([0.0, 1.0]), edge, st.floats(0.0, 1.0))
    base = draw(st.lists(st.tuples(coord, coord), max_size=10))
    dups = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    return np.array(base + dups, dtype=float).reshape(-1, 2), radius


def _apex_scan(pts, theta, alpha, radius) -> set[tuple[int, int]]:
    """Arcs ``i -> j`` by testing every point against each apex's sector."""
    return {
        (i, j)
        for i in range(len(pts))
        for j in np.nonzero(points_in_sector(pts[i], theta[i], alpha, radius, pts))[0].tolist()
    }


_ORIENTATION = st.one_of(
    st.sampled_from([0.0, float(np.nextafter(TWO_PI, 0.0)), math.pi]),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


def _with_orientations(case):
    """``(case, orientations)``: one orientation per point of the case."""
    n = len(case[0])
    return st.tuples(st.just(case), st.lists(_ORIENTATION, min_size=n, max_size=n))


_ALPHA = st.one_of(
    st.sampled_from([5e-324, 1e-12, math.pi, TWO_PI]),
    st.floats(1e-12, TWO_PI),
)


def _index_pairs(pts: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """The kernel's arcs of the full disk, whatever the orientations."""
    gi, gj = ordered_pairs_within(build_index(pts, radius), np.zeros(len(pts)), TWO_PI)
    return set(zip(gi.tolist(), gj.tolist()))


class TestAngleInArc:
    def test_full_circle_matches_extended_precision(self):
        # Width 2*pi is the whole circle, so every direction is inside. For
        # (1, -1e-20) the double-precision relative angle rounds up to 2*pi.
        directions = [(1.0, -1e-20), (1.0, -1e-30), (1.0, 0.0), (-1.0, 1e-20), (0.3, -0.4)]
        with mp.workdps(60):
            two_pi_mp = 2 * mp.pi
            for elevation in (0.0, 1.0, 6.0):
                for dx, dy in directions:
                    for width in (TWO_PI, math.pi, 1e-3):
                        # A float width of 2*pi stands for the exact full circle.
                        w = two_pi_mp if width == TWO_PI else mp.mpf(width)
                        rel = (mp.atan2(dy, dx) - mp.mpf(elevation)) % two_pi_mp
                        assert bool(angle_in_arc(dx, dy, elevation, width)) == (rel < w)

    def test_full_circle_keeps_broadcast_shape(self):
        dx = np.array([[1.0], [-1.0], [0.5]])
        dy = np.array([-1e-20, 0.0, 2.0, -3.0])
        for elevation in (0.0, np.zeros((2, 1, 1))):
            full = angle_in_arc(dx, dy, elevation, TWO_PI)
            part = angle_in_arc(dx, dy, elevation, math.pi)
            assert full.shape == part.shape
            assert full.dtype == bool and full.all()


class TestSectorContains:
    """``points_in_sector`` of one apex and one point."""

    def test_interior_point(self):
        assert points_in_sector((0.5, 0.5), 0.0, math.pi / 2, 0.1, (0.55, 0.55))

    def test_outside_radius(self):
        assert not points_in_sector((0.5, 0.5), 0.0, math.pi / 2, 0.1, (0.5, 0.39))

    def test_wraparound_arc(self):
        assert points_in_sector((0.5, 0.5), 7 * math.pi / 4, math.pi / 2, 0.1, (0.58, 0.5))

    def test_apex_excluded(self):
        assert not points_in_sector((0.5, 0.5), 0.0, TWO_PI, 0.1, (0.5, 0.5))

    def test_full_disk_ignores_angle(self):
        ang = np.linspace(0, TWO_PI, 17, endpoint=False)
        points = np.stack((0.5 + 0.15 * np.cos(ang), 0.5 + 0.15 * np.sin(ang)), axis=-1)
        assert np.all(points_in_sector((0.5, 0.5), 1.234, TWO_PI, 0.2, points))

    def test_matches_extended_precision(self):
        # Direct evaluation of distance and reduced angle at 50 digits.
        rng = np.random.default_rng(20240831)
        with mp.workdps(50):
            two_pi_mp = 2 * mp.pi
            for _ in range(10_000):
                ax, ay = rng.random(2)
                elev = float(TWO_PI * rng.random())
                width = float(TWO_PI * rng.random()) or 1e-3
                radius = float(0.01 + 0.3 * rng.random())
                px, py = rng.random(2)
                got = bool(points_in_sector((ax, ay), elev, width, radius, (px, py)))
                dx, dy = mp.mpf(px) - mp.mpf(ax), mp.mpf(py) - mp.mpf(ay)
                d2 = dx * dx + dy * dy
                if d2 == 0 or d2 > mp.mpf(radius) ** 2:
                    expected = False
                else:
                    rel = (mp.atan2(dy, dx) - mp.mpf(elev)) % two_pi_mp
                    expected = rel < mp.mpf(width)
                assert got == expected


# (apex, elevation, points) shapes: one apex against many points, the
# pair decomposition's rows of samples, tv_bound's point pairs, an
# elevation that widens the result, one point, and apexes against shared
# points.
_BROADCAST_SHAPES = [
    ((2,), (), (40, 2)),
    ((5, 1, 2), (5, 1), (5, 30, 2)),
    ((40, 2), (40,), (40, 2)),
    ((2,), (3, 1), (20, 2)),
    ((2,), (), (2,)),
    ((4, 1, 2), (), (1, 25, 2)),
]


class TestLazyArcTest:
    """``points_in_sector`` runs the arc test only inside the radius; the
    result must equal running it on every point."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(_BROADCAST_SHAPES), _ALPHA, st.floats(1e-3, 0.5), st.integers(0, 2**32 - 1))
    def test_matches_eager(self, shapes, alpha, radius, seed):
        apex_shape, elev_shape, points_shape = shapes
        rng = np.random.default_rng(seed)
        apex = rng.random(apex_shape)
        elev = rng.choice([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI * rng.random()], elev_shape)
        # Points on their apex, at exactly the radius along an axis, or
        # anywhere within 1.5 radii.
        center = np.broadcast_to(apex.reshape((-1, 2))[0], points_shape)
        if np.broadcast_shapes(apex_shape, points_shape) == points_shape:
            center = np.broadcast_to(apex, points_shape)
        kind = rng.integers(0, 3, points_shape[:-1])
        axis = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        step = np.where(
            (kind == 1)[..., None],
            radius * axis[rng.integers(0, 4, points_shape[:-1])],
            1.5 * radius * (2.0 * rng.random(points_shape) - 1.0),
        )
        points = center + np.where((kind == 0)[..., None], 0.0, step)
        got = points_in_sector(apex, elev, alpha, radius, points)
        want = eager_points_in_sector(apex, elev, alpha, radius, points)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def _rows(*regions):
    """``intersection_areas`` input for one row: ``(apex, elevation, angle)``
    per region."""
    return [(np.array([apex], dtype=float), np.array([elev]), angle) for apex, elev, angle in regions]


def _area(*regions, radius=0.1):
    return float(intersection_areas(_rows(*regions), radius)[0])


def _clipped(apex, elev, angle, radius):
    """``clipped_sector_areas`` of one row."""
    return float(clipped_sector_areas(np.array([apex], dtype=float), np.array([elev]), angle, radius)[0])


def _arc_overlap(e1, w1, e2, w2):
    """Length of ``[e1, e1 + w1) ∩ [e2, e2 + w2)`` on the circle."""
    return sum(
        max(0.0, min(e1 + w1, e2 + w2 + k * TWO_PI) - max(e1, e2 + k * TWO_PI))
        for k in (-2, -1, 0, 1, 2)
    )


_AXES = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]

# Apexes on each edge and corner, with the arc of directions that point
# into the square from there.
_BORDER_APEXES = [
    ((0.5, 0.0), 0.0, math.pi), ((1.0, 0.5), 0.5 * math.pi, math.pi),
    ((0.5, 1.0), math.pi, math.pi), ((0.0, 0.5), 1.5 * math.pi, math.pi),
    ((0.0, 0.0), 0.0, 0.5 * math.pi), ((1.0, 0.0), 0.5 * math.pi, 0.5 * math.pi),
    ((1.0, 1.0), math.pi, 0.5 * math.pi), ((0.0, 1.0), 1.5 * math.pi, 0.5 * math.pi),
]


class TestClippedArea:
    def test_interior_full_disk(self):
        assert _clipped((0.5, 0.5), 0.0, TWO_PI, 0.1) == pytest.approx(math.pi * 0.01, rel=1e-15)

    def test_interior_half_disk(self):
        want = 0.5 * math.pi * 0.01
        assert _clipped((0.5, 0.5), 1.0, math.pi, 0.1) == pytest.approx(want, rel=1e-15)

    def test_corner_quarter_disk(self):
        for radius in (0.1, 0.45):
            for corner in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
                got = _clipped(corner, 0.0, TWO_PI, radius)
                assert got == pytest.approx(0.25 * math.pi * radius**2, rel=1e-12)

    @pytest.mark.parametrize("radius", [0.1, 0.45])
    @pytest.mark.parametrize("h", [0.0, 0.01, 0.05, 0.0999])
    def test_disk_cut_by_one_edge(self, radius, h):
        want = math.pi * radius**2 - radius**2 * math.acos(h / radius) + h * math.sqrt(radius**2 - h**2)
        for apex in ((h, 0.5), (0.5, h), (1.0 - h, 0.5), (0.5, 1.0 - h)):
            assert _clipped(apex, 0.0, TWO_PI, radius) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("apex,inward,width", _BORDER_APEXES)
    def test_apex_on_border_with_axis_elevations(self, apex, inward, width):
        r = 0.1
        for angle in (0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI):
            for elev in _AXES:
                want = 0.5 * r * r * _arc_overlap(elev, angle, inward, width)
                got = _clipped(apex, elev, angle, r)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * r * r)
                # The region paired with itself: three boundaries meet there.
                assert _area((apex, elev, angle), (apex, elev, angle)) == pytest.approx(
                    want, rel=1e-12, abs=1e-12 * r * r
                )

    def test_monotone_in_radius_shared_stream(self):
        apex = (0.03, 0.4)
        radii = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
        areas = [_clipped(apex, 0.7, 4.0, r) for r in radii]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_quadrant_additivity(self):
        apex = (0.06, 0.35)
        radius = 0.15
        full = _clipped(apex, 0.0, TWO_PI, radius)
        parts = [_clipped(apex, k * math.pi / 2, math.pi / 2, radius) for k in range(4)]
        assert sum(parts) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("angle", [1.0, math.pi, 5.0, TWO_PI])
    def test_against_monte_carlo_oracle(self, angle):
        rng = np.random.default_rng(17)
        r, samples = 0.15, 20_000
        apex = rng.random((120, 2))
        apex[:20] = rng.integers(0, 2, (20, 2))  # corners
        elev = TWO_PI * rng.random(120)
        got = clipped_sector_areas(apex, elev, angle, r)
        want, se = sampled_clipped_areas(apex, elev, angle, r, samples, np.random.default_rng(18))
        # A fraction of 0 or 1 has no spread; allow one sample's worth.
        floor = 0.5 * angle * r * r / samples
        assert np.all(np.abs(got - want) <= 4.0 * np.maximum(se, floor))


class TestIntersectionAreas:
    """Exact areas of two regions and the square, against closed forms."""

    @pytest.mark.parametrize("radius", [0.1, 0.45])
    def test_lens_of_interior_disks(self, radius):
        for d in (0.0, 0.3 * radius, radius, 1.9 * radius, 2.0 * radius):
            want = 2 * radius**2 * math.acos(d / (2 * radius)) - 0.5 * d * math.sqrt(4 * radius**2 - d**2)
            got = _area(((0.5 - d / 2, 0.5), 0.0, TWO_PI), ((0.5 + d / 2, 0.5), 0.0, TWO_PI), radius=radius)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * radius**2)

    def test_disks_exactly_2r_apart(self):
        for a, b in (((0.3, 0.5), (0.5, 0.5)), ((0.05, 0.0), (0.05, 0.2)), ((0.5, 0.5), (0.5, 0.7))):
            assert _area((a, 0.0, TWO_PI), (b, 0.0, TWO_PI)) == 0.0

    @pytest.mark.parametrize("apex", [(0.5, 0.5), (0.03, 0.97), (1.0, 0.3)])
    def test_identical_regions(self, apex):
        for angle in (1.0, math.pi, TWO_PI):
            region = (apex, 0.4, angle)
            one = _clipped(apex, 0.4, angle, 0.1)
            assert _area(region, region) == pytest.approx(one, rel=1e-12)

    @pytest.mark.parametrize(
        "apex,inward,width", [((0.5, 0.5), 0.0, TWO_PI)] + _BORDER_APEXES[:4]
    )
    def test_half_disks_with_one_apex(self, apex, inward, width):
        r = 0.1
        for e1 in _AXES:
            for offset in (0.5 * math.pi, math.pi, 1.5 * math.pi):
                # The arc both half-disks share, then its inward part.
                near = e1 + (offset - TWO_PI if offset > math.pi else offset)
                lo, hi = max(e1, near), min(e1, near) + math.pi
                want = 0.5 * r * r * _arc_overlap(lo, max(hi - lo, 0.0), inward, width)
                e2 = (e1 + offset) % TWO_PI
                got = _area((apex, e1, math.pi), (apex, e2, math.pi), radius=r)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * r * r)

    def test_half_disks_offset_by_quarter_and_half_turn(self):
        r = 0.1
        quarter = _area(((0.5, 0.5), 0.3, math.pi), ((0.5, 0.5), 0.3 + 0.5 * math.pi, math.pi))
        assert quarter == pytest.approx(0.25 * math.pi * r * r, rel=1e-12)
        assert _area(((0.5, 0.5), 0.3, math.pi), ((0.5, 0.5), 0.3 + math.pi, math.pi)) == pytest.approx(
            0.0, abs=1e-12 * r * r
        )

    def test_quarter_sector_on_edge_inside_disk(self):
        sector = ((0.5, 1.0), math.pi, 0.5 * math.pi)
        disk = ((0.45, 0.95), 0.0, TWO_PI)
        want = 0.25 * math.pi * 0.1**2
        assert _area(sector, disk) == pytest.approx(want, rel=1e-12)
        assert _area(disk, sector) == pytest.approx(want, rel=1e-12)


def _pin_cases():
    """Batches of ``intersection_areas`` rows whose bits are pinned below,
    by name: ``(regions, radius)``."""
    r = 0.1
    # Corners, edge midpoints and other edge points, the centre, a point
    # near a corner, and an apex exactly ``r`` from the left edge.
    apexes = np.array(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0), (1.0, 0.3),
         (0.4, 1.0), (0.0, 0.7), (0.5, 0.5), (0.03, 0.97), (r, 0.5)]
    )
    elevs = np.array([0.0, 0.4, 0.5 * math.pi, math.pi, 4.0, 1.5 * math.pi, 0.4, 6.0, 2.0, 5.5, 3.0])
    cases = {
        f"one_{name}": ([(apexes, elevs, angle)], r)
        for name, angle in (("alpha1", 1.0), ("pi", math.pi), ("disk", TWO_PI))
    }
    same = apexes[[0, 4, 8, 9, 10]]
    for name, angle in (("alpha1", 1.0), ("pi", math.pi), ("disk", TWO_PI)):
        cases[f"identical_{name}"] = ([(same, elevs[:5], angle)] * 2, r)
    a = np.array([(0.3, 0.5), (0.05, 0.0), (0.5, 0.5), (0.0, 0.0)])
    b = np.array([(0.5, 0.5), (0.05, 0.2), (0.5, 0.7), (0.2, 0.0)])
    e = np.array([0.0, 0.5 * math.pi, 4.0, math.pi])
    for name, angle in (("pi", math.pi), ("disk", TWO_PI)):
        cases[f"apart_2r_{name}"] = ([(a, e, angle), (b, e[::-1], angle)], r)
    # Disks and sectors tangent to the left edge, each with a second region.
    tangent = np.array([(r, 0.5), (r, 0.5), (r, 0.05), (r, 0.95)])
    other = np.array([(0.15, 0.55), (0.1, 0.4), (0.0, 0.0), (0.2, 1.0)])
    turns = np.array([math.pi, 4.0, 0.0, 1.5 * math.pi])
    cases["tangent"] = ([(tangent, e, TWO_PI), (other, turns, math.pi)], r)
    rng = np.random.default_rng(20261018)
    inner = r + (1.0 - 2.0 * r) * rng.random((6, 2))
    near = inner + 2.0 * r * (rng.random((6, 2)) - 0.5)
    cases["random_interior"] = (
        [(inner, TWO_PI * rng.random(6), math.pi), (near, TWO_PI * rng.random(6), math.pi)], r
    )
    border = rng.random((8, 2))
    border[:, 0] = rng.choice([0.0, 0.02, 0.97, 1.0], 8)
    shifted = np.clip(border + 4.0 * r * (rng.random((8, 2)) - 0.5), 0.0, 1.0)
    cases["random_clipped_one"] = ([(border, TWO_PI * rng.random(8), 1.0)], r)
    cases["random_clipped_two"] = (
        [(border, TWO_PI * rng.random(8), math.pi), (shifted, TWO_PI * rng.random(8), TWO_PI)], r
    )
    return cases


# ``float.hex`` of ``intersection_areas`` on ``_pin_cases()``: the bits do
# not depend on which boundary pieces the routine evaluates.
_PINNED_AREAS = {
    "apart_2r_disk": [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ],
    "apart_2r_pi": [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ],
    "identical_alpha1": [
        "0x1.47ae147ae147cp-8", "0x1.47ae147ae147bp-8", "0x1.47ae147ae147cp-8",
        "0x1.6f7046e0ce717p-11", "0x1.47ae147ae147cp-8",
    ],
    "identical_disk": [
        "0x1.015bf9217271ap-7", "0x1.015bf9217271bp-6", "0x1.015bf9217271ap-5",
        "0x1.e077dbd81c063p-7", "0x1.015bf9217271ap-5",
    ],
    "identical_pi": [
        "0x1.015bf9217271ap-7", "0x1.c12ebaf71e3b6p-7", "0x1.015bf9217271ap-6",
        "0x1.622b0ad887561p-7", "0x1.015bf9217271ap-6",
    ],
    "one_alpha1": [
        "0x1.47ae147ae147cp-8", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.47ae147ae147cp-8", "0x1.47ae147ae147cp-8",
        "0x1.47ae147ae147cp-8", "0x1.47ae147ae147cp-8",
    ],
    "one_disk": [
        "0x1.015bf9217271ap-7", "0x1.015bf9217271ap-7", "0x1.015bf9217271ap-7",
        "0x1.015bf9217271ap-7", "0x1.015bf9217271ap-6", "0x1.015bf9217271ap-6",
        "0x1.015bf9217271ap-6", "0x1.015bf9217271ap-6", "0x1.015bf9217271ap-5",
        "0x1.e077dbd81c063p-7", "0x1.015bf9217271ap-5",
    ],
    "one_pi": [
        "0x1.015bf9217271ap-7", "0x1.015bf9217271ap-7", "0x1.015bf9217271ap-7",
        "0x1.015bf9217271ap-7", "0x1.19486d65bb586p-8", "0x0.0p+0",
        "0x1.0624dd2f1a9fbp-9", "0x1.2fc1a03698610p-7", "0x1.015bf9217271ap-6",
        "0x1.dfdf91fa12345p-8", "0x1.015bf9217271ap-6",
    ],
    "random_clipped_one": [
        "0x1.47ae147ae147cp-8", "0x1.47ae147ae147cp-8", "0x1.9445a267bb20cp-9",
        "0x0.0p+0", "0x1.08143850b45fap-8", "0x1.894f86da8d944p-9",
        "0x0.0p+0", "0x1.47ae147ae147cp-8",
    ],
    "random_clipped_two": [
        "0x1.24859741fc565p-8", "0x1.a505d121e0764p-8", "0x1.7dcf7bc759208p-15",
        "0x1.b1879427da1fbp-8", "0x0.0p+0", "0x1.278f51fcf28c8p-7",
        "0x0.0p+0", "0x1.e51a4fa3c37b0p-12",
    ],
    "random_interior": [
        "0x1.31557cfb08c6ap-7", "0x1.6c1165c0314d5p-10", "0x1.d5b702eeb6e36p-9",
        "0x1.470a84a795985p-9", "0x1.5b2fee9f801e7p-9", "0x1.b2f4ea7bfce70p-13",
    ],
    "tangent": [
        "0x1.93b4febc96f51p-7", "0x1.52273319f4abfp-9", "0x1.e6885ab96e37cp-8",
        "0x0.0p+0",
    ],
}


@pytest.mark.parametrize("name", sorted(_pin_cases()))
def test_intersection_areas_are_pinned(name):
    regions, radius = _pin_cases()[name]
    assert [float(x).hex() for x in intersection_areas(regions, radius)] == _PINNED_AREAS[name]


class TestGridIndex:
    def test_empty(self):
        pts = np.empty((0, 2))
        idx = build_index(pts, 0.1)
        assert idx.count == 0
        gi, gj = ordered_pairs_within(idx, np.empty(0), TWO_PI)
        assert gi.size == 0 and gj.size == 0

    def test_three_points_one_cell(self):
        pts = np.array([[0.51, 0.51], [0.52, 0.52], [0.53, 0.53]])
        idx = build_index(pts, 0.1)
        assert idx.count == 3
        got = _index_pairs(pts, 0.1)
        assert got == {(i, j) for i in range(3) for j in range(3) if i != j}
        assert got == _scan_pairs(pts, 0.1)

    def test_buckets_partition_points(self):
        rng = np.random.default_rng(7)
        pts = rng.random((10_000, 2))
        idx = build_index(pts, 0.03)
        assert idx.count == 10_000
        assert _index_pairs(pts, 0.03) == _scan_pairs(pts, 0.03)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_index(np.empty((0, 2)), 0.0)

    def test_rejects_radius_whose_keys_overflow(self):
        # stride**2 is about 1e20 here, beyond int64.
        pts = np.random.default_rng(31).random((20, 2))
        with pytest.raises(ValueError, match="overflow"):
            build_index(pts, 1e-10)

    @pytest.mark.parametrize("bad", [math.nan, -1e-12, 1.0 + 1e-12])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_points_outside_square(self, bad, axis):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.52, 0.5]])
        pts[1, axis] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]\^2"):
            build_index(pts, 0.1)

    def test_accepts_square_edges(self):
        pts = np.array([[1.0, -0.0], [-0.0, 1.0], [1.0, 1.0], [0.98, 1.0]])
        assert _index_pairs(pts, 0.05) == {(2, 3), (3, 2)} == _scan_pairs(pts, 0.05)

    def test_isolated_point(self):
        pts = np.array([[0.5, 0.5], [0.9, 0.9]])
        got = _index_pairs(pts, 0.05)
        assert got == set() == _scan_pairs(pts, 0.05)

    def test_all_points_identical(self):
        # Coincident points are never in each other's sector.
        pts = np.full((25, 2), 0.4)
        got = _index_pairs(pts, 0.01)
        assert got == set() == _scan_pairs(pts, 0.01)

    def test_ordered_pairs_match_linear_scan(self):
        rng = np.random.default_rng(321)
        pts = rng.random((400, 2))
        radius = 0.06
        assert _index_pairs(pts, radius) == _scan_pairs(pts, radius)

    def test_point_on_square_border_indexed(self):
        pts = np.array([[1.0, 1.0], [0.98, 0.98]])
        got = _index_pairs(pts, 0.05)
        assert got == {(0, 1), (1, 0)} == _scan_pairs(pts, 0.05)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_cell_edge_points())
    @example((np.empty((0, 2)), 0.1))
    @example((np.array([[0.3, 0.3]]), 0.1))
    @example((np.array([[0.3, 0.3], [0.4, 0.3]]), 0.1))
    @example((np.array([[0.2, 0.7], [0.2, 0.7]]), 0.05))
    def test_property_matches_linear_scan(self, case):
        pts, radius = case
        gi, gj = ordered_pairs_within(build_index(pts, radius), np.zeros(len(pts)), TWO_PI)
        got = list(zip(gi.tolist(), gj.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == _scan_pairs(pts, radius)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_cell_edge_points())
    def test_property_index_order_is_stable(self, case):
        pts, radius = case
        idx = build_index(pts, radius)
        keys = _cell_keys(pts, radius, idx._stride)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(idx._order, order)
        assert np.array_equal(idx._keys, keys[order])

    def test_tiny_cells_keep_stable_order(self):
        # stride**2 * N >= 2**63: the composite key ``key * N + i`` would
        # overflow, so the index falls back to a stable argsort.
        rng = np.random.default_rng(11)
        pts = rng.random((20, 2))
        pts[10:15] = pts[:5]
        pts[15:] = pts[0]
        idx = build_index(pts, 1e-9)
        assert idx._stride**2 * len(pts) >= 2**63
        keys = _cell_keys(pts, 1e-9, idx._stride)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(idx._order, order)
        assert np.array_equal(idx._keys, keys[order])

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    @pytest.mark.parametrize("sector", [False, True])
    def test_block_size_does_not_change_output(self, monkeypatch, chunk, sector):
        rng = np.random.default_rng(chunk)
        pts = rng.random((2000, 2))
        pts = np.concatenate((pts, pts[:150], pts[:20]))
        theta = rng.random(len(pts)) * TWO_PI
        alpha = math.pi if sector else TWO_PI
        idx = build_index(pts, 0.03)
        want = ordered_pairs_within(idx, theta, alpha)
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        got = ordered_pairs_within(idx, theta, alpha)
        assert all(np.array_equal(w, g) and w.dtype == g.dtype for w, g in zip(want, got))

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_small_blocks_match_oracles(self, monkeypatch, chunk):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(100 + chunk)
        pts = rng.random((300, 2))
        pts[290:] = pts[:10]
        theta = rng.random(300) * TWO_PI
        idx = build_index(pts, 0.1)
        assert _index_pairs(pts, 0.1) == _scan_pairs(pts, 0.1)
        gi, gj = ordered_pairs_within(idx, theta, 2.0)
        assert set(zip(gi.tolist(), gj.tolist())) == _apex_scan(pts, theta, 2.0, 0.1)

    @pytest.mark.parametrize("alpha", [None, 2.0])
    def test_last_columns_match_oracles(self, alpha):
        # Every occupied cell lies in the grid's last columns and top rows,
        # and a point sits at (1, 1), the largest key a point of the square
        # can have, so the next-column bound reads the table's last entry
        # that any point reaches. ``None`` is the full disk, checked against
        # the distance scan. The radii make ``1 / r`` an integer or one ulp
        # off one.
        rng = np.random.default_rng(17)
        radii = [0.05, 0.1, 0.125, 0.25, 1 / 3]
        radii += [float(np.nextafter(0.25, 0.0)), float(np.nextafter(0.25, 1.0))]
        for radius in radii:
            near = [1.0 - k * radius for k in (2.0, 1.5, 1.0, 0.5)]
            near += [float(np.nextafter(1.0 - radius, 1.0)), 0.999, float(np.nextafter(1.0, 0.0)), 1.0]
            corner = [(x, y) for x in near for y in near]
            pts = np.concatenate((np.array(corner), 1.0 - 2.0 * radius * rng.random((40, 2))))
            theta = rng.random(len(pts)) * TWO_PI
            idx = build_index(pts, radius)
            assert idx._keys[-1] == idx._stride**2 - 2 * idx._stride - 3
            gi, gj = ordered_pairs_within(idx, theta, alpha or TWO_PI)
            got = list(zip(gi.tolist(), gj.tolist()))
            assert len(got) == len(set(got))
            if alpha is None:
                want = _scan_pairs(pts, radius)
            else:
                want = _apex_scan(pts, theta, alpha, radius)
            assert set(got) == want
            column = np.floor(pts[:, 0] / radius).astype(np.int64)
            key_pos = np.empty(idx.count, dtype=np.int64)
            key_pos[idx._order] = np.arange(idx.count)
            sort_key = list(zip((column[gj] - column[gi]).tolist(), gi.tolist(), key_pos[gj].tolist()))
            assert sort_key == sorted(sort_key)

    def test_rejects_orientation_count_mismatch(self):
        pts = np.array([[0.5, 0.5], [0.52, 0.5]])
        idx = build_index(pts, 0.1)
        with pytest.raises(ValueError, match="orientations"):
            ordered_pairs_within(idx, np.zeros(3), math.pi)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_cell_edge_points().flatmap(_with_orientations), _ALPHA)
    @example(((np.empty((0, 2)), 0.1), []), math.pi)
    @example(((np.array([[0.2, 0.7], [0.2, 0.7], [0.25, 0.7]]), 0.1), [0.0] * 3), 1e-12)
    def test_sector_property_matches_apex_scan(self, case, alpha):
        (pts, radius), theta = case
        theta = np.array(theta, dtype=float)
        idx = build_index(pts, radius)
        gi, gj = ordered_pairs_within(idx, theta, alpha)
        assert gi.dtype == gj.dtype == np.int64
        assert set(zip(gi.tolist(), gj.tolist())) == _apex_scan(pts, theta, alpha, radius)
        # Order: column offset of j's cell from i's, then i, then j's key position.
        column = np.floor(pts[:, 0] / radius).astype(np.int64)
        key_pos = np.empty(idx.count, dtype=np.int64)
        key_pos[idx._order] = np.arange(idx.count)
        sort_key = list(zip((column[gj] - column[gi]).tolist(), gi.tolist(), key_pos[gj].tolist()))
        assert sort_key == sorted(set(sort_key))


class TestSearchsortedBounds:
    """Grids with far more cells than points read their range bounds by
    ``searchsorted`` instead of a table of ``stride**2`` entries."""

    @pytest.mark.parametrize("chunk", [None, 1, 64])
    def test_sparse_grid_matches_oracles(self, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(23)
        pts = rng.random((3000, 2))
        # Partners within r: close copies of some points, and exact duplicates.
        pts[2900:2950] = np.clip(pts[:50] + 7e-4 * (rng.random((50, 2)) - 0.5), 0.0, 1.0)
        pts[2950:] = pts[50:100]
        theta = rng.random(len(pts)) * TWO_PI
        idx = build_index(pts, 1e-3)
        assert idx._stride**2 > 8 * idx.count + geometry._TABLE_SLACK
        full = _index_pairs(pts, 1e-3)
        assert len(full) >= 60 and full == _scan_pairs(pts, 1e-3)
        got = ordered_pairs_within(idx, theta, 2.0)
        assert set(zip(got[0].tolist(), got[1].tolist())) == _apex_scan(pts, theta, 2.0, 1e-3)
        monkeypatch.setattr(geometry, "_TABLE_SLACK", 2**21)
        table = ordered_pairs_within(idx, theta, 2.0)
        assert all(np.array_equal(t, g) and t.dtype == g.dtype for t, g in zip(table, got))

    def test_cells_too_many_for_a_table(self):
        # stride**2 is about 1e14 here: no table of that size could be built.
        rng = np.random.default_rng(29)
        pts = rng.random((50, 2))
        pts[40:45] = pts[:5] + 5e-8
        pts[45:] = pts[5:10]
        idx = build_index(pts, 1e-7)
        assert idx._stride**2 > 10**13
        got = _index_pairs(pts, 1e-7)
        assert {(i, i + 40) for i in range(5)} <= got
        assert got == _scan_pairs(pts, 1e-7)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_cell_edge_points().flatmap(_with_orientations), _ALPHA)
    def test_both_paths_give_the_same_arcs(self, case, alpha):
        (pts, radius), theta = case
        idx = build_index(pts, radius)
        theta = np.array(theta, dtype=float)
        got = []
        # searchsorted in blocks of 8192 and of 2 key positions, then the table
        for slack, chunk in ((-(2**40), 8192), (-(2**40), 2), (2**40, 8192)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "_TABLE_SLACK", slack)
                patch.setattr(geometry, "_PAIR_CHUNK", chunk)
                got.append(ordered_pairs_within(idx, theta, alpha))
        assert all(np.array_equal(s, t) and s.dtype == t.dtype for s, t in zip(got[0], got[2]))
        assert all(np.array_equal(s, t) and s.dtype == t.dtype for s, t in zip(got[1], got[2]))
