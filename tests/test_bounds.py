import dataclasses
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import sampled_clipped_areas, sampled_decomposition
from sectorgraphs import bounds, geometry
from sectorgraphs.bounds import (
    ArcIndicator,
    JointRegionDecomposition,
    TruncationBudgetExceeded,
    _joint_prob_batch,
    decompose_regions,
    empirical_tv,
    expected_count,
    joint_count_prob,
    tv_bound,
)
from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.geometry import Point2, Sector, TWO_PI, clipped_area
from sectorgraphs.harness import run_trials
from sectorgraphs.model import ModelParams
from sectorgraphs.theory import poisson_upper_tail, predict, radius_for_mean_degree

B_OFF = ArcIndicator(present=False, survive_prob=0.8)


def _dec(common: float, only1: float, only2: float) -> JointRegionDecomposition:
    return JointRegionDecomposition(common, only1, only2, 0.0, 0.0, 0.0)


class TestExpectedCount:
    def test_all_degrees_gives_alive_mean(self):
        params = ModelParams(n=5000, alpha=math.pi, r=0.02, v=0.25, q=0.1, mode="poisson")
        ew, se = expected_count(params, DegreeSet.all(), "out", samples=400, area_samples=400)
        assert ew == pytest.approx(0.75 * 5000, rel=1e-12)
        assert se == 0.0

    def test_empty_set_gives_zero(self):
        params = ModelParams(n=5000, alpha=math.pi, r=0.02, v=0.0, q=0.0, mode="poisson")
        ew, se = expected_count(params, DegreeSet.empty(), "in", samples=400, area_samples=400)
        assert ew == 0.0 and se == 0.0

    def test_matches_boundary_free_closed_form(self):
        # Interior sectors see the unclipped mean, so EW is the closed form
        # up to the boundary-strip deficit.
        params = ModelParams(n=10**4, alpha=math.pi, r=0.01, v=0.0, q=0.0, mode="poisson")
        ds = DegreeSet.upper_tail(3)
        ew, se = expected_count(params, ds, "out", samples=20_000, area_samples=8_000)
        mu_bar = 0.5 * math.pi * 10**4 * 0.01**2
        closed = 10**4 * poisson_upper_tail(mu_bar, 3)
        strip = 10**4 * poisson_upper_tail(mu_bar, 3) * 8 * 0.01
        assert ew <= closed + 4 * se
        assert abs(ew - closed) <= 4 * se + strip


class TestDecomposeRegions:
    def test_identical_regions(self):
        s = Sector(Point2(0.5, 0.5), 0.3, 2.0, 0.1)
        dec = decompose_regions(s, s, samples=20_000, seed=1)
        assert dec.area_only1 == 0.0 and dec.area_only2 == 0.0
        assert dec.area_common == pytest.approx(s.area, rel=1e-12)

    def test_disjoint_regions(self):
        s1 = Sector.disk(Point2(0.05, 0.05), 0.1)
        s2 = Sector.disk(Point2(0.9, 0.9), 0.1)
        dec = decompose_regions(s1, s2, samples=20_000, seed=2)
        assert dec.area_common == 0.0

    def test_radius_mismatch_rejected(self):
        s1 = Sector.disk(Point2(0.3, 0.3), 0.1)
        s2 = Sector.disk(Point2(0.3, 0.3), 0.2)
        with pytest.raises(ValueError):
            decompose_regions(s1, s2)

    def test_angle_mismatch_rejected(self):
        s1 = Sector(Point2(0.3, 0.3), 0.0, 2.0, 0.1)
        s2 = Sector(Point2(0.3, 0.3), 0.0, 3.0, 0.1)
        with pytest.raises(ValueError):
            decompose_regions(s1, s2)

    def test_pieces_sum_to_union_area(self):
        s1 = Sector(Point2(0.4, 0.42), 0.5, 4.0, 0.15)
        s2 = Sector(Point2(0.47, 0.4), 2.5, 4.0, 0.15)
        dec = decompose_regions(s1, s2, samples=200_000, seed=3)
        total = dec.area_common + dec.area_only1 + dec.area_only2
        # Independent union estimate: rejection from the covering box.
        rng = np.random.default_rng(99)
        lo = np.array([0.4 - 0.15, 0.4 - 0.15])
        hi = np.array([0.47 + 0.15, 0.42 + 0.15])
        box = np.prod(hi - lo)
        pts = lo + (hi - lo) * rng.random((400_000, 2))
        from sectorgraphs.geometry import in_unit_square, points_in_sector

        in1 = points_in_sector(np.array([0.4, 0.42]), 0.5, 4.0, 0.15, pts)
        in2 = points_in_sector(np.array([0.47, 0.4]), 2.5, 4.0, 0.15, pts)
        mask = (in1 | in2) & in_unit_square(pts)
        frac = float(np.mean(mask))
        union = box * frac
        union_se = box * math.sqrt(frac * (1 - frac) / 400_000)
        combined = math.sqrt(
            union_se**2 + dec.se_common**2 + dec.se_only1**2 + dec.se_only2**2
        )
        assert abs(total - union) <= 4 * combined

    def test_consistency_with_clipped_area(self):
        s1 = Sector(Point2(0.05, 0.5), 1.0, 3.0, 0.12)
        s2 = Sector(Point2(0.1, 0.55), 4.0, 3.0, 0.12)
        dec = decompose_regions(s1, s2, samples=200_000, seed=4)
        a1, a1_se = clipped_area(s1, samples=200_000, seed=5)
        got = dec.area_common + dec.area_only1
        err = math.sqrt(dec.se_common**2 + dec.se_only1**2 + a1_se**2)
        assert abs(got - a1) <= 4 * err


class _EdgeDraws:
    """Stand-in for ``np.random.Generator`` whose draws put sample points
    on edges. Draws alternate between radius and angle uniforms; in the
    first 25 columns of each row a radius draw takes ``EDGES[j % 5]`` and
    an angle draw ``EDGES[j // 5]``, so every row has points at the apex,
    at nearly the full radius, and on the arc's edges and quarter lines.
    The other uniforms are random."""

    EDGES = np.array([0.0, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0))])

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        j = np.arange(min(u.shape[-1], 25))
        u[..., j] = self.EDGES[j // 5 if self._calls % 2 else j % 5]
        self._calls += 1
        return u


def _near(value: float) -> st.SearchStrategy:
    """``value`` or one ulp to either side of it."""
    return st.sampled_from([value, float(np.nextafter(value, -1.0)), float(np.nextafter(value, 2.0))])


_AXIS_ANGLE = st.one_of(
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


@st.composite
def _region_pairs(draw):
    """``(apex1, elev1, apex2, elev2, angle, radius)``: rows with apex
    coordinates on ``r`` and ``1 - r`` or one ulp off, and the second apex
    ``2r`` (or one ulp more or less) from the first along an axis, or
    anywhere within ``3r``."""
    r = draw(st.floats(0.01, 0.2))
    angle = draw(st.sampled_from([TWO_PI, math.pi, 1.0]))
    coord = st.one_of(_near(r), _near(1.0 - r), st.floats(0.0, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        a1 = [draw(coord), draw(coord)]
        a2 = list(a1)
        axis = draw(st.integers(0, 1))
        step = 2.0 * r if a1[axis] + 2.0 * r <= 1.0 else -2.0 * r
        a2[axis] = draw(st.one_of(_near(a1[axis] + step), st.floats(a1[axis] - 3 * r, a1[axis] + 3 * r)))
        a2 = [min(max(c, 0.0), 1.0) for c in a2]
        rows.append((a1, draw(_AXIS_ANGLE), a2, draw(_AXIS_ANGLE)))
    a1, e1, a2, e2 = (np.array(col, dtype=float) for col in zip(*rows))
    return a1, e1, a2, e2, angle, r


def _margin_case(apex1, elev1, apex2, radius):
    """Disks whose apexes are ``2r`` apart in floating point, the first's
    elevation towards the second. The first disk's point at nearly the
    full radius in that direction rounds to within ``r`` of the second
    apex, so the row is settled wrongly unless the margin is positive."""
    return np.array([apex1]), np.array([elev1]), np.array([apex2]), np.zeros(1), TWO_PI, radius


class TestSettledRows:
    """``_decompose_batch`` settles region pairs without sampling them; its
    three arrays must equal those of sampling every row, bit for bit."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_region_pairs(), st.sampled_from([1, 3]), st.booleans(), st.integers(0, 2**32 - 1))
    @example(_margin_case([0.1213129721246116, 0.5226966606966107], 0.0,
                          [0.14830893597403555, 0.5226966606966107], 0.013497981924711971), 1, True, 0)
    @example(_margin_case([0.7865758645931694, 0.48272695671742], 0.5 * math.pi,
                          [0.7865758645931694, 0.5396884291906795], 0.02848073623662973), 1, True, 0)
    @example(_margin_case([0.5852150662912085, 0.7756696441274883], math.pi,
                          [0.46265794133668975, 0.7756696441274883], 0.061278562477259345), 1, True, 0)
    @example(_margin_case([0.42602839851629354, 0.5998547056502583], 1.5 * math.pi,
                          [0.42602839851629354, 0.4868454080506646], 0.05650464879979685), 1, True, 0)
    def test_equal_to_full_sampling(self, case, chunk, edge_draws, seed):
        a1, e1, a2, e2, angle, r = case
        make = _EdgeDraws if edge_draws else np.random.default_rng
        with mock.patch.object(bounds, "_DECOMP_CHUNK", chunk):
            got = bounds._decompose_batch(a1, e1, a2, e2, angle, r, 64, make(seed))
            want = sampled_decomposition(a1, e1, a2, e2, angle, r, 64, make(seed))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_bound_sized_batch_equal_to_full_sampling(self):
        # tv_bound's own mix of rows, at the default block size.
        rng = np.random.default_rng(5)
        r = 0.04
        a1 = rng.random((700, 2))
        a2 = np.clip(a1 + 6 * r * (rng.random((700, 2)) - 0.5), 0.0, 1.0)
        e1, e2 = TWO_PI * rng.random(700), TWO_PI * rng.random(700)
        for angle in (math.pi, TWO_PI):
            got = bounds._decompose_batch(a1, e1, a2, e2, angle, r, 300, np.random.default_rng(9))
            want = sampled_decomposition(a1, e1, a2, e2, angle, r, 300, np.random.default_rng(9))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestRowParts:
    """The pair decomposition draws on the calling thread and splits each
    block's sampled rows into one part per CPU; the bits must not depend
    on the number of parts."""

    @pytest.mark.parametrize("chunk", [1, 3, bounds._DECOMP_CHUNK])
    def test_decomposition_independent_of_workers(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        r = 0.05
        a1 = rng.random((300, 2))
        a2 = np.clip(a1 + 6 * r * (rng.random((300, 2)) - 0.5), 0.0, 1.0)
        e1, e2 = TWO_PI * rng.random(300), TWO_PI * rng.random(300)
        monkeypatch.setattr(bounds, "_DECOMP_CHUNK", chunk)
        for angle in (1.0, TWO_PI):
            want = sampled_decomposition(a1, e1, a2, e2, angle, r, 77, np.random.default_rng(3))
            for cpus in (1, 2, 3):
                monkeypatch.setattr(geometry, "_cpu_count", lambda: cpus)
                got = bounds._decompose_batch(a1, e1, a2, e2, angle, r, 77, np.random.default_rng(3))
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_more_parts_than_cores_with_frequent_switches(self, monkeypatch):
        # Eight parts on at most a few cores, switching threads every
        # microsecond: a row lost or written twice changes the arrays.
        rng = np.random.default_rng(12)
        r = 0.08
        a1 = rng.random((200, 2))
        a2 = np.clip(a1 + 6 * r * (rng.random((200, 2)) - 0.5), 0.0, 1.0)
        e1, e2 = TWO_PI * rng.random(200), TWO_PI * rng.random(200)
        want_dec = sampled_decomposition(a1, e1, a2, e2, 2.0, r, 50, np.random.default_rng(1))
        want_areas = sampled_clipped_areas(a1, e1, 2.0, r, 50, np.random.default_rng(2), geometry._AREA_CHUNK)
        monkeypatch.setattr(geometry, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_dec = bounds._decompose_batch(a1, e1, a2, e2, 2.0, r, 50, np.random.default_rng(1))
            got_areas = geometry.clipped_sector_areas(a1, e1, 2.0, r, 50, np.random.default_rng(2))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got_dec, want_dec))
        assert all(np.array_equal(g, w) for g, w in zip(got_areas, want_areas))

    def test_tv_bound_independent_of_workers(self, monkeypatch, small_config):
        ds = DegreeSet.upper_tail(5)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(geometry, "_cpu_count", lambda: cpus)
            reports.append(
                [tv_bound(small_config, ds, side, outer_samples=300, area_samples=301,
                          ew_samples=300) for side in ("out", "in")]
            )
        assert reports[0] == reports[1] == reports[2]

    def test_no_thread_outlives_the_bound(self, monkeypatch, small_config):
        monkeypatch.setattr(geometry, "_cpu_count", lambda: 3)
        threads = threading.active_count()
        tv_bound(small_config, DegreeSet.upper_tail(5), "out",
                 outer_samples=200, area_samples=200, ew_samples=200)
        assert threading.active_count() == threads

    def test_fork_after_bound(self, small_config):
        tv_bound(small_config, DegreeSet.upper_tail(5), "in",
                 outer_samples=200, area_samples=200, ew_samples=200)
        params = ModelParams(n=300, alpha=math.pi, r=0.08, v=0.1, q=0.2, master_seed=4)
        assert run_trials(params, 8, parallelism=2) == run_trials(params, 8)

    def test_helper_error_propagates(self, monkeypatch, small_config):
        real = bounds.sector_points

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper part failed")
            return real(*args)

        monkeypatch.setattr(geometry, "_cpu_count", lambda: 2)
        monkeypatch.setattr(bounds, "sector_points", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper part failed"):
            tv_bound(small_config, DegreeSet.upper_tail(5), "out",
                     outer_samples=200, area_samples=200, ew_samples=200)
        assert threading.active_count() == threads


class TestJointCountProb:
    def test_no_overlap_factorizes(self):
        ds = DegreeSet.upper_tail(2)
        dec = _dec(0.0, 0.03, 0.05)
        lam = 40.0
        got = joint_count_prob(dec, lam, ds, B_OFF, B_OFF)
        want = poisson_upper_tail(lam * 0.03, 2) * poisson_upper_tail(lam * 0.05, 2)
        assert got == pytest.approx(want, rel=1e-9)

    def test_identical_regions_zero_event(self):
        ds = DegreeSet.finite([0])
        dec = _dec(0.04, 0.0, 0.0)
        lam = 30.0
        got = joint_count_prob(dec, lam, ds, B_OFF, B_OFF)
        assert got == pytest.approx(math.exp(-lam * 0.04), rel=1e-9)

    def test_indicator_shifts_threshold(self):
        # With certain indicators on both sides, {>= t} behaves like {>= t-1}.
        ds = DegreeSet.upper_tail(3)
        ds_shift = DegreeSet.upper_tail(2)
        dec = _dec(0.01, 0.02, 0.015)
        lam = 50.0
        on = ArcIndicator(present=True, survive_prob=1.0)
        got = joint_count_prob(dec, lam, ds, on, on)
        want = joint_count_prob(dec, lam, ds_shift, B_OFF, B_OFF)
        assert got == pytest.approx(want, rel=1e-9)

    def test_symmetry_under_swap(self):
        ds = DegreeSet.upper_tail(4)
        lam = 60.0
        b1 = ArcIndicator(present=True, survive_prob=0.7)
        b2 = ArcIndicator(present=False, survive_prob=0.7)
        a = joint_count_prob(_dec(0.02, 0.03, 0.01), lam, ds, b1, b2)
        b = joint_count_prob(_dec(0.02, 0.01, 0.03), lam, ds, b2, b1)
        assert a == pytest.approx(b, rel=1e-11)

    def test_against_simulation_oracle(self):
        ds = DegreeSet.upper_tail(3)
        lam = 55.0
        dec = _dec(0.02, 0.025, 0.01)
        b1 = ArcIndicator(present=True, survive_prob=0.8)
        b2 = ArcIndicator(present=True, survive_prob=0.8)
        got = joint_count_prob(dec, lam, ds, b1, b2)
        rng = np.random.default_rng(12345)
        draws = 10**6
        nc = rng.poisson(lam * dec.area_common, draws)
        n1 = rng.poisson(lam * dec.area_only1, draws)
        n2 = rng.poisson(lam * dec.area_only2, draws)
        i1 = rng.random(draws) < 0.8
        i2 = rng.random(draws) < 0.8
        hits = ((nc + n1 + i1 >= 3) & (nc + n2 + i2 >= 3)).mean()
        se = math.sqrt(hits * (1 - hits) / draws)
        assert abs(got - hits) <= 4 * se

    def test_finite_set_against_simulation_oracle(self):
        ds = DegreeSet.finite([1, 3])
        lam = 45.0
        dec = _dec(0.015, 0.02, 0.03)
        got = joint_count_prob(dec, lam, ds, B_OFF, B_OFF)
        rng = np.random.default_rng(54321)
        draws = 10**6
        nc = rng.poisson(lam * dec.area_common, draws)
        n1 = rng.poisson(lam * dec.area_only1, draws)
        n2 = rng.poisson(lam * dec.area_only2, draws)
        c1 = nc + n1
        c2 = nc + n2
        hits = (((c1 == 1) | (c1 == 3)) & ((c2 == 1) | (c2 == 3))).mean()
        se = math.sqrt(hits * (1 - hits) / draws)
        assert abs(got - hits) <= 4 * se

    def test_shrinking_overlap_converges_to_product(self):
        ds = DegreeSet.upper_tail(2)
        lam = 50.0
        m1, m2 = 0.03, 0.02
        errors = []
        for common in (0.02, 0.01, 0.005, 0.002, 0.0005, 0.0001):
            joint = joint_count_prob(_dec(common, m1, m2), lam, ds, B_OFF, B_OFF)
            product = poisson_upper_tail(lam * (common + m1), 2) * poisson_upper_tail(
                lam * (common + m2), 2
            )
            errors.append(abs(joint - product))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-3

    def test_truncation_residual_bounds_refinement(self):
        ds = DegreeSet.upper_tail(4)
        mc = np.array([1.3, 0.4])
        m1 = np.array([0.5, 0.8])
        m2 = np.array([0.2, 0.9])
        p = np.array([0.5, 0.0])
        loose, res_loose = _joint_prob_batch(mc, m1, m2, p, p, ds, 1e-4, 10_000)
        tight, res_tight = _joint_prob_batch(mc, m1, m2, p, p, ds, 1e-9, 10_000)
        assert res_tight < res_loose <= 1e-4 * 1.01
        assert np.max(np.abs(loose - tight)) <= res_loose

    def test_budget_exceeded(self):
        ds = DegreeSet.upper_tail(2)
        with pytest.raises(TruncationBudgetExceeded):
            joint_count_prob(_dec(10.0, 0.0, 0.0), 100.0, ds, B_OFF, B_OFF, max_terms=50)


@pytest.fixture(scope="module")
def small_config():
    n = 800
    r = radius_for_mean_degree(n, math.pi, 0.0, 0.0, 1.0)
    return ModelParams(n=n, alpha=math.pi, r=r, v=0.0, q=0.0, mode="poisson", master_seed=42)


class TestTvBound:

    def test_empty_set_gives_zero(self, small_config):
        rep = tv_bound(
            small_config, DegreeSet.empty(), "out",
            outer_samples=300, area_samples=400, ew_samples=300,
        )
        assert rep.i1 == 0.0 and rep.i2 == 0.0 and rep.bound == 0.0

    def test_components_nonnegative_and_bound_capped(self, small_config):
        ds = DegreeSet.upper_tail(5)
        for side in ("out", "in"):
            rep = tv_bound(
                small_config, ds, side,
                outer_samples=800, area_samples=1500, ew_samples=2000,
            )
            assert rep.i1 >= 0.0 and rep.i2 >= 0.0
            assert 0.0 <= rep.bound <= 1.0
            assert rep.bound <= rep.bound_raw + 1e-15
            assert rep.truncation_error <= 1e-8

    def test_i1_respects_crude_bound(self, small_config):
        k = 6
        ds = DegreeSet.upper_tail(k)
        rep = tv_bound(
            small_config, ds, "out",
            outer_samples=3000, area_samples=2000, ew_samples=2000,
        )
        n, r = small_config.n, small_config.r
        crude = n * n * poisson_upper_tail(1.0, k) ** 2 * math.pi * (3 * r) ** 2
        assert rep.i1 <= crude + 3 * rep.i1_se

    def test_truncation_error_accounts_for_stricter_cap(self, small_config):
        ds = DegreeSet.upper_tail(6)
        loose = tv_bound(
            small_config, ds, "out",
            outer_samples=500, area_samples=800, ew_samples=500,
            trunc_cap=1e-3, seed=7,
        )
        tight = tv_bound(
            small_config, ds, "out",
            outer_samples=500, area_samples=800, ew_samples=500,
            trunc_cap=1e-10, seed=7,
        )
        pref = small_config.n**2
        slack = pref * (6 * small_config.r) ** 2 * loose.truncation_error
        assert abs(loose.i2 - tight.i2) <= slack + 1e-12


class TestEmpiricalTv:
    def test_point_mass_closed_form(self):
        got = empirical_tv([0] * 10, math.log(2))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_hand_computed_histogram(self):
        # 0.5*(|1/2 - e^-1| + |1/2 - e^-1| + P(Poi(1) >= 2)) via mpmath.
        assert empirical_tv([0, 1], 1.0) == pytest.approx(0.26424111765711536, rel=1e-12)

    def test_sampling_calibration(self):
        rng = np.random.default_rng(2718)
        draws = rng.poisson(1.3, 100_000)
        assert empirical_tv(draws, 1.3) <= 0.02

    def test_range_and_validation(self):
        with pytest.raises(ValueError):
            empirical_tv([], 1.0)
        with pytest.raises(ValueError):
            empirical_tv([1, 2], 0.0)
        assert 0.0 <= empirical_tv([5, 6, 7], 0.5) <= 1.0


# ``float.hex`` of every float of two small reports, computed before the
# pair decomposition settled any rows.
_PINNED_REPORTS = {
    "out": {
        "ew": "0x1.8de30375623fdp+0", "ew_se": "0x1.b0609495c3fcep-7",
        "i1": "0x1.c922bfa8a0b06p-4", "i1_se": "0x1.070e990fbdd90p-8",
        "i2": "0x1.295372ee1d8dep+0", "i2_se": "0x1.1cc388c2696e8p-2",
        "truncation_error": "0x1.2ed8000000000p-37",
        "bound_raw": "0x1.a35d16f60c6b2p-1", "bound": "0x1.a35d16f60c6b2p-1",
        "bound_se": "0x1.6ebf92f2c252cp-3",
    },
    "in": {
        "ew": "0x1.813eb203d043cp+0", "ew_se": "0x1.096eca99fa066p-6",
        "i1": "0x1.bfcaf9efe7cc3p-4", "i1_se": "0x1.074e27440c351p-8",
        "i2": "0x1.771817bf1e639p+1", "i2_se": "0x1.3ab7d20c836f4p-1",
        "truncation_error": "0x1.7bbc300000000p-32",
        "bound_raw": "0x1.028db528cca87p+1", "bound": "0x1.0000000000000p+0",
        "bound_se": "0x1.a2de8bb1bf8bap-2",
    },
}


@pytest.mark.parametrize("side", ["out", "in"])
def test_tv_bound_is_pinned(side):
    r = radius_for_mean_degree(500, math.pi, 0.1, 0.2, 1.0)
    params = ModelParams(n=500, alpha=math.pi, r=r, v=0.1, q=0.2, mode="poisson", master_seed=7)
    ds = DegreeSet.upper_tail(predict(params).k)
    assert ds.descriptor() == "tail:5"
    rep = tv_bound(params, ds, side, outer_samples=400, area_samples=500, ew_samples=600)
    got = {
        f.name: getattr(rep, f.name).hex()
        for f in dataclasses.fields(rep)
        if isinstance(getattr(rep, f.name), float)
    }
    assert got == _PINNED_REPORTS[side]
