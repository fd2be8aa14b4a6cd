import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.geometry import (
    TWO_PI,
    build_index,
    ordered_pairs_within,
    points_in_sector,
)
from sectorgraphs.model import (
    ModelParams,
    _degree_arrays,
    check_structure,
    degree_summary,
    interior_out_degree_stats,
    sample_graph,
    sample_trial,
    write_edge_list,
    write_vertex_csv,
)
from sectorgraphs.randomness import TrialStream
from sectorgraphs.theory import mean_degree, radius_for_mean_degree

from oracles import brute_force_degrees, brute_force_graph, chi2_gof


class TestParams:
    def test_field_validation_messages(self):
        good = dict(n=10, alpha=math.pi, r=0.1, v=0.1, q=0.1)
        with pytest.raises(ValueError, match="n must"):
            ModelParams(**{**good, "n": 0})
        with pytest.raises(ValueError, match="alpha"):
            ModelParams(**{**good, "alpha": 3 * math.pi})
        with pytest.raises(ValueError, match="r must"):
            ModelParams(**{**good, "r": 0.5})
        with pytest.raises(ValueError, match="v must"):
            ModelParams(**{**good, "v": 1.0})
        with pytest.raises(ValueError, match="q must"):
            ModelParams(**{**good, "q": -0.2})
        with pytest.raises(ValueError, match="mode"):
            ModelParams(**{**good, "mode": "exact"})


def _assert_arcless(g):
    """Checks of a graph without arcs; returns its summary. Such graphs go
    through the same index and pair kernel as any other."""
    assert g.arcs.shape == (0, 2) and g.arcs.dtype == np.int64
    for degrees in _degree_arrays(g):
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, np.zeros(g.realized_count, dtype=np.int64))
    check_structure(g)
    s = degree_summary(g)
    assert s.max_out == s.max_in == 0
    assert s.empty == (s.alive_count == 0)
    return s


class TestSampleGraph:
    def test_certain_arc_without_faults(self):
        # With v = q = 0 the arc relation is purely geometric, so any
        # realized geometry where j sits in i's sector yields the arc.
        params = ModelParams(n=2, alpha=TWO_PI, r=0.45, v=0.0, q=0.0, master_seed=5)
        for t in range(50):
            g = sample_trial(params, t)
            d = math.hypot(
                g.positions[1, 0] - g.positions[0, 0],
                g.positions[1, 1] - g.positions[0, 1],
            )
            if d <= params.r:
                assert g.arcs.tolist() == [[0, 1], [1, 0]]

    def test_single_vertex_has_no_arcs(self):
        params = ModelParams(n=1, alpha=math.pi, r=0.1, v=0.0, q=0.0)
        g = sample_trial(params, 0)
        assert g.arcs.shape == (0, 2)
        s = _assert_arcless(g)
        assert s.alive_count == 1 and not s.empty

    def test_poisson_draw_of_no_vertices(self):
        params = ModelParams(n=1, alpha=math.pi, r=0.2, v=0.0, q=0.3, mode="poisson")
        g = sample_trial(params, 0)
        assert g.realized_count == 0 and g.positions.shape == (0, 2)
        assert _assert_arcless(g).empty

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_two_alive_vertices_at_one_point(self, q):
        # Fixed draws in the stream's order: positions, orientations, alive flags.
        draws = iter([np.full((3, 2), 0.4), np.array([0.0, 0.25, 0.5]), np.array([0.1, 0.1, 0.95])])
        stream = SimpleNamespace(
            generator=SimpleNamespace(random=lambda size: next(draws)),
            pair_uniforms=TrialStream(0, 0).pair_uniforms,
        )
        g = sample_graph(ModelParams(n=3, alpha=TWO_PI, r=0.2, v=0.5, q=q), stream)
        assert g.alive.tolist() == [True, True, False]
        s = _assert_arcless(g)
        assert s.alive_count == 2 and not s.empty

    def test_arc_set_matches_brute_force_replay(self):
        params = ModelParams(
            n=200, alpha=1.9, r=0.08, v=0.2, q=0.3, mode="poisson", master_seed=99
        )
        for t in range(10):
            g = sample_trial(params, t)
            pos, orient, alive, adj = brute_force_graph(params, t)
            assert g.realized_count == pos.shape[0]
            assert np.array_equal(g.positions, pos)
            assert np.array_equal(g.orientations, orient)
            assert np.array_equal(g.alive, alive)
            assert np.array_equal(g.arcs, np.argwhere(adj))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 3),
        r=st.floats(1e-3, 0.5, exclude_max=True),
        v=st.sampled_from([0.0, 0.4]),
        q=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 10**6),
    )
    def test_full_disk_property_matches_brute_force(self, n, r, v, q, seed, trial):
        params = ModelParams(n=n, alpha=TWO_PI, r=r, v=v, q=q, master_seed=seed)
        g = sample_trial(params, trial)
        _, _, _, adj = brute_force_graph(params, trial)
        assert np.array_equal(g.arcs, np.argwhere(adj))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 60),
        alpha=st.one_of(
            st.sampled_from([1e-12, math.pi]), st.floats(1e-12, TWO_PI, exclude_max=True)
        ),
        r=st.floats(1e-3, 0.5, exclude_max=True),
        v=st.sampled_from([0.0, 0.4]),
        q=st.sampled_from([0.0, 0.5]),
        mode=st.sampled_from(["binomial", "poisson"]),
        seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 10**6),
    )
    def test_sector_property_matches_brute_force(self, n, alpha, r, v, q, mode, seed, trial):
        params = ModelParams(n=n, alpha=alpha, r=r, v=v, q=q, mode=mode, master_seed=seed)
        g = sample_trial(params, trial)
        _, _, _, adj = brute_force_graph(params, trial)
        assert np.array_equal(g.arcs, np.argwhere(adj))

    def test_positions_in_square_orientations_in_range(self):
        g = sample_trial(ModelParams(n=500, alpha=math.pi, r=0.05, v=0.0, q=0.0), 1)
        assert np.all((g.positions >= 0) & (g.positions <= 1))
        assert np.all((g.orientations >= 0) & (g.orientations < TWO_PI))


class TestDegrees:
    def test_empty_graph_summary(self):
        params = ModelParams(n=5, alpha=math.pi, r=0.1, v=0.99, q=0.0, master_seed=1)
        for t in range(40):
            g = sample_trial(params, t)
            s = degree_summary(g)
            if s.alive_count == 0:
                assert s.empty and s.max_out == 0 and s.max_in == 0
                assert g.realized_count > 0
                _assert_arcless(g)
                return
        pytest.fail("no empty alive set found at v = 0.99")

    def test_full_disk_no_edge_faults_symmetric(self):
        params = ModelParams(n=300, alpha=TWO_PI, r=0.07, v=0.3, q=0.0, master_seed=2)
        for t in range(5):
            g = sample_trial(params, t)
            s = degree_summary(g)
            assert np.array_equal(s.out_degrees, s.in_degrees)
            assert s.max_out == s.max_in

    def test_degrees_match_brute_force(self):
        params = ModelParams(
            n=500, alpha=2.5, r=0.06, v=0.1, q=0.15, mode="binomial", master_seed=17
        )
        g = sample_trial(params, 3)
        _, _, alive, adj = brute_force_graph(params, 3)
        out_deg, in_deg = brute_force_degrees(adj)
        s = degree_summary(g)
        assert np.array_equal(s.out_degrees, out_deg[alive])
        assert np.array_equal(s.in_degrees, in_deg[alive])
        assert s.max_out == out_deg[alive].max()
        assert s.max_in == in_deg[alive].max()

    def test_structure_invariants_across_params(self):
        cases = [
            ModelParams(n=400, alpha=TWO_PI, r=0.06, v=0.0, q=0.0, master_seed=3),
            ModelParams(n=400, alpha=1.0, r=0.06, v=0.25, q=0.4, master_seed=4),
            ModelParams(n=300, alpha=0.4, r=0.1, v=0.5, q=0.0, mode="poisson", master_seed=5),
        ]
        for params in cases:
            for t in range(3):
                g = sample_trial(params, t)
                check_structure(g)
                s = degree_summary(g)
                assert int(s.out_degrees.sum()) == g.arcs.shape[0]
                assert int(s.in_degrees.sum()) == g.arcs.shape[0]
                if params.v == 0.0:
                    assert s.alive_count == g.realized_count

    def test_every_arc_in_sector(self):
        params = ModelParams(n=250, alpha=1.2, r=0.09, v=0.1, q=0.1, master_seed=8)
        g = sample_trial(params, 0)
        i, j = g.arcs.T
        assert i.size > 0
        assert np.all(
            points_in_sector(
                g.positions[i], g.orientations[i] % TWO_PI, params.alpha, params.r, g.positions[j]
            )
        )

    def test_degree_count_cases(self):
        params = ModelParams(n=300, alpha=math.pi, r=0.08, v=0.2, q=0.1, master_seed=9)
        g = sample_trial(params, 0)
        s = degree_summary(g)
        assert DegreeSet.upper_tail(0).count_in(s.degrees("out")) == s.alive_count
        assert DegreeSet.finite(()).count_in(s.degrees("out")) == 0
        assert DegreeSet.upper_tail(s.max_out).count_in(s.degrees("out")) >= 1
        assert DegreeSet.upper_tail(s.max_in).count_in(s.degrees("in")) >= 1
        for side in ("total", "both"):
            with pytest.raises(ValueError, match="side"):
                s.degrees(side)


_CHECK_UNDER_O = """
import dataclasses, math
import numpy as np
from sectorgraphs.model import ModelParams, check_structure, sample_trial
from sectorgraphs.theory import radius_for_mean_degree

assert not __debug__
r = radius_for_mean_degree(300, math.pi / 2, 0.2, 0.0, 2.0)
g = sample_trial(ModelParams(n=300, alpha=math.pi / 2, r=r, v=0.2, q=0.0, master_seed=5), 0)
check_structure(g)
alive, dead = np.flatnonzero(g.alive), np.flatnonzero(~g.alive)
far = alive[np.argmax(np.sum((g.positions[alive] - g.positions[alive[0]]) ** 2, axis=1))]


def with_arc(tail, head):
    return dataclasses.replace(g, arcs=np.concatenate((g.arcs, [[tail, head]])))


broken = {
    "self-loop": with_arc(alive[0], alive[0]),
    "dead endpoint": with_arc(alive[0], dead[0]),
    "too long": with_arc(alive[0], far),
    "endpoint past the last vertex": with_arc(alive[0], g.realized_count),
    "negative endpoint": with_arc(-1, alive[0]),
    # Turning every tail round by pi moves each arc's head out of its sector.
    "out of sector": dataclasses.replace(g, orientations=(g.orientations + math.pi) % (2 * math.pi)),
    "repeated arc": dataclasses.replace(g, arcs=np.repeat(g.arcs, 2, axis=0)),
}
for case, bad in broken.items():
    try:
        check_structure(bad)
    except AssertionError as exc:
        print(case, "|", exc)
"""


def test_check_structure_runs_under_optimize():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CHECK_UNDER_O],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "self-loop | graph structure: an arc joins coincident points",
        "dead endpoint | graph structure: an arc has a dead endpoint",
        "too long | graph structure: an arc is longer than r",
        "endpoint past the last vertex | graph structure: an arc endpoint is not a vertex index",
        "negative endpoint | graph structure: an arc endpoint is not a vertex index",
        "out of sector | graph structure: an arc leaves its tail's sector",
        "repeated arc | graph structure: arcs are not strictly increasing in (tail, head)",
    ]


def test_check_structure_rejects_swapped_arcs():
    params = ModelParams(n=300, alpha=math.pi, r=0.1, v=0.1, q=0.2, master_seed=6)
    g = sample_trial(params, 0)
    check_structure(g)
    g.arcs[[0, -1]] = g.arcs[[-1, 0]]
    with pytest.raises(AssertionError, match=r"strictly increasing in \(tail, head\)"):
        check_structure(g)


class TestStatistics:
    def test_interior_mean_out_degree_binomial(self):
        n, trials = 3000, 120
        r = radius_for_mean_degree(n, math.pi, 0.1, 0.2, 1.0)
        params = ModelParams(
            n=n, alpha=math.pi, r=r, v=0.1, q=0.2, mode="binomial", master_seed=77
        )
        mu = mean_degree(params)
        target = mu * (n - 1) / n
        means = []
        for t in range(trials):
            g = sample_trial(params, t)
            total, count = interior_out_degree_stats(g)
            means.append(total / count)
        got = float(np.mean(means))
        se = float(np.std(means) / math.sqrt(trials))
        assert abs(got - target) <= 4.0 * se

    def test_alive_count_distribution_binomial(self):
        n, v, trials = 400, 0.3, 2000
        params = ModelParams(n=n, alpha=1.0, r=0.02, v=v, q=0.0, master_seed=11)
        counts = np.array(
            [degree_summary(sample_trial(params, t)).alive_count for t in range(trials)]
        )
        observed = np.bincount(counts, minlength=n + 1)
        probs = stats.binom.pmf(np.arange(n + 1), n, 1 - v)
        stat, dof = chi2_gof(observed, probs)
        assert stat < stats.chi2.ppf(0.999, dof)

    def test_alive_count_distribution_poisson(self):
        n, v, trials = 300, 0.2, 2000
        params = ModelParams(
            n=n, alpha=1.0, r=0.02, v=v, q=0.0, mode="poisson", master_seed=12
        )
        counts = np.array(
            [degree_summary(sample_trial(params, t)).alive_count for t in range(trials)]
        )
        hi = int(counts.max()) + 1
        observed = np.bincount(counts, minlength=hi)
        probs = stats.poisson.pmf(np.arange(hi), n * (1 - v))
        stat, dof = chi2_gof(observed, probs)
        assert stat < stats.chi2.ppf(0.999, dof)


class TestDumps:
    def test_edge_list_format(self, tmp_path):
        params = ModelParams(n=60, alpha=math.pi, r=0.2, v=0.1, q=0.1, master_seed=21)
        g = sample_trial(params, 0)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        lines = path.read_text().splitlines()
        n, alive = map(int, lines[0].split())
        assert n == g.realized_count
        assert alive == degree_summary(g).alive_count
        assert [list(map(int, line.split())) for line in lines[1:]] == g.arcs.tolist()

    def test_vertex_csv_roundtrip(self, tmp_path):
        params = ModelParams(n=40, alpha=math.pi, r=0.2, v=0.2, q=0.0, master_seed=22)
        g = sample_trial(params, 0)
        path = tmp_path / "vertices.csv"
        write_vertex_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,x,y,theta,alive"
        assert len(lines) == 1 + g.realized_count
        k, x, y, theta, alive = lines[1].split(",")
        assert int(k) == 0
        assert float(x) == g.positions[0, 0]
        assert float(y) == g.positions[0, 1]
        assert float(theta) == g.orientations[0]
        assert int(alive) == int(g.alive[0])

    def test_dump_bytes_are_pinned(self, tmp_path):
        params = ModelParams(n=80, alpha=math.pi, r=0.2, v=0.2, q=0.1, master_seed=23)
        g = sample_trial(params, 0)
        write_edge_list(g, tmp_path / "edges.txt")
        write_vertex_csv(g, tmp_path / "vertices.csv")
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("edges.txt", "vertices.csv")
        ]
        assert digests == [
            "88ba6e5e895cbb811f26606c3fd30be3c98bafc798ecb607c2195a4da890ee9c",
            "de8b7e05c2b67209c70588ff41ee7e564065392c86675adaf2cd2c9e83c8badc",
        ]


def test_stream_draw_order_is_documented_contract():
    # Positions, orientations, alive flags come off the generator in that
    # order; edge uniforms never touch generator state.
    params = ModelParams(n=50, alpha=math.pi, r=0.1, v=0.3, q=0.5, master_seed=31)
    g = sample_trial(params, 4)
    stream = TrialStream(31, 4)
    gen = stream.generator
    assert np.array_equal(g.positions, gen.random((50, 2)))
    assert np.array_equal(g.orientations, TWO_PI * gen.random(50))
    assert np.array_equal(g.alive, gen.random(50) < 1.0 - params.v)
    u1 = stream.pair_uniforms(np.array([3]), np.array([7]))
    u2 = TrialStream(31, 4).pair_uniforms(np.array([3]), np.array([7]))
    assert u1 == u2
    assert stream.pair_uniform(3, 7) == u1[0]


def _sha256(*arrays: np.ndarray) -> str:
    return hashlib.sha256(b"".join(a.astype("<i8").tobytes() for a in arrays)).hexdigest()


# Arcs come out in ascending (tail, head) order, which the oracle tests check
# as arrays; these digests keep the arc set at sizes the O(n^2) oracle
# cannot reach.
@pytest.mark.parametrize(
    "alpha, arcs, digest",
    [
        (math.pi, 8894, "240d6508890109acf07dcc6659757f32464d25323aae5d49cc2d335d04dcde98"),
        (TWO_PI, 9014, "00899bb9660967db380c3dbd5dfbd72753de5606efba8548d3a1b5d312b9a65e"),
    ],
)
def test_arc_order_is_pinned(alpha, arcs, digest):
    r = radius_for_mean_degree(10_000, alpha, 0.1, 0.2, 1.0)
    params = ModelParams(
        n=10_000, alpha=alpha, r=r, v=0.1, q=0.2, mode="poisson", master_seed=2024
    )
    g = sample_graph(params, TrialStream(2024, 3))
    assert g.arcs.shape == (arcs, 2)
    assert _sha256(g.arcs) == digest


def test_sector_arc_order_is_pinned():
    # alpha = pi/3 with no faults: the arcs come from the sector tests alone.
    n, alpha = 20_000, math.pi / 3
    r = radius_for_mean_degree(n, alpha, 0.0, 0.0, 1.0)
    params = ModelParams(
        n=n, alpha=alpha, r=r, v=0.0, q=0.0, mode="binomial", master_seed=2024
    )
    g = sample_graph(params, TrialStream(2024, 3))
    assert g.arcs.shape == (19_804, 2)
    assert _sha256(g.arcs) == "5b847599db7c0ef11bb19ff14d225eb32bee60557879a027eb926643e098815a"


def test_pair_order_is_pinned():
    pts = np.random.default_rng(99).random((10_000, 2))
    # The full disk: every pair of the (distinct) points within 0.02, both ways.
    i, j = ordered_pairs_within(build_index(pts, 0.02), np.zeros(len(pts)), TWO_PI)
    assert i.size == 123_498
    assert _sha256(i, j) == "0ef5e506068bee4aa1bd602f99f29fdf350297ae3d23bc08876475132f05e1af"
