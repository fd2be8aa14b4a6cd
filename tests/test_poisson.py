"""The Poisson module against extended precision, its shapes, the bit
identity of scalar and vector calls, and the bound's freedom from scipy."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sectorgraphs import poisson

from oracles import poisson_tail_mp

ROOT = Path(__file__).resolve().parents[1]

JS = (0, 1, 2, 3, 5, 8, 13, 20, 30, 50, 75, 120, 200)
# Tiny, moderate and large means, and means just below, at and above each
# small ``j``.
MEANS = sorted(
    {1e-300, 1e-5, 0.3, 1.0, 2.5, 7.0, 19.9999, 35.0, 50.0}
    | {j * f for j in JS if 0 < j <= 50 for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)}
)


def _pmf_mp(k: int, mean: float) -> mp.mpf:
    with mp.workdps(60):
        m = mp.mpf(mean)
        return mp.e ** (-m) * m**k / mp.factorial(k)


def _close_log(got: float, want: mp.mpf) -> bool:
    with mp.workdps(60):
        log_want = float(mp.log(want))
    return abs(got - log_want) <= 1e-10 * max(1.0, abs(log_want))


class TestAgainstExtendedPrecision:
    def test_upper_tail(self):
        grid_mean, grid_j = np.meshgrid(MEANS, JS, indexing="ij")
        tail = poisson.upper_tail(grid_mean, grid_j)
        log_tail = poisson.upper_tail_log(grid_mean, grid_j)
        for (a, b), mean in np.ndenumerate(grid_mean):
            j = int(grid_j[a, b])
            want = poisson_tail_mp(mean, j)
            if want > mp.mpf("1e-290"):
                assert abs(tail[a, b] - float(want)) <= 1e-10 * float(want), (mean, j)
            assert _close_log(log_tail[a, b], want), (mean, j)

    def test_pmf(self):
        ks = np.arange(201)
        for mean in MEANS:
            got = poisson.pmf(ks, mean)
            for k in ks:
                want = _pmf_mp(int(k), mean)
                if want > mp.mpf("1e-290"):
                    assert abs(got[k] - float(want)) <= 1e-10 * float(want), (mean, k)
                else:
                    assert got[k] <= 1e-280

    def test_zero_mean_is_exact(self):
        js = np.arange(-1, 6)
        assert np.array_equal(poisson.upper_tail(0.0, js), (js <= 0).astype(float))
        assert np.array_equal(poisson.upper_tail_log(0.0, js), np.where(js <= 0, 0.0, -np.inf))
        assert np.array_equal(poisson.pmf(np.arange(5), 0.0), [1.0, 0.0, 0.0, 0.0, 0.0])


class TestShapes:
    @pytest.mark.parametrize("entry", [poisson.pmf, poisson.upper_tail, poisson.upper_tail_log])
    @pytest.mark.parametrize(
        "mean, k, shape",
        [
            (1.5, 3, ()),
            (np.float64(0.0), 0, ()),
            (np.empty(0), 3, (0,)),
            (np.array([0.0, 2.0, 9.0]), np.empty((0, 1)), (0, 3)),
            (np.array([[0.0, 0.5, 4.0], [7.0, 1e-300, 60.0]]), 4, (2, 3)),
            (np.array([0.5, 4.0]), np.arange(3).reshape(3, 1), (3, 2)),
        ],
    )
    def test_broadcast_shape_and_dtype(self, entry, mean, k, shape):
        got = np.asarray(entry(k=k, mean=mean) if entry is poisson.pmf else entry(mean, k))
        assert got.shape == shape
        assert got.dtype == np.float64


class TestScalarIsVectorRow:
    def test_bit_identity(self):
        rng = np.random.default_rng(5)
        means = np.concatenate(([0.0, 1e-300], rng.uniform(0.0, 3.0, 40), rng.uniform(3.0, 60.0, 40)))
        js = (0, 1, 2, 4, 7, 15, 40, 90)
        grid = poisson.upper_tail_log(means[:, None], js)  # one ``j`` per row
        for c, j in enumerate(js):
            assert np.array_equal(grid[:, c], poisson.upper_tail_log(means, j))
            rows = poisson.upper_tail(means, j)
            log_rows = poisson.upper_tail_log(means, j)
            pmf_rows = poisson.pmf(j, means)
            for i, mean in enumerate(means):
                assert poisson.upper_tail(mean, j) == rows[i]
                assert poisson.upper_tail_log(mean, j) == log_rows[i]
                assert poisson.pmf(j, mean) == pmf_rows[i]

    def test_rows_do_not_depend_on_the_batch(self):
        # The term count follows the batch's extreme mean; the other rows
        # keep their bits.
        means = np.array([0.2, 4.9, 0.01, 30.0, 5.0, 5.1])
        for j in (1, 5, 31):
            batch = poisson.upper_tail_log(means, j)
            for i in range(means.size):
                assert poisson.upper_tail_log(means[i : i + 1], j)[0] == batch[i]


def test_bound_loads_no_scipy():
    code = (
        "import math, sys; import numpy as np; import sectorgraphs as sg; "
        "from sectorgraphs.degree_sets import DegreeSet; "
        "r = sg.radius_for_mean_degree(300, math.pi, 0.1, 0.2, 1.0); "
        "p = sg.ModelParams(n=300, alpha=math.pi, r=r, v=0.1, q=0.2, mode='poisson', master_seed=3); "
        "sg.tv_bound(p, DegreeSet.upper_tail(4), 'out', outer_samples=200, ew_samples=200); "
        "sg.empirical_tv([0, 1, 1, 3], 1.2); "
        "DegreeSet.parse('set:1,3').poisson_prob(np.array([0.0, 0.7, 2.0]), shift=1); "
        "print(*sorted(sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = done.stdout.split()
    assert "sectorgraphs.bounds" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
