import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorgraphs import poisson, theory
from sectorgraphs.model import ModelParams
from sectorgraphs.theory import (
    NoFocusingIndex,
    RadiusOutOfRange,
    focusing_index,
    max_degree_law,
    mean_degree,
    predict,
    radius_for_mean_degree,
)

from oracles import poisson_tail_mp, scan_focusing_index, scan_max_degree_law


class TestMeanDegree:
    def test_worked_value(self):
        params = ModelParams(n=1000, alpha=math.pi, r=0.03, v=0.1, q=0.2)
        # (pi/2) * 1000 * 0.0009 * 0.9 * 0.8, evaluated independently.
        assert mean_degree(params) == pytest.approx(1.017876019763093, rel=1e-12)

    def test_unit_factors(self):
        params = ModelParams(n=16, alpha=2 * math.pi, r=0.25, v=0, q=0)
        assert mean_degree(params) == math.pi

    def test_quadratic_in_radius(self):
        base = ModelParams(n=500, alpha=1.5, r=0.02, v=0.1, q=0.3)
        doubled = ModelParams(n=500, alpha=1.5, r=0.04, v=0.1, q=0.3)
        assert mean_degree(doubled) == pytest.approx(4 * mean_degree(base), rel=1e-12)


class TestRadiusForMeanDegree:
    def test_round_trip(self):
        r = radius_for_mean_degree(10**4, math.pi, 0.1, 0.2, 1.0)
        params = ModelParams(n=10**4, alpha=math.pi, r=r, v=0.1, q=0.2)
        assert abs(mean_degree(params) - 1.0) <= 1e-12

    def test_target_scaling(self):
        r1 = radius_for_mean_degree(2000, math.pi, 0.0, 0.0, 1.0)
        r4 = radius_for_mean_degree(2000, math.pi, 0.0, 0.0, 4.0)
        assert r4 == pytest.approx(2 * r1, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RadiusOutOfRange):
            radius_for_mean_degree(10, 0.1, 0.9, 0.9, 100.0)


class TestPoissonUpperTail:
    def test_zero_threshold_full_mass(self):
        assert poisson.upper_tail(3.7, 0) == 1.0

    def test_one_threshold(self):
        assert poisson.upper_tail(1.0, 1) == pytest.approx(1 - math.exp(-1), rel=1e-14)

    def test_frozen_oracle_value(self):
        # mpmath term-by-term summation gives 8.3241149288023108e-5.
        assert poisson.upper_tail(1.0, 7) == pytest.approx(8.3241149288023108e-5, rel=1e-12)

    def test_against_extended_precision_grid(self):
        for mu in (0.1, 0.7, 1.0, 3.0, 9.5, 25.0, 50.0):
            for j in (0, 1, 2, 5, 11, 30, 80, 150, 200):
                want = poisson_tail_mp(mu, j)
                got = poisson.upper_tail(mu, j)
                if want > 1e-290:
                    assert abs(got - float(want)) / float(want) <= 1e-10
                log_want = float(__import__("mpmath").log(want))
                assert abs(poisson.upper_tail_log(mu, j) - log_want) <= 1e-10

    def test_strictly_decreasing_until_underflow(self):
        mu = 2.3
        prev = poisson.upper_tail(mu, 0)
        for j in range(1, 60):
            cur = poisson.upper_tail(mu, j)
            if cur == 0.0:
                break
            assert cur < prev
            prev = cur

    def test_difference_is_pmf(self):
        for mu in (0.4, 1.0, 6.0, 20.0):
            for j in range(0, 40):
                diff = poisson.upper_tail(mu, j) - poisson.upper_tail(mu, j + 1)
                pmf = math.exp(-mu + j * math.log(mu) - math.lgamma(j + 1))
                if pmf > 1e-280:
                    assert diff == pytest.approx(pmf, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(min_value=0.1, max_value=50.0),
        j=st.integers(min_value=0, max_value=200),
    )
    def test_in_unit_interval_and_monotone(self, mu, j):
        a = poisson.upper_tail(mu, j)
        b = poisson.upper_tail(mu, j + 1)
        assert 0.0 <= b <= a <= 1.0


class TestFocusingIndex:
    def test_worked_example_large_n(self):
        # Oracle arithmetic: n*xi(7) = 0.83241 <= 1 < n*xi(6) = 5.94185,
        # and 0.83241 > sqrt(xi7/xi6) = 0.37429, so k stays at j.
        assert focusing_index(10**4, 0.0, 1.0) == (7, 7)

    def test_worked_example_steps_down(self):
        # n*xi(7) = 0.24972 <= sqrt(xi7/xi6) = 0.37429 pushes k to j-1.
        assert focusing_index(3000, 0.0, 1.0) == (7, 6)

    def test_worked_example_tiny_n(self):
        # xi(1) = 1 - exp(-0.5); 2*xi(1) = 0.78694 > sqrt(xi1) = 0.62727.
        assert focusing_index(2, 0.0, 0.5) == (1, 1)

    def test_no_index_when_thinned_size_too_small(self):
        with pytest.raises(NoFocusingIndex):
            focusing_index(1, 0.0, 1.0)
        with pytest.raises(NoFocusingIndex):
            focusing_index(10, 0.9, 1.0)

    def test_rejects_nonpositive_mean(self):
        # Mean 0 has no two-point law, and a negative mean's tails are NaN,
        # which never meet the bound, so the search would not end.
        for mu in (0.0, -1.0):
            with pytest.raises(ValueError):
                focusing_index(100, 0.0, mu)

    def test_defining_inequalities_on_grid(self):
        for n in (10**2, 10**3, 10**4, 10**5, 10**6):
            for mu in (0.5, 1.0, 2.0, 5.0):
                for v in (0.0, 0.3, 0.6):
                    j, k = focusing_index(n, v, mu)
                    bound = 1.0 / (1.0 - v)
                    xi_j = poisson.upper_tail(mu, j)
                    xi_jm1 = poisson.upper_tail(mu, j - 1)
                    assert n * xi_jm1 > bound >= n * xi_j
                    if (1 - v) * n * xi_j <= math.sqrt(xi_j / xi_jm1):
                        assert k == j - 1
                    else:
                        assert k == j

    def test_monotone_in_n(self):
        for mu in (0.5, 1.0, 2.0, 5.0):
            for v in (0.0, 0.3, 0.6):
                pairs = [focusing_index(n, v, mu) for n in (10**2, 10**3, 10**4, 10**5, 10**6)]
                js = [p[0] for p in pairs]
                ks = [p[1] for p in pairs]
                assert js == sorted(js)
                assert ks == sorted(ks)

    def test_scale_consistency_exact_thinning(self):
        # All formulas depend on n only through n*(1-v): with v = 0.5 the
        # product is exact in floats, so (n, 0.5) and (n/2, 0) must agree.
        for n in (200, 2000, 20_000, 200_000):
            for mu in (0.5, 1.0, 2.0, 5.0):
                j1, k1 = focusing_index(n, 0.5, mu)
                j2, k2 = focusing_index(n // 2, 0.0, mu)
                assert (j1, k1) == (j2, k2)
                a1 = n * 0.5 * poisson.upper_tail(mu, k1)
                a2 = (n // 2) * poisson.upper_tail(mu, k2)
                assert a1 == pytest.approx(a2, rel=1e-12)


class TestPredict:
    def test_frozen_prediction(self):
        r = radius_for_mean_degree(10**4, math.pi, 0.0, 0.0, 1.0)
        params = ModelParams(n=10**4, alpha=math.pi, r=r, v=0.0, q=0.0)
        pred = predict(params)
        assert pred.mu == pytest.approx(1.0, rel=1e-12)
        assert (pred.j, pred.k) == (7, 7)
        assert pred.a == pytest.approx(0.83241149288023108, rel=1e-10)
        assert pred.p_km1 == pytest.approx(0.43499902343184771, rel=1e-10)
        assert pred.p_k == pytest.approx(0.56500097656815229, rel=1e-10)

    def test_masses_sum_to_one_exactly(self):
        for n, mu, v in ((500, 0.5, 0.0), (10**4, 1.0, 0.1), (10**5, 2.0, 0.3)):
            r = radius_for_mean_degree(n, math.pi, v, 0.0, mu)
            pred = predict(ModelParams(n=n, alpha=math.pi, r=r, v=v, q=0.0))
            assert pred.p_km1 + pred.p_k == 1.0

    def test_mass_parameter_monotone_in_v_at_fixed_k(self):
        n, mu, k = 10**4, 1.0, 7
        xi = poisson.upper_tail(mu, k)
        values = [n * (1 - v) * xi for v in (0.0, 0.2, 0.4, 0.6)]
        assert values == sorted(values, reverse=True)

    def test_given_focusing_k_reproduces_prediction(self):
        for n, mu, v in ((500, 0.5, 0.0), (10**4, 1.0, 0.1), (10**5, 2.0, 0.3)):
            r = radius_for_mean_degree(n, math.pi, v, 0.0, mu)
            params = ModelParams(n=n, alpha=math.pi, r=r, v=v, q=0.0)
            pred = predict(params)
            assert predict(params, k=pred.k) == pred
            other = predict(params, k=pred.k + 3)
            assert (other.mu, other.j, other.k) == (pred.mu, pred.j, pred.k + 3)
            assert other.xi_k == poisson.upper_tail(pred.mu, pred.k + 3)

    def test_given_k_must_be_a_positive_integer(self):
        r = radius_for_mean_degree(500, math.pi, 0.0, 0.0, 1.0)
        params = ModelParams(n=500, alpha=math.pi, r=r, v=0.0, q=0.0)
        for k in (0, -3, np.int64(0)):
            with pytest.raises(ValueError, match="k must be at least 1"):
                predict(params, k=k)
        with pytest.raises(TypeError):
            predict(params, k=2.5)
        assert predict(params, k=np.int64(1)) == predict(params, k=1)
        assert type(predict(params, k=np.int64(1)).k) is int


class TestMaxDegreeLaw:
    # (n, mu, v, q); the paper's regime and the near-empty graph at mu = 0.001.
    CONFIGS = [
        (10**4, 1.0, 0.1, 0.2), (10**4, 2.0, 0.1, 0.2), (10**3, 4.0, 0.1, 0.2),
        (100, 0.001, 0.1, 0.2), (10**5, 0.5, 0.0, 0.0), (10**6, 16.0, 0.1, 0.2),
    ]

    @staticmethod
    def _params(n, mu, v, q):
        r = radius_for_mean_degree(n, math.pi, v, q, mu)
        return ModelParams(n=n, alpha=math.pi, r=r, v=v, q=q)

    @pytest.mark.parametrize("n, mu, v, q", CONFIGS)
    def test_masses_form_a_law(self, n, mu, v, q):
        law = max_degree_law(self._params(n, mu, v, q))
        assert all(mass >= 0.0 for mass in law.values())
        assert abs(sum(law.values()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n, mu, v, q", CONFIGS)
    def test_cdf_at_k_minus_1_is_the_two_point_mass(self, n, mu, v, q):
        params = self._params(n, mu, v, q)
        law, pred = max_degree_law(params), predict(params)
        assert abs(sum(law[m] for m in law if m <= pred.k - 1) - pred.p_km1) <= 1e-9

    @pytest.mark.parametrize("n, mu, v, q", CONFIGS)
    def test_keys_are_consecutive_and_hold_the_pair(self, n, mu, v, q):
        params = self._params(n, mu, v, q)
        keys, k = list(max_degree_law(params)), predict(params).k
        assert keys == list(range(keys[0], keys[0] + len(keys)))
        assert {k - 1, k} <= set(keys)

    def test_mass_at_zero_is_exp_minus_a1(self):
        # Graphs with no arc count at m = 0.
        params = self._params(100, 0.001, 0.1, 0.2)
        assert max_degree_law(params)[0] == predict(params, k=1).p_km1

    def test_worked_case_where_another_pair_is_likelier(self):
        params = self._params(10**4, 2.0, 0.1, 0.2)
        law, k = max_degree_law(params), predict(params).k
        assert k == 9
        assert law[8] + law[9] == pytest.approx(0.657993, abs=5e-7)
        pairs = {m: law[m] + law.get(m + 1, 0.0) for m in law}
        assert max(pairs, key=pairs.get) == 9
        assert pairs[9] == pytest.approx(0.810, abs=5e-4)


class TestBoundedSearch:
    """The doubling search and bisection find the ``j`` and the law's first
    key that a scan from 1 finds, so every result keeps its bits."""

    @staticmethod
    def _check(n, v, mu):
        if n * (1.0 - v) > 1.0:
            assert focusing_index(n, v, mu) == scan_focusing_index(n, v, mu)
        try:
            r = radius_for_mean_degree(n, 2 * math.pi, v, 0.0, mu)
        except RadiusOutOfRange:
            return
        params = ModelParams(n=n, alpha=2 * math.pi, r=r, v=v, q=0.0)
        law, want = max_degree_law(params), scan_max_degree_law(params)
        assert list(law.items()) == list(want.items())

    @pytest.mark.parametrize("n", [3, 10, 100, 10**3, 10**4, 10**6, 10**8])
    @pytest.mark.parametrize("v", [0.0, 0.1, 0.5, 0.9])
    def test_matches_linear_scan(self, n, v):
        for mu in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 17.0, 60.0):
            self._check(n, v, mu)

    @pytest.mark.parametrize("n, v", [(3, 0.0), (10**3, 0.0), (10**4, 0.1), (10**6, 0.5), (10**8, 0.9)])
    def test_matches_linear_scan_at_large_mean(self, n, v):
        # A scan at mu = 300 takes about 0.08 s per point, so fewer points.
        self._check(n, v, 300.0)

    def test_large_mean_takes_few_tails(self, monkeypatch):
        # At (n, mu) = (10^5, 1131) a scan from 1 takes 1277 tails to find
        # j, and 1250 before the law's first key; doubling to 2048 and
        # bisecting take about 2 * log2(2048).
        calls = []
        tail = theory._tail
        monkeypatch.setattr(theory, "_tail", lambda mu, j: calls.append(j) or tail(mu, j))
        assert focusing_index(10**5, 0.1, 1131.0) == (1277, 1277)
        assert len(calls) <= 2 * 11 + 2
        calls.clear()
        law = max_degree_law(ModelParams(n=10**5, alpha=math.pi, r=0.1, v=0.1, q=0.2))
        assert min(law) == 1250
        assert len(calls) <= 2 * 11 + 1 + len(law)


class TestNonFiniteInput:
    @pytest.mark.parametrize("v, mu", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)])
    def test_focusing_index_raises(self, v, mu):
        # Each of these used to search for j forever.
        with pytest.raises(ValueError):
            focusing_index(1000, v, mu)

    def test_radius_rejects_nan_target(self):
        with pytest.raises(ValueError, match="mu_target must be positive"):
            radius_for_mean_degree(1000, math.pi, 0.0, 0.0, math.nan)
