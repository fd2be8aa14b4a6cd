import concurrent.futures
import math

import numpy as np
import pytest

from sectorgraphs import harness
from sectorgraphs.bounds import expected_count
from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.harness import (
    TrialOptions,
    TrialRecord,
    clopper_pearson,
    compare,
    half_l1,
    mode_agreement,
    run_one_trial,
    run_trials,
    sweep,
    verify,
    write_trials_csv,
)
from sectorgraphs.model import ModelParams, degree_summary, sample_trial
from sectorgraphs.theory import (
    FocusingPrediction,
    mean_degree,
    predict,
    radius_for_mean_degree,
)

from oracles import brute_force_degrees, brute_force_graph


def _params(n=500, mu=1.0, v=0.1, q=0.2, mode="binomial", seed=1234):
    r = radius_for_mean_degree(n, math.pi, v, q, mu)
    return ModelParams(n=n, alpha=math.pi, r=r, v=v, q=q, mode=mode, master_seed=seed)


def _fake_records(values):
    return [
        TrialRecord(
            trial_index=t, seed=0, realized_count=0, alive_count=0,
            max_out=v, max_in=v, empty=False,
        )
        for t, v in enumerate(values)
    ]


class TestRunTrials:
    def test_single_trial_equals_direct_pipeline(self):
        params = _params()
        got = run_trials(params, 1)
        assert got == [run_one_trial(params, 0, TrialOptions())]

    def test_parallelism_changes_nothing(self):
        params = _params(n=300)
        serial = run_trials(params, 24)
        parallel = run_trials(params, 24, parallelism=3)
        assert serial == parallel

    @pytest.mark.parametrize("trials, parallelism, workers", [(3, 64, 3), (1, 4, None), (24, 3, 3)])
    def test_starts_at_most_one_worker_per_trial(self, monkeypatch, trials, parallelism, workers):
        # A fake pool that maps in this process: no worker process starts.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        params = _params(n=200)
        assert run_trials(params, trials, parallelism=parallelism) == run_trials(params, trials)
        assert started == ([] if workers is None else [workers])

    def test_csv_identical_across_worker_counts(self, tmp_path):
        params = _params(n=300, mode="poisson")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(run_trials(params, 16, parallelism=1), a)
        write_trials_csv(run_trials(params, 16, parallelism=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_max_degrees_match_brute_force_replay(self):
        params = _params(n=500, mode="poisson", seed=777)
        records = run_trials(params, 50)
        for rec in records[:50]:
            _, _, alive, adj = brute_force_graph(params, rec.trial_index)
            out_deg, in_deg = brute_force_degrees(adj)
            assert rec.max_out == (out_deg[alive].max() if alive.any() else 0)
            assert rec.max_in == (in_deg[alive].max() if alive.any() else 0)

    def test_w_counts_and_interior_options(self):
        params = _params(n=400, mode="poisson")
        ds = DegreeSet.upper_tail(2)
        opts = TrialOptions(w_sets=((ds, "out"),), interior_degrees=True)
        rec = run_trials(params, 1, options=opts)[0]
        summary = degree_summary(sample_trial(params, 0))
        assert summary.out_degrees.size == rec.alive_count
        assert rec.w_counts[(ds, "out")] == np.count_nonzero(summary.out_degrees >= 2)
        assert rec.interior_count is not None and rec.interior_count <= rec.alive_count

    def test_one_trial_rejects_unknown_w_side(self):
        options = TrialOptions(w_sets=((DegreeSet.upper_tail(2), "total"),))
        with pytest.raises(ValueError, match="side"):
            run_one_trial(_params(n=400, mode="poisson"), 0, options)

    def test_max_degree_by_side(self):
        rec = TrialRecord(
            trial_index=0, seed=0, realized_count=5, alive_count=5, max_out=3, max_in=2, empty=False
        )
        assert (rec.max_degree("out"), rec.max_degree("in")) == (3, 2)
        for side in ("total", "both"):
            with pytest.raises(ValueError, match="side"):
                rec.max_degree(side)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            run_trials(_params(), 0)

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("side", ["total", "both"])
    def test_rejects_unknown_w_side(self, monkeypatch, side, parallelism):
        monkeypatch.setattr(harness, "run_one_trial", None)  # no trial may start
        options = TrialOptions(w_sets=((DegreeSet.upper_tail(2), side),))
        with pytest.raises(ValueError, match="side"):
            run_trials(_params(), 4, parallelism=parallelism, options=options)


class TestCompare:
    def test_all_mass_at_k(self):
        pred = FocusingPrediction(mu=1.0, j=7, k=7, xi_k=8e-5, a=0.8, p_km1=math.exp(-0.8), p_k=1 - math.exp(-0.8))
        report = compare(_fake_records([7] * 400), pred, slack=0.08)
        for sc in report.sides.values():
            assert sc.mass_k == 1.0 and sc.two_point == 1.0
            assert sc.mass_km1 + sc.mass_k + sc.mass_other == pytest.approx(1.0)

    def test_half_half_at_a_log2(self):
        a = math.log(2)
        pred = FocusingPrediction(mu=1.0, j=5, k=5, xi_k=1e-4, a=a, p_km1=0.5, p_k=0.5)
        records = _fake_records([4] * 200 + [5] * 200)
        report = compare(records, pred, slack=0.0)
        for sc in report.sides.values():
            assert sc.mass_km1 == 0.5
            assert sc.point_pass  # |0.5 - 0.5| = 0 <= CI half-width
            assert sc.two_point == 1.0

    def test_histogram_conserves_mass(self):
        pred = FocusingPrediction(mu=1.0, j=3, k=3, xi_k=0.01, a=0.5, p_km1=math.exp(-0.5), p_k=1 - math.exp(-0.5))
        values = [1, 2, 2, 3, 3, 3, 4, 9]
        report = compare(_fake_records(values), pred, slack=0.1)
        sc = report.sides["out"]
        assert sum(sc.hist.values()) == len(values)
        assert sc.mass_km1 + sc.mass_k + sc.mass_other == pytest.approx(1.0)

    def test_calibration_on_exact_two_point_law(self):
        # Records drawn from the predicted law itself must pass at slack 0.05.
        pred = FocusingPrediction(mu=1.0, j=7, k=7, xi_k=8e-5, a=0.75, p_km1=math.exp(-0.75), p_k=1 - math.exp(-0.75))
        rng = np.random.default_rng(2024)
        values = np.where(rng.random(2000) < pred.p_km1, pred.k - 1, pred.k)
        report = compare(_fake_records(values.tolist()), pred, slack=0.05)
        assert report.overall_pass

    def test_verdict_states_thresholds(self):
        pred = FocusingPrediction(mu=1.0, j=3, k=3, xi_k=0.01, a=0.5, p_km1=math.exp(-0.5), p_k=1 - math.exp(-0.5))
        report = compare(_fake_records([3] * 100), pred, slack=0.07)
        assert "0.07" in report.sides["out"].thresholds

    def test_rejects_empty_records(self):
        pred = FocusingPrediction(mu=1.0, j=1, k=1, xi_k=0.5, a=1.0, p_km1=math.exp(-1), p_k=1 - math.exp(-1))
        with pytest.raises(ValueError):
            compare([], pred, slack=0.1)

    @pytest.mark.parametrize("side", ["total", "both"])
    def test_rejects_unknown_side(self, side):
        pred = FocusingPrediction(mu=1.0, j=1, k=1, xi_k=0.5, a=1.0, p_km1=math.exp(-1), p_k=1 - math.exp(-1))
        with pytest.raises(ValueError, match="side"):
            compare(_fake_records([0, 1]), pred, slack=0.1, sides=("out", side))


class TestClopperPearson:
    def test_edges(self):
        assert clopper_pearson(0, 50)[0] == 0.0
        assert clopper_pearson(50, 50)[1] == 1.0

    def test_contains_point_estimate(self):
        lo, hi = clopper_pearson(30, 100, level=0.99)
        assert lo < 0.3 < hi

    def test_equals_beta_quantiles(self):
        from scipy.stats import beta

        for level in (0.95, 0.99):
            tail = (1.0 - level) / 2
            for t in [*range(1, 41), 99, 200, 500, 1000, 2000]:
                s = np.arange(t + 1)
                got = np.array([clopper_pearson(int(k), t, level) for k in s])
                lo = beta.ppf(tail, s[1:], t - s[1:] + 1)
                hi = beta.ppf(1 - tail, s[:-1] + 1, t - s[:-1])
                assert np.array_equal(got[1:, 0], lo) and got[0, 0] == 0.0
                assert np.array_equal(got[:-1, 1], hi) and got[-1, 1] == 1.0


class TestSweep:
    def test_single_point_equals_verify(self):
        params = _params(n=400, mode="poisson", seed=5)
        points = sweep(params, [400], trials=60, mu_target=1.0, slack=0.3)
        direct, _ = verify(_params(n=400, mode="poisson", seed=5), 60, slack=0.3)
        assert len(points) == 1
        got = points[0].report
        assert got.sides["out"].hist == direct.sides["out"].hist
        assert got.sides["in"].mass_km1 == direct.sides["in"].mass_km1

    def test_fixed_mu_schedule_round_trip(self):
        params = _params(n=100, seed=6)
        points = sweep(params, [200, 400, 800], trials=5, mu_target=1.0, slack=1.0)
        for pt in points:
            p = ModelParams(
                n=pt.n, alpha=params.alpha, r=pt.r, v=params.v, q=params.q
            )
            assert mean_degree(p) == pytest.approx(1.0, rel=1e-12)

    def test_per_point_errors_do_not_abort(self):
        params = _params(n=100, seed=7)
        # n = 1 cannot produce a focusing index; the other point still runs.
        points = sweep(params, [1, 300], trials=5, mu_target=1.0, slack=1.0)
        assert points[0].error is not None
        assert points[1].report is not None

    @pytest.mark.parametrize("side", ["total", "both"])
    def test_rejects_unknown_side_before_any_trial(self, monkeypatch, side):
        monkeypatch.setattr(harness, "run_one_trial", None)  # no trial may start
        with pytest.raises(ValueError, match="side"):
            verify(_params(), 300, sides=(side,))
        with pytest.raises(ValueError, match="side"):
            sweep(_params(), [300], trials=300, mu_target=1.0, sides=("out", side))

    def test_requires_schedule(self):
        params = _params()
        with pytest.raises(ValueError):
            sweep(params, [100], trials=1)
        with pytest.raises(ValueError):
            sweep(params, [], trials=1, mu_target=1.0)


class TestModeAgreement:
    def test_same_mode_same_seed_distance_zero(self):
        params = _params(n=300, seed=8)
        rec_a = run_trials(params, 40)
        rec_b = run_trials(params, 40)
        a = np.array([rec.max_out for rec in rec_a])
        b = np.array([rec.max_out for rec in rec_b])
        assert half_l1(a, b) == 0.0

    def test_tiny_smoke(self):
        params = _params(n=10, mu=0.5, seed=9)
        report = mode_agreement(
            run_trials(params.with_mode("binomial"), 500),
            run_trials(params.with_mode("poisson"), 500),
            seed=params.master_seed,
        )
        assert 0.0 <= report.distance_out <= 1.0
        assert 0.0 <= report.distance_in <= 1.0
        assert report.bootstrap_se_out >= 0.0

    def test_record_lists_must_match(self):
        records = _fake_records([3, 4, 4])
        with pytest.raises(ValueError):
            mode_agreement(records, records[:2], seed=1)
        with pytest.raises(ValueError):
            mode_agreement([], [], seed=1)

    def test_bootstrap_is_pinned(self):
        def records(pairs):
            return [
                TrialRecord(trial_index=t, seed=0, realized_count=0, alive_count=0,
                            max_out=o, max_in=i, empty=False)
                for t, (o, i) in enumerate(pairs)
            ]

        report = mode_agreement(
            records([(1, 2), (2, 2), (2, 3), (3, 1), (2, 2), (4, 0)]),
            records([(2, 1), (2, 2), (3, 3), (1, 2), (3, 4), (2, 2)]),
            seed=3,
        )
        got = [report.distance_out, report.bootstrap_se_out, report.distance_in, report.bootstrap_se_in]
        assert [x.hex() for x in got] == [
            "0x1.5555555555555p-3", "0x1.6c1ed55b85313p-3",
            "0x1.5555555555555p-3", "0x1.4c55f7d7bcd8bp-3",
        ]

    def test_half_l1_simple(self):
        assert half_l1(np.array([0, 0, 1, 1]), np.array([1, 0, 1, 0])) == 0.0
        assert half_l1(np.array([0]), np.array([1])) == 1.0


class TestWCountCrossCheck:
    def test_mean_w_matches_expected_count(self):
        n = 800
        r = radius_for_mean_degree(n, math.pi, 0.0, 0.0, 1.0)
        params = ModelParams(n=n, alpha=math.pi, r=r, v=0.0, q=0.0, mode="poisson", master_seed=31)
        pred = predict(params)
        ds = DegreeSet.upper_tail(pred.k)
        opts = TrialOptions(w_sets=((ds, "out"), (ds, "in")))
        records = run_trials(params, 1200, options=opts)
        for side in ("out", "in"):
            w = np.array([rec.w_counts[(ds, side)] for rec in records])
            ew, ew_se = expected_count(params, ds, side, samples=20_000)
            se = math.sqrt(np.var(w) / w.size + ew_se**2)
            assert abs(w.mean() - ew) <= 4 * se
