"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is a few minutes on a two-core desktop.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import sectorgraphs as sg
from sectorgraphs import poisson
from sectorgraphs.cli import main as cli_main
from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.harness import TrialOptions, compare, mode_agreement, run_trials
from sectorgraphs.model import ModelParams, degree_summary, sample_trial

from oracles import brute_force_degrees, brute_force_graph, chi2_gof, poisson_tail_mp

MASTER_SEED = 20260810


def _central_params(mode: str) -> ModelParams:
    r = sg.radius_for_mean_degree(10**4, math.pi, 0.1, 0.2, 1.0)
    return ModelParams(
        n=10**4, alpha=math.pi, r=r, v=0.1, q=0.2, mode=mode, master_seed=MASTER_SEED
    )


@pytest.fixture(scope="module")
def poisson_records():
    params = _central_params("poisson")
    return run_trials(
        params, 2000, parallelism=2, options=TrialOptions(interior_degrees=True)
    )


@pytest.fixture(scope="module")
def binomial_records():
    return run_trials(_central_params("binomial"), 2000, parallelism=2)


def test_c1_grid_degrees_equal_brute_force():
    started = time.perf_counter()
    checked = 0
    for n in (50, 200, 500):
        r = sg.radius_for_mean_degree(n, 2.2, 0.15, 0.25, 1.0)
        for seed in range(100):
            mode = "binomial" if seed % 2 == 0 else "poisson"
            params = ModelParams(
                n=n, alpha=2.2, r=r, v=0.15, q=0.25, mode=mode, master_seed=seed
            )
            g = sample_trial(params, 0)
            summary = degree_summary(g)
            _, _, alive, adj = brute_force_graph(params, 0)
            out_deg, in_deg = brute_force_degrees(adj)
            assert np.array_equal(summary.out_degrees, out_deg[alive])
            assert np.array_equal(summary.in_degrees, in_deg[alive])
            if alive.any():
                assert summary.max_out == out_deg[alive].max()
                assert summary.max_in == in_deg[alive].max()
            else:
                assert summary.empty
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\n[criterion 1] PASS - {checked} instances match the O(n^2) oracle "
        f"exactly in {elapsed:.1f}s"
    )


def test_c2_poisson_tail_against_extended_precision():
    started = time.perf_counter()
    worst_rel = 0.0
    worst_log = 0.0
    cells = 0
    for mu in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0):
        for j in (0, 1, 2, 3, 4, 5, 7, 10, 14, 20, 28, 40, 55, 75, 100, 140, 200):
            want = poisson_tail_mp(mu, j)
            got = poisson.upper_tail(mu, j)
            if want > mp.mpf("1e-290"):
                rel = abs(got - float(want)) / float(want)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-10, (mu, j, rel)
            with mp.workdps(60):
                log_want = float(mp.log(want))
            log_err = abs(poisson.upper_tail_log(mu, j) - log_want)
            worst_log = max(worst_log, log_err)
            assert log_err <= 1e-10, (mu, j, log_err)
            cells += 1
    print(
        f"\n[criterion 2] PASS - {cells} grid cells; worst relative error "
        f"{worst_rel:.2e}, worst log error {worst_log:.2e} "
        f"({time.perf_counter() - started:.1f}s)"
    )


def test_c3_focusing_index_construction():
    # The oracle re-checks the defining inequalities in extended precision.
    assert sg.focusing_index(10**4, 0.0, 1.0) == (7, 7)
    assert sg.focusing_index(3000, 0.0, 1.0) == (7, 6)
    assert sg.focusing_index(2, 0.0, 0.5) == (1, 1)
    checked = 0
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        for mu in (0.5, 1.0, 2.0, 5.0):
            for v in (0.0, 0.3, 0.6):
                j, k = sg.focusing_index(n, v, mu)
                with mp.workdps(50):
                    xi_j = poisson_tail_mp(mu, j)
                    xi_jm1 = poisson_tail_mp(mu, j - 1)
                    bound = 1 / (1 - mp.mpf(v))
                    assert n * xi_jm1 > bound >= n * xi_j
                    if (1 - mp.mpf(v)) * n * xi_j <= mp.sqrt(xi_j / xi_jm1):
                        assert k == j - 1
                    else:
                        assert k == j
                checked += 1
    print(f"\n[criterion 3] PASS - worked values and {checked} grid points verified")


def test_c4_two_point_focusing(poisson_records, binomial_records):
    params = _central_params("poisson")
    pred = sg.predict(params)
    assert pred.k == 7
    lines = []
    for label, records in (("poisson", poisson_records), ("binomial", binomial_records)):
        report = compare(records, pred, slack=0.08, params=params)
        for side, sc in report.sides.items():
            assert sc.two_point >= 1.0 - 2 * 0.08, (label, side, sc.two_point)
            assert abs(sc.mass_km1 - pred.p_km1) <= 0.08 + sc.ci_half_km1, (label, side)
            lines.append(
                f"{label}/{side}: mass(k-1)={sc.mass_km1:.4f} "
                f"(pred {pred.p_km1:.4f}), two-point={sc.two_point:.4f}"
            )
    print(f"\n[criterion 4] PASS - k={pred.k}; " + "; ".join(lines))


def test_c5_mode_agreement(binomial_records, poisson_records):
    # c4's records: the same parameters, seed and trial count in each mode.
    report = mode_agreement(binomial_records, poisson_records, seed=MASTER_SEED)
    assert report.distance_out <= 0.1 + report.bootstrap_se_out
    assert report.distance_in <= 0.1 + report.bootstrap_se_in
    print(
        f"\n[criterion 5] PASS - TV(binomial, poisson) out="
        f"{report.distance_out:.4f}±{report.bootstrap_se_out:.4f}, "
        f"in={report.distance_in:.4f}±{report.bootstrap_se_in:.4f}"
    )


def test_c6_tv_bound_dominates_empirical():
    started = time.perf_counter()
    rows = []
    for n in (500, 2000):
        for mu in (0.5, 1.0):
            for v in (0.0, 0.2):
                for q in (0.0, 0.2):
                    r = sg.radius_for_mean_degree(n, math.pi, v, q, mu)
                    params = ModelParams(
                        n=n, alpha=math.pi, r=r, v=v, q=q, mode="poisson",
                        master_seed=MASTER_SEED + n,
                    )
                    pred = sg.predict(params)
                    ds = DegreeSet.upper_tail(pred.k)
                    records = run_trials(
                        params, 2000, parallelism=2,
                        options=TrialOptions(w_sets=((ds, "out"), (ds, "in"))),
                    )
                    crude = (
                        n * n * poisson.upper_tail(mu, pred.k) ** 2
                        * math.pi * (3 * r) ** 2
                    )
                    for side in ("out", "in"):
                        rep = sg.tv_bound(
                            params, ds, side,
                            outer_samples=1500, area_samples=3000, ew_samples=8000,
                        )
                        assert rep.truncation_error <= 1e-8
                        assert rep.i1 <= crude + 3 * rep.i1_se, (n, mu, v, q, side)
                        w = np.array(
                            [rec.w_counts[f"{ds.descriptor()}|{side}"] for rec in records]
                        )
                        emp = sg.empirical_tv(w, rep.ew)
                        boot = sg.empirical_tv_bootstrap_se(w, rep.ew, seed=n)
                        combined = math.hypot(rep.bound_se, boot)
                        assert emp <= rep.bound + 3 * combined, (n, mu, v, q, side)
                        rows.append((n, mu, v, q, side, emp, rep.bound))
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    margin = min(b - e for *_, e, b in rows)
    print(
        f"\n[criterion 6] PASS - {len(rows)} configurations dominated "
        f"(min bound-minus-empirical margin {margin:.3f}) in {elapsed:.0f}s"
    )


def test_c7_model_means_and_thinning(poisson_records):
    params = _central_params("poisson")
    sub = poisson_records[:500]
    means = np.array([rec.interior_sum / rec.interior_count for rec in sub])
    se = means.std() / math.sqrt(means.size)
    assert abs(means.mean() - 1.0) <= 4 * se
    alive = np.array([rec.alive_count for rec in sub])
    lo, hi = alive.min(), alive.max()
    observed = np.bincount(alive - lo, minlength=hi - lo + 1)
    mean_alive = params.n * (1 - params.v)
    probs = stats.poisson.pmf(np.arange(lo, hi + 1), mean_alive)
    probs[0] += stats.poisson.cdf(lo - 1, mean_alive)
    probs[-1] += stats.poisson.sf(hi, mean_alive)
    stat, dof = chi2_gof(observed, probs)
    threshold = stats.chi2.ppf(0.999, dof)
    assert stat < threshold
    print(
        f"\n[criterion 7] PASS - interior mean degree {means.mean():.5f}±{se:.5f} "
        f"vs mu=1; alive-count GOF {stat:.1f} < {threshold:.1f} (dof {dof})"
    )


def test_c8_csv_determinism_across_parallelism(tmp_path):
    args = [
        "simulate", "--n", "1000", "--alpha", "pi", "--mu-target", "1",
        "--v", "0.1", "--q", "0.2", "--mode", "poisson", "--trials", "64",
        "--seed", str(MASTER_SEED),
    ]
    assert cli_main(args + ["--parallelism", "1", "--out", str(tmp_path / "p1")]) == 0
    assert cli_main(args + ["--parallelism", "8", "--out", str(tmp_path / "p8")]) == 0
    b1 = (tmp_path / "p1/trials.csv").read_bytes()
    b8 = (tmp_path / "p8/trials.csv").read_bytes()
    assert b1 == b8
    print(f"\n[criterion 8] PASS - trials.csv byte-identical ({len(b1)} bytes)")


def test_c9_structural_invariants():
    checked = 0
    for alpha in (0.8, math.pi, 2 * math.pi):
        for v in (0.0, 0.3):
            for q in (0.0, 0.4):
                for mode in ("binomial", "poisson"):
                    params = ModelParams(
                        n=400, alpha=alpha, r=0.05, v=v, q=q, mode=mode,
                        master_seed=MASTER_SEED,
                    )
                    for t in range(2):
                        g = sample_trial(params, t)
                        summary = degree_summary(g)
                        assert (
                            int(summary.out_degrees.sum())
                            == int(summary.in_degrees.sum())
                            == g.arcs.shape[0]
                        )
                        if g.arcs.shape[0]:
                            assert bool(np.all(g.alive[g.arcs[:, 0]]))
                            assert bool(np.all(g.alive[g.arcs[:, 1]]))
                        sg.model.check_structure(g)
                        if v == 0.0:
                            assert summary.alive_count == g.realized_count
                        if alpha == 2 * math.pi and q == 0.0:
                            assert np.array_equal(
                                summary.out_degrees, summary.in_degrees
                            )
                        checked += 1
    print(f"\n[criterion 9] PASS - invariants hold on {checked} realizations")
