"""Seeded parallel Monte Carlo experiments over graph realizations.

Trial ``t`` of a run is fully determined by ``(master_seed, t)``, so worker
count and execution order never change any record. Aggregation compares
empirical max-degree laws against the two-point focusing prediction with
exact binomial confidence intervals at level ``CI_LEVEL``.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .bounds import bootstrap_se
from .degree_sets import DegreeSet
from .model import (
    SIDES,
    ModelParams,
    check_side,
    degree_summary,
    interior_out_degree_stats,
    sample_graph,
)
from .randomness import TrialStream, substream
from .theory import (
    TWO_POINT_CONVENTION,
    FocusingPrediction,
    NoFocusingIndex,
    RadiusOutOfRange,
    predict,
    radius_for_mean_degree,
)

_DOM_AGREE_BOOT = 0xA61
CI_LEVEL = 0.99


@dataclass(frozen=True)
class TrialOptions:
    """What to record per trial beyond counts and maxima."""

    w_sets: tuple[tuple[DegreeSet, str], ...] = ()
    interior_degrees: bool = False


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    realized_count: int
    alive_count: int
    max_out: int
    max_in: int
    empty: bool
    w_counts: dict[tuple[DegreeSet, str], int] | None = None
    interior_sum: int | None = None
    interior_count: int | None = None

    def max_degree(self, side: str) -> int:
        """The largest out- or in-degree of the trial's graph."""
        check_side(side)
        return self.max_out if side == "out" else self.max_in


@dataclass
class SideComparison:
    side: str
    mass_km1: float
    mass_k: float
    mass_other: float
    se_km1: float
    ci_half_km1: float
    two_point: float
    ci_half_two_point: float
    hist: dict[int, int]
    point_pass: bool
    two_point_pass: bool
    verdict: str
    thresholds: str


@dataclass
class ExperimentReport:
    params: ModelParams
    prediction: FocusingPrediction
    trials: int
    slack: float
    ci_level: float
    sides: dict[str, SideComparison]
    overall_pass: bool
    convention: str = TWO_POINT_CONVENTION
    wall_clock_seconds: float = 0.0
    tv_cross_checks: list | None = None


@dataclass
class ModeAgreementReport:
    trials: int
    distance_out: float
    bootstrap_se_out: float
    distance_in: float
    bootstrap_se_in: float


@dataclass
class SweepPoint:
    n: int
    r: float | None
    report: ExperimentReport | None = None
    error: str | None = None


def run_one_trial(
    params: ModelParams, trial_index: int, options: TrialOptions
) -> TrialRecord:
    stream = TrialStream(params.master_seed, trial_index)
    g = sample_graph(params, stream)
    summary = degree_summary(g)
    rec = TrialRecord(
        trial_index=trial_index,
        seed=stream.trial_seed,
        realized_count=g.realized_count,
        alive_count=summary.alive_count,
        max_out=summary.max_out,
        max_in=summary.max_in,
        empty=summary.empty,
    )
    if options.w_sets:
        rec.w_counts = {(ds, side): ds.count_in(summary.degrees(side)) for ds, side in options.w_sets}
    if options.interior_degrees:
        rec.interior_sum, rec.interior_count = interior_out_degree_stats(summary, g.positions, params.r)
    return rec


def _keep_heap() -> None:
    """Keep up to 32 MiB of freed heap, and serve requests below 4 MiB from
    the heap (glibc's ``mallopt``; elsewhere nothing is set).

    Under glibc's self-adjusting defaults a fresh process gives a trial's
    block temporaries back to the system and faults them in again: about
    500-700 minor page faults per trial at n = 10^4, against 1-2 here.
    Setting either threshold freezes both, so both are set. Only memory
    reuse changes, no result."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def run_trials(
    params: ModelParams,
    trials: int,
    parallelism: int = 1,
    options: TrialOptions | None = None,
) -> list[TrialRecord]:
    """Run ``trials`` independent trials; records are identical for any
    ``parallelism``. At most ``trials`` worker processes start. Each
    process that runs trials, this one or each pool worker, first calls
    ``_keep_heap``, so a trial reuses the previous one's freed pages."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    options = options or TrialOptions()
    for _, side in options.w_sets:
        check_side(side)
    workers = min(parallelism, trials)
    if workers <= 1:
        _keep_heap()
        return [run_one_trial(params, t, options) for t in range(trials)]
    # Imported on use: it loads ``multiprocessing``, ``subprocess`` and
    # ``socket``, which took about 40 ms of the package's import and first
    # ``predict`` in a fresh interpreter (2-vCPU VM).
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, trials // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_heap) as pool:
        return list(pool.map(run_one_trial, repeat(params, trials), range(trials),
                             repeat(options, trials), chunksize=chunk))


def clopper_pearson(successes: int, trials: int, level: float = CI_LEVEL) -> tuple[float, float]:
    """Exact binomial confidence interval.

    The endpoints are beta quantiles, ``scipy.stats.beta.ppf``; the same
    values come from ``betaincinv`` without importing ``scipy.stats``.
    """
    from scipy.special import betaincinv

    alpha = 1.0 - level
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def int_hist(values) -> dict[int, int]:
    """Value -> count of a sequence of ints, sorted by value."""
    uniq, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    return {int(u): int(c) for u, c in zip(uniq, counts)}


def _compare_side(
    records: list[TrialRecord],
    prediction: FocusingPrediction,
    slack: float,
    side: str,
) -> SideComparison:
    t = len(records)
    hist = int_hist([rec.max_degree(side) for rec in records])
    n_km1 = hist.get(prediction.k - 1, 0)
    n_k = hist.get(prediction.k, 0)
    mass_km1 = n_km1 / t
    mass_k = n_k / t
    two = (n_km1 + n_k) / t
    lo1, hi1 = clopper_pearson(n_km1, t)
    lo2, hi2 = clopper_pearson(n_km1 + n_k, t)
    half1 = 0.5 * (hi1 - lo1)
    half2 = 0.5 * (hi2 - lo2)
    point_pass = abs(mass_km1 - prediction.p_km1) <= slack + half1
    two_pass = two >= 1.0 - 2.0 * slack
    thresholds = (
        f"|mass(k-1) - exp(-a)| <= slack {slack} + CP half-width {half1:.4f} "
        f"at level {CI_LEVEL}; two-point mass >= 1 - 2*{slack}"
    )
    return SideComparison(
        side=side,
        mass_km1=mass_km1,
        mass_k=mass_k,
        mass_other=1.0 - two,
        se_km1=math.sqrt(max(mass_km1 * (1.0 - mass_km1), 1e-300) / t),
        ci_half_km1=half1,
        two_point=two,
        ci_half_two_point=half2,
        hist=hist,
        point_pass=bool(point_pass),
        two_point_pass=bool(two_pass),
        verdict="PASS" if (point_pass and two_pass) else "FAIL",
        thresholds=thresholds,
    )


def compare(
    records: list[TrialRecord],
    prediction: FocusingPrediction,
    slack: float,
    params: ModelParams | None = None,
    sides: tuple[str, ...] = SIDES,
    wall_clock_seconds: float = 0.0,
) -> ExperimentReport:
    """Score empirical max-degree masses against the two-point prediction,
    with Clopper-Pearson intervals at level ``CI_LEVEL``."""
    if not records:
        raise ValueError("records must be nonempty")
    if not sides:
        raise ValueError("sides must be nonempty")
    for side in sides:
        check_side(side)
    out = {side: _compare_side(records, prediction, slack, side) for side in sides}
    return ExperimentReport(
        params=params,
        prediction=prediction,
        trials=len(records),
        slack=slack,
        ci_level=CI_LEVEL,
        sides=out,
        overall_pass=all(sc.verdict == "PASS" for sc in out.values()),
        wall_clock_seconds=wall_clock_seconds,
    )


def verify(
    params: ModelParams,
    trials: int,
    slack: float = 0.08,
    parallelism: int = 1,
    sides: tuple[str, ...] = SIDES,
    prediction: FocusingPrediction | None = None,
) -> tuple[ExperimentReport, list[TrialRecord]]:
    """Predict, simulate and compare in one step."""
    if not sides:
        raise ValueError("sides must be nonempty")
    for side in sides:
        check_side(side)
    started = time.perf_counter()
    pred = prediction if prediction is not None else predict(params)
    records = run_trials(params, trials, parallelism)
    report = compare(
        records,
        pred,
        slack,
        params=params,
        sides=sides,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return report, records


def sweep(
    params: ModelParams,
    n_grid: list[int],
    trials: int,
    mu_target: float | None = None,
    r_list: list[float] | None = None,
    slack: float = 0.08,
    parallelism: int = 1,
    sides: tuple[str, ...] = SIDES,
) -> list[SweepPoint]:
    """One verification per grid point. A point beyond the model's limits
    (``RadiusOutOfRange``, ``NoFocusingIndex``) records its error, with
    ``r`` None, and does not abort the rest; any other error propagates.

    The radius schedule is either fixed mean degree (``mu_target``) or an
    explicit ``r_list`` aligned with ``n_grid``. Every ``n`` (an integer >= 1)
    and every listed ``r`` (in ``(0, 0.5)``) is checked before the first trial.
    """
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if (mu_target is None) == (r_list is None):
        raise ValueError("exactly one of mu_target / r_list is required")
    if r_list is not None and len(r_list) != len(n_grid):
        raise ValueError("r_list must align with n_grid")
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in n_grid):
        raise ValueError("n_grid: every n must be an integer >= 1")
    if r_list is not None and not all(0 < r < 0.5 for r in r_list):
        raise ValueError("r_list: every r must lie in (0, 0.5)")
    points: list[SweepPoint] = []
    for pos, n in enumerate(n_grid):
        try:
            r = (
                radius_for_mean_degree(n, params.alpha, params.v, params.q, mu_target)
                if mu_target is not None
                else r_list[pos]
            )
            p = replace(params, n=n, r=r)
            report, _ = verify(p, trials, slack=slack, parallelism=parallelism, sides=sides)
            points.append(SweepPoint(n=n, r=r, report=report))
        except (RadiusOutOfRange, NoFocusingIndex) as exc:
            points.append(SweepPoint(n=n, r=None, error=str(exc)))
    return points


def half_l1(sample_a, sample_b) -> float:
    """Half L1 distance between the empirical laws of two nonempty samples
    of non-negative integers."""
    a = np.asarray(sample_a, dtype=np.int64)
    b = np.asarray(sample_b, dtype=np.int64)
    size = int(max(a.max(), b.max())) + 1
    law_a = np.bincount(a, minlength=size) / a.size
    law_b = np.bincount(b, minlength=size) / b.size
    return 0.5 * float(np.sum(np.abs(law_a - law_b)))


def mode_agreement(
    records_binomial: list[TrialRecord],
    records_poisson: list[TrialRecord],
    seed: int,
) -> ModeAgreementReport:
    """Distance between the max-degree laws of binomial- and Poisson-mode
    records of equal count, with a ``bootstrap_se`` error bar seeded by
    ``seed``."""
    trials = len(records_binomial)
    if trials < 1 or len(records_poisson) != trials:
        raise ValueError("need two nonempty record lists of equal length")
    rng = substream(seed, _DOM_AGREE_BOOT)
    report = {}
    for side in SIDES:
        vals_b = np.array([r.max_degree(side) for r in records_binomial])
        vals_p = np.array([r.max_degree(side) for r in records_poisson])
        report[side] = (half_l1(vals_b, vals_p), bootstrap_se(half_l1, (vals_b, vals_p), rng))
    return ModeAgreementReport(trials, *report["out"], *report["in"])


def write_trials_csv(records: list[TrialRecord], path) -> None:
    """Per-trial CSV: trial, seed, N, alive, max_out, max_in, empty."""
    with open(path, "w") as fh:
        fh.write("trial,seed,N,alive,max_out,max_in,empty\n")
        for rec in records:
            fh.write(
                f"{rec.trial_index},{rec.seed},{rec.realized_count},"
                f"{rec.alive_count},{rec.max_out},{rec.max_in},{int(rec.empty)}\n"
            )
