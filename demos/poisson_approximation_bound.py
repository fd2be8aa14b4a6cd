"""How Poisson-like is the count of high-degree vertices?

W = number of alive vertices whose out-degree reaches the focusing level k.
The total-variation distance between W and a Poisson law of the same mean
is bounded by min(1, 1/EW) * (I1 + I2); this script evaluates the bound
(exact region areas, Monte Carlo over locations), then measures the
empirical distance from simulated trials to show the bound really
dominates it.
"""

import math

import numpy as np

from sectorgraphs import (
    DegreeSet,
    ModelParams,
    TrialOptions,
    empirical_tv,
    empirical_tv_bootstrap_se,
    predict,
    radius_for_mean_degree,
    run_trials,
    tv_bound,
)

N = 1500
TRIALS = 1500
SEED = 11

r = radius_for_mean_degree(N, math.pi, 0.0, 0.0, 1.0)
params = ModelParams(n=N, alpha=math.pi, r=r, v=0.0, q=0.0, mode="poisson", master_seed=SEED)
pred = predict(params)
tail = DegreeSet.upper_tail(pred.k)
print(f"n = {N}, counting vertices with degree >= k = {pred.k}\n")

records = run_trials(
    params, TRIALS, parallelism=2, options=TrialOptions(w_sets=((tail, "out"), (tail, "in")))
)

for side in ("out", "in"):
    rep = tv_bound(params, tail, side, outer_samples=1500, ew_samples=8000)
    w = np.array([rec.w_counts[f"{tail.descriptor()}|{side}"] for rec in records])
    emp = empirical_tv(w, rep.ew)
    boot = empirical_tv_bootstrap_se(w, rep.ew, seed=SEED)
    print(f"{side}-degree count:")
    print(f"  E W = {rep.ew:.4f} ± {rep.ew_se:.4f} (mean of trials: {w.mean():.4f})")
    print(f"  I1 = {rep.i1:.5f} ± {rep.i1_se:.5f}   I2 = {rep.i2:.5f} ± {rep.i2_se:.5f}")
    print(f"  bound = {rep.bound:.4f} ± {rep.bound_se:.4f} (raw {rep.bound_raw:.4f})")
    print(f"  empirical TV over {TRIALS} trials = {emp:.4f} ± {boot:.4f}")
    verdict = "dominates" if emp <= rep.bound + 3 * math.hypot(rep.bound_se, boot) else "VIOLATED"
    print(f"  -> bound {verdict} the empirical distance\n")

print("I2 carries almost all of the bound: it prices the dependence between")
print("nearby vertices, whose sectors share Poisson points of the overlap.")
