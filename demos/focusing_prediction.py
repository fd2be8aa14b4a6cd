"""Where does the maximum degree concentrate?

For a fixed mean degree, the maximum out/in-degree of the faulty sector
graph concentrates on two consecutive integers k-1 and k as n grows. This
script tabulates the predicted pair, its limiting masses and the mass that
the whole predicted law puts on the pair across n, and prints that whole
law at n = 10^4.
"""

import math

from sectorgraphs import ModelParams, max_degree_law, predict, radius_for_mean_degree

MU = 1.0
ALPHA = math.pi
V, Q = 0.1, 0.2

print(f"mean degree mu = {MU}, alpha = pi, v = {V}, q = {Q}\n")
print(
    f"{'n':>9} {'r':>10} {'j':>3} {'k':>3} {'a':>8} {'P(max=k-1)':>11} {'P(max=k)':>9} "
    f"{'P(max in {k-1,k})':>18}"
)
for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7):
    r = radius_for_mean_degree(n, ALPHA, V, Q, MU)
    params = ModelParams(n=n, alpha=ALPHA, r=r, v=V, q=Q)
    pred = predict(params)
    law = max_degree_law(params)
    two_point = law.get(pred.k - 1, 0.0) + law.get(pred.k, 0.0)
    print(
        f"{n:>9} {r:>10.6f} {pred.j:>3} {pred.k:>3} {pred.a:>8.4f} "
        f"{pred.p_km1:>11.4f} {pred.p_k:>9.4f} {two_point:>18.4f}"
    )

print("\nThe pair (k-1, k) drifts upward slowly: the tail threshold k grows")
print("like ln n / ln ln n at fixed mu, and the masses keep summing to 1.")
print("The last column is the mass that the whole law puts on {k-1, k}: the")
print("same Poisson approximation taken at every threshold m, P(max <= m) ~")
print("exp(-a_{m+1}), spreads the maximum over more than two values at these sizes.")

params = ModelParams(n=10**4, alpha=ALPHA, r=radius_for_mean_degree(10**4, ALPHA, V, Q, MU), v=V, q=Q)
pred = predict(params)
print(f"\nwhole law of the maximum at n = 10^4 (k = {pred.k}):")
for m, mass in max_degree_law(params).items():
    if mass >= 1e-4:
        mark = "  <- k-1" if m == pred.k - 1 else "  <- k" if m == pred.k else ""
        print(f"  P(max = {m:>2}) = {mass:.4f}{mark}")
