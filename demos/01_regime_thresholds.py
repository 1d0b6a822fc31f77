#!/usr/bin/env python3
"""Walk through the closed-form regime machinery.

For the equation div(|grad u|^(p-2) grad u) + a u^sigma = 0 on an
n-dimensional space, the admissible sigma window is controlled by a handful
of explicit constants.  This script tabulates them across p, classifies a
few sample parameter quadruples, and shows the geometric exponent ladder
with its closed-form sums.
"""

import numpy as np

import plaplab as pl

n = 3
print(f"=== thresholds across p (n = {n}) ===")
print(f"{'p':>6} {'alpha':>8} {'disc':>8} {'sigma2':>8} {'sigma1':>8} {'(n+2)(p-1)/n':>13}")
for p in (1.2, 1.5, 2.0, 7 / 3, 3.0, 4.0, 4.9):
    print(
        f"{p:6.2f} {pl.alpha(n, p):8.4f} {pl.discriminant(n, p):8.4f} "
        f"{pl.sigma2(n, p):8.4f} {pl.sigma1(n, p):8.4f} {pl.thm2_threshold(n, p):13.4f}"
    )

print("\nThe second-estimate threshold always sits strictly below sigma1:")
t, s1 = pl.compare_thresholds(n, 2.0)
print(f"  at p = 2: {t:.4f} < {s1:.4f}")

print("\n=== beta across the sigma window (n = 3, p = 2, a > 0) ===")
for sigma in (0.5, 1.0, 2.0, 2.4, 2.8, 2.81):
    b = pl.beta(n, 2.0, sigma, +1)
    print(f"  sigma = {sigma:5.2f}: beta = {b:.6f}")
print("  (beta -> 0 as sigma approaches sigma1; the window endpoint is excluded)")

print("\n=== regime classification ===")
samples = [
    (2.0, 1.0, 2.0),
    (2.0, 1.0, 5.0),   # critical-exponent territory: no flag may fire
    (2.0, -1.0, 3.0),
    (6.0, 1.0, 1.0),   # p beyond 2n-1: only the second estimate applies
]
for p, a, sigma in samples:
    rep = pl.classify_regime(pl.EquationParams(n=n, p=p, a=a, sigma=sigma))
    print(
        f"  p={p}, a={a:+.0f}, sigma={sigma}: "
        f"thm1_applicable={rep.thm1_applicable}, "
        f"thm2_applicable={rep.thm2_applicable}"
    )

print("\n=== exponent ladder b_(l+1) = b_l n/(n-2) ===")
me = pl.moser_exponents(4, 2.0, 3.0, 30)
print(f"  b_1 = {me.b[0]:.1f}, ratio = {me.b[1] / me.b[0]:.4f}")
print(f"  sum 1/b_l   = {me.partial_sum_inv:.10f}  (closed form n/(2 b_1) = {me.limit_inv})")
print(f"  sum l/b_l   = {me.partial_sum_l_inv:.10f}  (closed form n^2/(4 b_1) = {me.limit_l_inv})")
print(f"  truncation tails: {me.tail_inv:.2e}, {me.tail_l_inv:.2e}")
