#!/usr/bin/env python3
"""Gradient-ratio bounds and the Harnack inequality they imply.

The estimates bound sup |grad u|/u on the half ball by a multiple of the
Cheng-Yau shape (1 + sqrt(K) R)/R.  The constant itself is never stated, so
the laboratory measures the empirical one and checks the two things that
are checkable: the dilation family leaves it invariant in flat space at
every p (|grad u|/u scales like 1/R, exactly the shape's scaling), and
integrating the gradient bound along a radial geodesic dominates the
oscillation of u.
"""

import numpy as np

import plaplab as pl

params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
space = pl.ModelSpace(n=3, K=0.0)
config = pl.ShootingConfig(u0=1.0, r_max=4.0)
sol = pl.solve_radial(params, space, config)

print("=== gradient ratio on shrinking balls (flat oracle instance) ===")
sup_header = "sup |u'|/u"
print(f"{'R':>5} {sup_header:>12} {'bound shape':>12} {'empirical C':>12}")
for R in (3.0, 2.0, 1.0, 0.5):
    rep = pl.check_gradient_estimate(sol, R)
    print(f"{R:5.2f} {rep.sup_ratio:12.6f} {rep.bound_shape:12.6f} {rep.empirical_C:12.6f}")

print("\n=== dilation family: u(mu r) with the coefficient rescaled by mu^p ===")
for p in (2.0, 3.0):
    rep = pl.check_gradient_scale_invariance(
        pl.EquationParams(n=3, p=p, a=1.0, sigma=1.0), space, config, R=2.0
    )
    for mu, c in zip(rep.factors, rep.empirical_C):
        print(f"   p = {p}, mu = {mu}: empirical C = {c:.12f}")
    print(f"   spread = {rep.spread:.2e}  (scale invariance of the 1/R shape)")

print("\n=== Harnack: max u / min u against the integrated gradient bound ===")
for p, a, sigma, K, r_max in [
    (2.0, 1.0, 1.0, 0.0, 4.0),
    (3.0, 1.0, 2.0, 0.0, 6.0),
    (2.5, 1.0, 1.0, 1.0, 6.0),
]:
    params_i = pl.EquationParams(n=3, p=p, a=a, sigma=sigma)
    space_i = pl.ModelSpace(n=3, K=K)
    sol_i = pl.solve_radial(params_i, space_i, pl.ShootingConfig(u0=1.0, r_max=r_max))
    har = pl.check_harnack(sol_i, 0.9 * sol_i.r_end)
    print(
        f"   p={p}, K={K}: ratio = {har.ratio:8.4f} <= "
        f"exp(R sup|u'|/u) = {har.integrated_bound:10.4f}  [{'ok' if har.passed else 'VIOLATED'}]"
    )
