"""Model-space geometry: warps and radial operator forms."""

import math

import numpy as np
import pytest

import plaplab as pl
from plaplab.errors import ParameterError


def test_warp_euclidean():
    sp = pl.ModelSpace(n=3, K=0.0)
    assert pl.warp(sp, 2.0) == 2.0
    assert pl.warp_log_derivative(sp, 2.0) == 0.5


def test_warp_hyperbolic():
    sp = pl.ModelSpace(n=3, K=1.0)
    assert pl.warp(sp, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert pl.warp_log_derivative(sp, 1.0) == pytest.approx(
        1 / math.tanh(1.0), rel=1e-14
    )


def test_warp_continuous_in_curvature():
    r = 1.7
    tiny = pl.ModelSpace(n=3, K=1e-12)
    assert abs(pl.warp(tiny, r) - r) < 1e-10
    assert abs(pl.warp_log_derivative(tiny, r) - 1 / r) < 1e-10


def test_warp_requires_positive_radius():
    """warp is defined on r >= 0, with s_K(0) = 0; its log-derivative on r > 0."""
    for K in (0.0, 1.0):
        sp = pl.ModelSpace(n=3, K=K)
        assert pl.warp(sp, 0.0) == 0.0
        for bad in (-1.0, math.nan):
            with pytest.raises(ParameterError):
                pl.warp(sp, bad)
        with pytest.raises(ParameterError):
            pl.warp_log_derivative(sp, -1.0)


@pytest.mark.parametrize("K", [math.nan, math.inf])
def test_model_space_rejects_non_finite_curvature(K):
    with pytest.raises(ParameterError, match="K"):
        pl.ModelSpace(n=3, K=K)


def test_model_space_validation():
    with pytest.raises(ParameterError):
        pl.ModelSpace(n=2, K=0.0)
    with pytest.raises(ParameterError):
        pl.ModelSpace(n=3, K=-0.5)


def test_radial_laplacian_sinc_identity():
    # u = sin(r)/r satisfies  u'' + (2/r) u' = -u  in flat 3-space
    sp = pl.ModelSpace(n=3, K=0.0)
    r = 1.0
    u = math.sin(r) / r
    du = math.cos(r) / r - math.sin(r) / r**2
    d2u = -math.sin(r) / r - 2 * math.cos(r) / r**2 + 2 * math.sin(r) / r**3
    val = pl.radial_p_laplacian(2.0, sp, du, d2u, r)
    assert val == pytest.approx(-u, rel=1e-12)


def test_radial_laplacian_constant_profile():
    sp = pl.ModelSpace(n=3, K=0.0)
    assert pl.radial_p_laplacian(3.0, sp, 0.0, 0.0, 1.0) == 0.0
    assert pl.radial_p_laplacian(2.0, sp, 0.0, 0.0, 1.0) == 0.0


def test_radial_laplacian_linear_profile_p3():
    sp = pl.ModelSpace(n=3, K=0.0)
    # u = r: |u'| (p-1) u'' + |u'| (n-1)(1/r) u' = 0 + 2 at r = 1
    assert pl.radial_p_laplacian(3.0, sp, 1.0, 0.0, 1.0) == pytest.approx(2.0)


def test_radial_laplacian_p2_reduction_random():
    rng = np.random.default_rng(7)
    sp = pl.ModelSpace(n=5, K=0.7)
    for _ in range(20):
        u, du, d2u, r = rng.uniform(0.1, 2.0, size=4)
        expected = d2u + 4 * pl.warp_log_derivative(sp, r) * du
        assert pl.radial_p_laplacian(2.0, sp, du, d2u, r) == pytest.approx(
            expected, rel=1e-14
        )


def test_radial_laplacian_degenerate_gradient():
    sp = pl.ModelSpace(n=3, K=0.0)
    # p > 2: the limit value at a critical point is 0
    assert pl.radial_p_laplacian(3.0, sp, 0.0, 5.0, 1.0) == 0.0
    # p < 2: singular, rejected
    with pytest.raises(ParameterError):
        pl.radial_p_laplacian(1.5, sp, 0.0, 5.0, 1.0)


def test_radial_L_coefficient_values():
    assert pl.radial_L_coefficient(2.0, 0.37) == pytest.approx(1.0)
    assert pl.radial_L_coefficient(3.0, 2.0) == pytest.approx(4.0)
    assert pl.radial_L_coefficient(1.5, 4.0) == pytest.approx(0.25)
    with pytest.raises(ParameterError):
        pl.radial_L_coefficient(2.5, 0.0)


def test_linearized_divergence_matches_fd():
    """s^(1-n) d/dr [s^(n-1) (p-1)|v'|^(p-2) g'] from closed forms agrees
    with a central-difference divergence at O(h^2)."""
    p = 2.5
    sp = pl.ModelSpace(n=3, K=0.5)

    def dv(r):
        return -math.sin(r) - 0.2  # bounded away from 0 on the window

    def g(r):
        return math.exp(-((r - 1.2) ** 2))

    def dg(r):
        return -2 * (r - 1.2) * g(r)

    def flux(r):
        return (
            pl.warp(sp, r) ** 2 * pl.radial_L_coefficient(p, dv(r)) * dg(r)
        )

    def div_fd(r, h):
        return (flux(r + h) - flux(r - h)) / (2 * h) / pl.warp(sp, r) ** 2

    # closed-form derivative of the flux
    def div_exact(r):
        s = pl.warp(sp, r)
        lam = pl.warp_log_derivative(sp, r)
        coef = pl.radial_L_coefficient(p, dv(r))
        dcoef = (p - 1) * (p - 2) * abs(dv(r)) ** (p - 3) * math.copysign(1, dv(r)) * (
            -math.cos(r)
        )
        d2g = (-2 + 4 * (r - 1.2) ** 2) * g(r)
        return 2 * lam * coef * dg(r) + dcoef * dg(r) + coef * d2g

    for r in (0.8, 1.4, 2.0):
        errs = [abs(div_fd(r, h) - div_exact(r)) for h in (1e-2, 5e-3)]
        assert errs[0] < 5e-3
        # halving h divides the error by ~4
        assert errs[1] < errs[0] / 2.5
