"""Inequality checkers: closed-form oracles, negative controls, guards."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import plaplab as pl
from plaplab._quad import pchip
from plaplab.errors import ParameterError, RegimeError
from plaplab.proof import _median


# ---------------------------------------------------------------------------
# gradient estimate


def test_gradient_estimate_sinc(sinc_solution):
    rep = pl.check_gradient_estimate(sinc_solution, 2.0)
    # |u'/u| = |cot r - 1/r| increases on (0, pi); sup on [0, 1] sits at r = 1
    expected = abs(1 / math.tan(1.0) - 1.0)
    assert rep.sup_ratio == pytest.approx(expected, abs=1e-3)
    assert rep.bound_shape == pytest.approx(0.5, abs=1e-15)
    assert rep.empirical_C == pytest.approx(expected / 0.5, abs=2e-3)
    assert rep.thm1_applicable  # sigma = 1 < sigma1
    assert rep.thm2_applicable  # a > 0 and sigma = 1 <= (n+2)(p-1)/n = 5/3


def test_gradient_bound_shape():
    sol = _constant_record()
    rep = pl.check_gradient_estimate(sol, 4.0)
    assert rep.bound_shape == pytest.approx(0.25, abs=1e-15)  # 1/R at K=0, p=2
    assert rep.sup_ratio == 0.0


def test_gradient_bound_shape_has_no_p_power():
    sol = _constant_record()
    sol = replace(
        sol,
        params=replace(sol.params, p=3.0),
        space=pl.ModelSpace(n=3, K=1.0),
    )
    rep = pl.check_gradient_estimate(sol, 4.0)
    assert rep.bound_shape == pytest.approx(5.0 / 4.0, abs=1e-15)  # (1+sqrt(K)R)/R


def test_gradient_requires_span(sinc_solution):
    with pytest.raises(ParameterError):
        pl.check_gradient_estimate(sinc_solution, 10.0)


def _constant_record():
    r = np.linspace(0.0, 4.0, 401)
    return pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0),
        space=pl.ModelSpace(n=3, K=0.0),
        config=pl.ShootingConfig(u0=1.0, r_max=4.0),
        u=np.ones_like(r),
        w=np.zeros_like(r),
        termination=pl.Termination("reached_rmax", 4.0),
    )


# ---------------------------------------------------------------------------
# Harnack


def test_harnack_sinc(sinc_solution):
    rep = pl.check_harnack(sinc_solution, 2.0)
    assert rep.ratio == pytest.approx(1 / math.sin(1.0), abs=1e-3)
    expected_bound = math.exp(2 * abs(1 / math.tan(1.0) - 1.0))
    assert rep.integrated_bound == pytest.approx(expected_bound, abs=5e-3)
    assert rep.passed


def test_harnack_constant_profile():
    rep = pl.check_harnack(_constant_record(), 2.0)
    assert rep.ratio == 1.0
    assert rep.integrated_bound == 1.0
    assert rep.passed


def test_harnack_ratio_at_least_one(flat3):
    params = pl.EquationParams(n=3, p=3.0, a=1.0, sigma=2.0)
    sol = pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0))
    rep = pl.check_harnack(sol, 2.0)
    assert rep.ratio >= 1.0
    assert rep.passed


# ---------------------------------------------------------------------------
# pointwise inequality for L(f): full version


def test_bochner_lemma_sinc_passes(sinc_solution, sinc_log):
    r_star = sinc_solution.termination.r
    rep = pl.check_bochner_lemma(sinc_log, r_window=(0.2, 0.9 * r_star))
    assert rep.pass_fraction >= 0.95
    assert rep.passed


def test_bochner_lemma_corrupted_f_fails(sinc_solution, sinc_log):
    r_star = sinc_solution.termination.r
    bad = replace(sinc_log, f=0.5 * sinc_log.f)
    rep = pl.check_bochner_lemma(bad, r_window=(0.2, 0.9 * r_star))
    assert rep.pass_fraction < 0.95
    assert not rep.passed


def test_bochner_checks_share_one_operator_per_log_profile(sinc_solution, monkeypatch):
    """Both pointwise checks of one LogSolution build its linearized
    operator once; a replaced LogSolution builds its own."""
    prop = vars(pl.LogSolution)["linearized_operator"]
    built = []

    def counted(log_solution, build=prop.func):
        built.append(log_solution)
        return build(log_solution)

    monkeypatch.setattr(prop, "func", counted)
    log_sol = pl.to_log_solution(sinc_solution)
    window = (0.2, 0.9 * sinc_solution.termination.r)
    lemma = pl.check_bochner_lemma(log_sol, r_window=window)
    thm2 = pl.check_bochner_thm2(log_sol, r_window=window)
    assert built == [log_sol]
    assert np.array_equal(lemma.lhs, thm2.lhs)
    halved = replace(log_sol, f=0.5 * log_sol.f)
    assert not pl.check_bochner_lemma(halved, r_window=window).passed
    pl.check_bochner_thm2(halved, r_window=window)
    assert len(built) == 2 and built[1] is halved
    # f' is linear in f, and halving is exact
    halved_df, df = halved.linearized_operator[1], log_sol.linearized_operator[1]
    assert np.array_equal(halved_df, 0.5 * df, equal_nan=True)


def test_bochner_p2_operator_collapse(flat3):
    """At p = 2 the weighted operator is the plain Laplacian; compare the
    generic evaluation against an independent Laplacian stencil."""
    from plaplab.solution import _fd4_first, _fd4_second

    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    cfg = pl.ShootingConfig(u0=1.0, r_max=4.0, rel_tol=1e-12, abs_tol=1e-13)
    ls = pl.to_log_solution(pl.solve_radial(params, flat3, cfg))
    Lf, _ = ls.linearized_operator
    h = ls.r[1] - ls.r[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = _fd4_second(ls.f, h) + 2 / np.where(ls.r > 0, ls.r, np.nan) * _fd4_first(
            ls.f, h
        )
    mask = np.isfinite(Lf) & np.isfinite(lap) & (ls.r >= 0.2) & (ls.r <= 2.5)
    assert np.max(np.abs(Lf[mask] - lap[mask])) < 1e-6


def _synthetic_log_solution(a=1e-12, sigma=2.0):
    """Smooth non-solution record for term-assembly tests."""
    r = np.linspace(0.0, 3.0, 1501)
    u = 1.0 + 0.3 * np.cos(r)
    du = -0.3 * np.sin(r)
    params = pl.EquationParams(n=3, p=2.0, a=a, sigma=sigma)
    space = pl.ModelSpace(n=3, K=0.0)
    sol = pl.RadialSolution(
        params=params,
        space=space,
        config=pl.ShootingConfig(u0=1.3, r_max=3.0),
        u=u,
        w=du.copy(),
        termination=pl.Termination("reached_rmax", 3.0),
    )
    return pl.to_log_solution(sol)


def test_bochner_source_terms_vanish_with_a():
    """With |a| = 1e-12 the right side agrees with the a-free form."""
    from plaplab.solution import _fd4_first

    log_sol = _synthetic_log_solution(a=1e-12)
    rep = pl.check_bochner_lemma(log_sol)
    n, p = 3, 2.0
    # a-free right side at p = 2, K = 0: p/(n-1) f^2 + (2(p-1)/(n-1)-p) f' v'
    h = log_sol.r[1] - log_sol.r[0]
    df = _fd4_first(log_sol.f, h)
    idx = np.searchsorted(log_sol.r, rep.radii)
    free = (
        p / (n - 1) * log_sol.f[idx] ** 2
        + (2 * (p - 1) / (n - 1) - p) * df[idx] * log_sol.dv[idx]
    )
    scale = np.maximum(np.abs(rep.rhs), 1.0)
    assert np.max(np.abs(rep.rhs - free) / scale) < 1e-6


def test_bochner_thm2_sinc_passes(sinc_solution, sinc_log):
    r_star = sinc_solution.termination.r
    rep = pl.check_bochner_thm2(sinc_log, r_window=(0.2, 0.9 * r_star))
    assert rep.passed


def test_bochner_thm2_mixed_term_assembly():
    """The mixed term is -p f^(1-2/p) f' v'; verified at one sample against
    a hand evaluation on a synthetic record."""
    log_sol = _synthetic_log_solution(a=1.0, sigma=1.5)  # sigma <= 5/3
    rep = pl.check_bochner_thm2(log_sol)
    from plaplab.solution import _fd4_first

    h = log_sol.r[1] - log_sol.r[0]
    df = _fd4_first(log_sol.f, h)
    idx = np.searchsorted(log_sol.r, rep.radii)
    n, p = 3, 2.0
    K = 0.0
    by_hand = (
        p / n * log_sol.f[idx] ** 2
        - (n - 1) * K * p * log_sol.f[idx] ** (2 - 2 / p)
        - p * log_sol.f[idx] ** (1 - 2 / p) * df[idx] * log_sol.dv[idx]
    )
    assert np.allclose(rep.rhs, by_hand, rtol=1e-12, atol=1e-12)


def test_bochner_thm2_guards_sign_condition(sinc_log):
    bad_params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0)  # 2 > 5/3
    good = replace(sinc_log, params=bad_params)
    with pytest.raises(RegimeError):
        pl.check_bochner_thm2(good)


def test_bochner_empty_retained_set(sinc_log):
    with pytest.raises(RegimeError):
        pl.check_bochner_lemma(sinc_log, r_window=(100.0, 200.0))


MEDIAN_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]) | st.floats()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(values=st.lists(MEDIAN_VALUES, min_size=1, max_size=12))
def test_median_is_numpys_bit_for_bit(values):
    """The Bochner reports' median equals np.median's bits, signed zeros,
    infinities and nan included, on arrays of either parity."""
    x = np.array(values)
    with np.errstate(invalid="ignore"):  # inf + -inf in the middle pair
        ours, numpys = _median(x), np.median(x)
    assert type(ours) is type(numpys)
    assert float(ours).hex() == float(numpys).hex()


# ---------------------------------------------------------------------------
# cutoff


def test_cutoff_plateau_and_decay():
    eta = pl.cutoff_eta(2.0)
    assert eta(1.4) == 1.0  # 0.7 R
    assert eta(2.0) == 0.0
    assert eta(1.75) == pytest.approx(0.5, abs=1e-15)  # 7R/8 midpoint
    assert eta(3.0) == 0.0


def test_cutoff_max_slope():
    R = 2.0
    eta = pl.cutoff_eta(R)
    x = np.linspace(0, R, 200001)
    assert np.max(np.abs(eta.derivative(x))) == pytest.approx(6 / R, abs=1e-6)
    assert eta.lipschitz_bound == pytest.approx(6 / R)


def test_cutoff_rejects_non_vanishing_profile():
    with pytest.raises(ParameterError):
        pl.cutoff_eta(-1.0)
    with pytest.raises(ParameterError, match="^R must be finite, got inf$"):
        pl.cutoff_eta(math.inf)  # evaluating it would give nan


# ---------------------------------------------------------------------------
# Caccioppoli-type integral inequality


def test_caccioppoli_sinc_ladder(sinc_log):
    b_min = pl.caccioppoli_b_min(3, 2.0, 1.0, 1.0)
    assert b_min == pytest.approx(2.0, abs=1e-12)  # beta = 1 branch
    for mult in (1.1, 2.0, 4.0):
        cfg = pl.CaccioppoliConfig(b=mult * b_min)
        rep = pl.check_caccioppoli(sinc_log, config=cfg, R=2.0)
        assert rep.slack >= -rep.to_report_dict()["tolerances"]["tol_quad"] * rep.scale
        assert rep.slack > 0  # strictly positive slack on the oracle
        assert rep.passed


def test_caccioppoli_default_exponent(sinc_log):
    """A config without b takes b = 1.1 b_min, bitwise."""
    b = 1.1 * pl.caccioppoli_b_min(3, 2.0, 1.0, 1.0)
    default = pl.check_caccioppoli(sinc_log, config=pl.CaccioppoliConfig(), R=2.0)
    explicit = pl.check_caccioppoli(sinc_log, config=pl.CaccioppoliConfig(b=b), R=2.0)
    assert default.b == b
    assert default == explicit


def test_caccioppoli_beta_branch(sinc_log):
    rep = pl.check_caccioppoli(
        sinc_log, config=pl.CaccioppoliConfig(b=2.3), R=2.0
    )
    assert rep.beta == pytest.approx(1.0)  # sigma = 1 below the midpoint


def test_caccioppoli_rejects_small_b(sinc_log):
    with pytest.raises(ParameterError):
        pl.check_caccioppoli(sinc_log, config=pl.CaccioppoliConfig(b=1.5), R=2.0)


def test_caccioppoli_rejects_long_radius(sinc_log):
    with pytest.raises(ParameterError):
        pl.check_caccioppoli(sinc_log, config=pl.CaccioppoliConfig(b=2.5), R=50.0)


def test_caccioppoli_detects_vanishing_f():
    log_sol = _synthetic_log_solution(a=1.0, sigma=1.5)
    # du = -0.3 sin r vanishes at r = 0 only, but force an interior zero
    f = log_sol.f.copy()
    idx = np.searchsorted(log_sol.r, 1.0)
    f[idx] = 0.0
    bad = replace(log_sol, f=f)
    with pytest.raises(RegimeError, match="touches 0"):
        pl.check_caccioppoli(bad, config=pl.CaccioppoliConfig(b=2.5), R=2.0)


def test_caccioppoli_config_validation():
    for b in (0.5, math.inf, math.nan):
        with pytest.raises(ParameterError, match="b must be finite and > 1"):
            pl.CaccioppoliConfig(b=b)


# ---------------------------------------------------------------------------
# Sobolev ratio


def test_sobolev_ratio_of_cutoff(flat3):
    eta = pl.cutoff_eta(1.0)
    rep = pl.measure_sobolev_ratio(eta, flat3, 1.0)
    assert rep.q == pytest.approx(3.0)
    assert rep.empirical_constant > 0
    assert math.isfinite(rep.empirical_constant)


def test_sobolev_ratio_scale_invariant(flat3):
    eta = pl.cutoff_eta(1.0)
    rep1 = pl.measure_sobolev_ratio(eta, flat3, 1.0)
    lam = 37.5
    rep2 = pl.measure_sobolev_ratio(
        lambda r: lam * eta(r), flat3, 1.0, dg=lambda r: lam * eta.derivative(r)
    )
    assert abs(rep1.empirical_constant - rep2.empirical_constant) < 1e-10 * abs(
        rep1.empirical_constant
    )


def test_sobolev_test_function_of_solution(sinc_solution):
    """g = u eta from the solved profile: u below 3R/4, 0 at R, and
    g' = u' eta + u eta' in the cutoff band."""
    R = 2.0
    g, dg = pl.sobolev_test_function(sinc_solution, R)
    eta = pl.cutoff_eta(R)
    r = np.array([0.5, 1.0, 1.5, 1.75, 2.0])
    u = np.sin(r) / r
    du = (r * np.cos(r) - np.sin(r)) / r**2
    assert g(r) == pytest.approx(u * eta(r), abs=1e-6)
    assert g(r)[-1] == 0.0
    assert dg(r) == pytest.approx(du * eta(r) + u * eta.derivative(r), abs=1e-6)
    with pytest.raises(ParameterError):
        pl.sobolev_test_function(sinc_solution, 10.0)
    # g' from one interval lookup equals the sum of the two interpolants'
    # own calls bit for bit, on the quadrature grid of measure_sobolev_ratio
    others = [
        pl.solve_radial(pl.EquationParams(n=3, p=p, a=1.0, sigma=1.0),
                        pl.ModelSpace(n=3, K=K), pl.ShootingConfig(r_max=3.0))
        for p, K in ((1.5, 1.0), (3.0, 0.0))
    ]
    for sol in (sinc_solution, *others):
        R = 0.9 * sol.r_end
        _, dg = pl.sobolev_test_function(sol, R)
        eta = pl.cutoff_eta(R)
        x = np.linspace(0.0, R, 4001)
        calls = pchip(sol.r, sol.du)(x) * eta(x) + pchip(sol.r, sol.u)(x) * eta.derivative(x)
        assert np.array_equal(dg(x).view(np.uint64), calls.view(np.uint64))


@pytest.mark.parametrize("interpolant", [pchip, PchipInterpolator])
def test_sobolev_ratio_of_interpolant(interpolant, flat3):
    """An interpolant's derivative() returns a function, not values, so g'
    comes from np.gradient, as for any g that is not a cutoff_eta cutoff."""
    r = np.linspace(0.0, 1.0, 201)
    g = interpolant(r, 1 - r**2)
    rep = pl.measure_sobolev_ratio(g, flat3, 1.0)
    assert rep == pl.measure_sobolev_ratio(lambda x: g(x), flat3, 1.0)


def test_sobolev_rejects_degenerate_inputs(flat3):
    with pytest.raises(ParameterError):
        pl.measure_sobolev_ratio(lambda r: np.zeros_like(r), flat3, 1.0)
    with pytest.raises(ParameterError):
        pl.measure_sobolev_ratio(lambda r: np.ones_like(r), flat3, 1.0)


def test_sobolev_stable_across_test_functions(flat3):
    """The measured constant varies only mildly across shapes (existence of
    a dimensional constant; no sharp value is asserted)."""
    eta = pl.cutoff_eta(1.0)
    shapes = [
        eta,
        lambda r: np.cos(np.pi * r / 2) * (r <= 1.0),
        lambda r: (1 - r**2) * (r <= 1.0),
    ]
    values = [
        pl.measure_sobolev_ratio(g, flat3, 1.0).empirical_constant for g in shapes
    ]
    assert max(values) / min(values) < 10


# ---------------------------------------------------------------------------
# dilation invariance of the empirical gradient constant


def test_scale_invariance_flat_p2(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    rep = pl.check_gradient_scale_invariance(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0), R=2.0
    )
    assert rep.passed
    assert rep.spread < 1e-6


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_scale_invariance_flat_p_not_2(flat3, p):
    """The 1/R shape absorbs the dilation at every p, not only at p = 2."""
    params = pl.EquationParams(n=3, p=p, a=1.0, sigma=1.0)
    rep = pl.check_gradient_scale_invariance(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0), R=2.0
    )
    assert rep.passed
    assert rep.spread < 1e-6


def test_scale_invariance_report_keys(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    rep = pl.check_gradient_scale_invariance(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0), R=2.0
    ).to_report_dict()
    assert rep["check"] == "gradient_scale_invariance"
    assert list(rep["metrics"]) == ["factors", "empirical_C", "spread"]
    assert rep["metrics"]["factors"] == [1, 2, 4, 8]
    assert rep["tolerances"] == {"rel_tol": 0.02}
    assert rep["samples_retained"] is None


def test_scale_invariance_requires_flat_space():
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    with pytest.raises(RegimeError):
        pl.check_gradient_scale_invariance(
            params,
            pl.ModelSpace(n=3, K=1.0),
            pl.ShootingConfig(u0=1.0, r_max=4.0),
            R=2.0,
        )


# ---------------------------------------------------------------------------
# report envelopes


def test_report_envelopes(sinc_solution, sinc_log):
    import json

    grad = pl.check_gradient_estimate(sinc_solution, 2.0).to_report_dict()
    har = pl.check_harnack(sinc_solution, 2.0).to_report_dict()
    boc = pl.check_bochner_lemma(sinc_log, r_window=(0.2, 2.8)).to_report_dict()
    cac = pl.check_caccioppoli(
        sinc_log, config=pl.CaccioppoliConfig(b=2.5), R=2.0
    ).to_report_dict()
    sob = pl.measure_sobolev_ratio(pl.cutoff_eta(1.0), sinc_solution.space, 1.0)
    for rep in (grad, har, boc, cac, sob.to_report_dict()):
        assert set(rep) == {
            "check",
            "params",
            "space",
            "R",
            "pass",
            "metrics",
            "samples_retained",
            "tolerances",
        }
        json.dumps(rep)  # must be serializable as-is
    assert grad["pass"] is None
    assert har["pass"] is True


@pytest.mark.parametrize("check", [pl.check_gradient_estimate, pl.check_harnack])
def test_report_of_a_0d_array_radius(sinc_solution, check):
    """An admissible R given as a 0-d numpy array reports as the float R."""
    rep = check(sinc_solution, np.array(2.0)).to_report_dict()
    assert rep == check(sinc_solution, 2.0).to_report_dict()
    assert type(rep["R"]) is float
