"""Closed-form constants: hand-derived oracle values and window invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plaplab as pl
from plaplab.errors import ParameterError, RegimeError


def grid_points():
    """~10^4 (n, p) samples covering 1 < p < 2n-1 for n in 3..50."""
    pts = []
    for n in range(3, 51):
        for p in np.linspace(1.001, 2 * n - 1 - 1e-3, 210):
            pts.append((n, float(p)))
    return pts


# ---------------------------------------------------------------------------
# alpha


def test_alpha_hand_values():
    assert pl.alpha(3, 2.0) == pytest.approx(1.5, abs=1e-14)  # first branch
    assert pl.alpha(3, 4.0) == pytest.approx(6.0, abs=1e-14)  # 2(p-1)
    # junction p = 3 - 2/n: both branches give the same value
    p_j = 3 - 2 / 3
    assert pl.alpha(3, p_j) == pytest.approx(8 / 3, abs=1e-12)
    assert 3 * (p_j - 1) ** 2 / 2 == pytest.approx(2 * (p_j - 1), abs=1e-12)


@pytest.mark.parametrize("n", range(3, 51))
def test_alpha_continuous_at_junction(n):
    p_j = 3 - 2 / n
    first = n * (p_j - 1) ** 2 / (n - 1)
    second = 2 * (p_j - 1)
    assert abs(first - second) <= 1e-12
    eps = 1e-9
    assert abs(pl.alpha(n, p_j - eps) - pl.alpha(n, p_j + eps)) < 1e-7


def test_alpha_rejects_out_of_window():
    with pytest.raises(RegimeError):
        pl.alpha(3, 5.0)  # p = 2n - 1
    with pytest.raises(RegimeError):
        pl.alpha(3, 1.0)
    with pytest.raises(ParameterError):
        pl.alpha(2, 1.5)


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant_hand_values():
    assert pl.discriminant(3, 2.0) == pytest.approx(2 / 3, abs=1e-14)
    # first alpha branch simplifies to 1 - 1/n
    for n in (3, 5, 10):
        assert pl.discriminant(n, 1.5) == pytest.approx(1 - 1 / n, abs=1e-14)


def test_discriminant_vanishes_at_upper_endpoint():
    values = [pl.discriminant(3, p) for p in (4.9, 4.99, 4.999)]
    assert values[0] > values[1] > values[2] > 0
    assert values[2] < 1e-3


def test_discriminant_in_unit_interval_on_grid():
    for n, p in grid_points():
        d = pl.discriminant(n, p)
        assert 0 < d <= 1


def floats_below_window_end(n, count=64):
    """The `count` largest floats below p = 2n-1."""
    p, out = float(2 * n - 1), []
    for _ in range(count):
        p = math.nextafter(p, 0.0)
        out.append(p)
    return out


@pytest.mark.parametrize("n", range(3, 51))
def test_constants_defined_just_below_window_end(n):
    """Within ulps of p = 2n-1 the discriminant is (2n-1-p)/(2(n-1))
    correctly rounded, hence positive, and every (n, p) constant is defined
    where alpha is.  The form 1 - (p-1)^2/((n-1) alpha) cancels there and
    rounds to 0 or below from n = 4 on."""
    for p in floats_below_window_end(n):
        exact = (Fraction(2 * n - 1) - Fraction(p)) / (2 * (n - 1))
        assert pl.discriminant(n, p) == float(exact) > 0
        assert pl.alpha(n, p) == 2 * (p - 1)
        s1, s2 = pl.sigma1(n, p), pl.sigma2(n, p)
        assert s2 < pl.sigma_midpoint(n, p) < s1
        assert pl.regime_constants(n, p) == {
            "alpha": 2 * (p - 1), "sigma1": s1, "sigma2": s2,
            "thm2_threshold": pl.thm2_threshold(n, p),
        }
        assert pl.compare_thresholds(n, p) == (pl.thm2_threshold(n, p), s1)
        mid = pl.sigma_midpoint(n, p)
        for a in (1.0, -1.0):
            report = pl.classify_regime(pl.EquationParams(n=n, p=p, a=a, sigma=mid))
            assert report.thm1_applicable
            assert 0 < pl.beta(n, p, mid, a) == report.beta <= p / (n - 1)


# ---------------------------------------------------------------------------
# sigma thresholds


def test_sigma1_matches_quoted_laplacian_range():
    # for p = 2 the upper threshold is 1 + 2/(n-1) + 2/sqrt(n(n-1))
    for n in range(3, 51):
        quoted = 1 + 2 / (n - 1) + 2 / math.sqrt(n * (n - 1))
        assert abs(pl.sigma1(n, 2.0) - quoted) <= 1e-12


def test_sigma1_hand_value():
    assert pl.sigma1(3, 2.0) == pytest.approx(2 + math.sqrt(2 / 3), abs=1e-12)
    assert pl.sigma1(4, 2.0) == pytest.approx(
        5 / 3 + (2 / 3) * math.sqrt(3 / 4), abs=1e-12
    )


def test_sigma2_hand_value():
    assert pl.sigma2(3, 2.0) == pytest.approx(2 - math.sqrt(2 / 3), abs=1e-12)


def test_sigma_window_identities_on_grid():
    for n, p in grid_points():
        s1, s2 = pl.sigma1(n, p), pl.sigma2(n, p)
        mid = pl.sigma_midpoint(n, p)
        assert s1 + s2 == pytest.approx(2 * mid, rel=1e-12)
        assert s2 < mid < s1


# ---------------------------------------------------------------------------
# beta


def test_beta_hand_values():
    assert pl.beta(3, 2.0, 2.0, +1) == pytest.approx(1.0, abs=1e-14)
    assert pl.beta(3, 2.0, 2.5, +1) == pytest.approx(0.625, abs=1e-12)
    # mirrored case below the midpoint for a < 0
    assert pl.beta(3, 2.0, 1.5, -1) == pytest.approx(0.625, abs=1e-12)


def test_beta_full_on_unconditional_side():
    assert pl.beta(3, 2.0, -4.0, +1) == 2 / 2
    assert pl.beta(4, 3.0, 100.0, -1) == 3 / 3


def test_beta_vanishes_at_window_endpoints():
    n, p = 3, 2.0
    s1, s2 = pl.sigma1(n, p), pl.sigma2(n, p)
    assert 0 < pl.beta(n, p, s1 - 1e-8, +1) < 1e-7
    assert 0 < pl.beta(n, p, s2 + 1e-8, -1) < 1e-7


def test_beta_rejects_outside_window():
    n, p = 3, 2.0
    with pytest.raises(RegimeError):
        pl.beta(n, p, pl.sigma1(n, p), +1)  # endpoint excluded
    with pytest.raises(RegimeError):
        pl.beta(n, p, pl.sigma2(n, p) - 0.1, -1)
    for sign in (+1, -1):
        with pytest.raises(RegimeError):
            pl.beta(n, p, math.nan, sign)  # inside no window


def test_beta_bounded_by_full_value_on_grid():
    rng = np.random.default_rng(42)
    for n, p in grid_points()[:: 37]:
        s1, s2 = pl.sigma1(n, p), pl.sigma2(n, p)
        sig = s2 + (s1 - s2) * rng.uniform(0.01, 0.99)
        for sign in (+1, -1):
            b = pl.beta(n, p, sig, sign)
            assert 0 < b <= p / (n - 1) + 1e-15


# ---------------------------------------------------------------------------
# second-estimate condition and threshold comparison


def test_thm2_condition():
    assert pl.thm2_threshold(3, 2.0) == pytest.approx(5 / 3, abs=1e-15)
    assert pl.thm2_condition(3, 2.0, 1.5, +1)
    assert pl.thm2_condition(3, 2.0, 5 / 3, +1)  # boundary inclusive
    assert not pl.thm2_condition(3, 2.0, 2.0, +1)
    assert pl.thm2_condition(3, 2.0, 2.0, -1)
    assert pl.thm2_condition(3, 2.0, 5 / 3, -1)
    assert not pl.thm2_condition(3, 2.0, 1.5, -1)


def test_compare_thresholds():
    t, s1 = pl.compare_thresholds(3, 2.0)
    assert t == pytest.approx(5 / 3, abs=1e-12)
    assert s1 == pytest.approx(2.8164965809277263, abs=1e-12)
    assert t < s1
    # the gap stays strictly positive toward p = 2n-1 and tends to
    # (2n-2) * 2/(n(n-1)) = 4/n there (it does not close)
    gaps = [pl.compare_thresholds(3, p)[1] - pl.compare_thresholds(3, p)[0]
            for p in (4.9, 4.99, 4.999)]
    assert gaps[0] > gaps[1] > gaps[2] > 4 / 3
    assert gaps[2] == pytest.approx(4 / 3, abs=0.1)  # O(sqrt(2n-1-p)) approach
    t, s1 = pl.compare_thresholds(10, 2.0)
    assert t < s1
    with pytest.raises(RegimeError):
        pl.compare_thresholds(3, 5.0)


def test_thm2_threshold_below_sigma1_on_grid():
    for n, p in grid_points():
        assert pl.thm2_threshold(n, p) < pl.sigma1(n, p)


def window_points(upper):
    """(n, p) with n in 3..60 and 1 < p < upper(n)."""
    return st.integers(3, 60).flatmap(
        lambda n: st.tuples(
            st.just(n), st.floats(1.0, upper(n), exclude_min=True, exclude_max=True)
        )
    )


PROPERTY_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(point=window_points(lambda n: 2 * n - 1))
@example(point=(3, math.nextafter(5.0, 0.0)))
@example(point=(60, math.nextafter(1.0, 2.0)))
def test_sigma2_above_p_minus_1(point):
    """The a < 0 window (sigma2, inf) lies strictly above p - 1 on the
    whole p-window."""
    n, p = point
    assert pl.sigma2(n, p) > p - 1


@PROPERTY_SETTINGS
@given(point=window_points(lambda n: n))
@example(point=(3, math.nextafter(3.0, 0.0)))
@example(point=(60, math.nextafter(1.0, 2.0)))
def test_thresholds_below_sobolev_exponent(point):
    """For p < n, sigma1 and the second estimate's threshold both lie
    below p* - 1 = (n(p-1)+p)/(n-p), with p* = np/(n-p)."""
    n, p = point
    critical = (n * (p - 1) + p) / (n - p)
    assert pl.sigma1(n, p) < critical
    assert pl.thm2_threshold(n, p) < critical


# ---------------------------------------------------------------------------
# regime classification


def test_classify_regime_examples():
    r1 = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0))
    assert r1.thm1_applicable and not r1.thm2_applicable
    assert r1.beta == pytest.approx(1.0)

    # no p upper bound for the second estimate
    r2 = pl.classify_regime(pl.EquationParams(n=3, p=6.0, a=1.0, sigma=1.0))
    assert not r2.thm1_applicable and r2.thm2_applicable
    assert r2.alpha is None and r2.sigma1 is None and r2.beta is None

    # Sobolev-critical exponent for n=3, p=2 lies above every threshold
    r3 = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=1.0, sigma=5.0))
    assert not r3.thm1_applicable and not r3.thm2_applicable


def test_classify_regime_negative_a():
    r = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=-1.0, sigma=3.0))
    assert r.thm1_applicable  # sigma > sigma2
    assert r.thm2_applicable  # sigma >= 5/3


def test_regime_report_serialization():
    r = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0))
    d = r.to_dict()
    assert set(d) == {
        "alpha",
        "sigma1",
        "sigma2",
        "thm2_threshold",
        "beta",
        "thm1_applicable",
        "thm2_applicable",
    }
    import json

    assert json.loads(json.dumps(r.to_dict()))["alpha"] == pytest.approx(1.5)


def test_beta_present_iff_thm1_applicable():
    inside = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.5))
    outside = pl.classify_regime(pl.EquationParams(n=3, p=2.0, a=1.0, sigma=3.5))
    assert inside.thm1_applicable and inside.beta is not None
    assert not outside.thm1_applicable and outside.beta is None


@pytest.mark.parametrize(
    "n, p", [(3, 1.5), (3, 2.0), (3, 4.9), (3, 5.0), (3, 6.0), (5, 8.5), (5, 9.5)]
)
@pytest.mark.parametrize("a, sigma", [(1.0, 1.0), (-1.0, 3.0)])
def test_regime_constants_are_the_report_head(n, p, a, sigma):
    """regime_constants gives the report's first four entries, None in the
    sigma window outside 1 < p < 2n-1."""
    report = pl.classify_regime(pl.EquationParams(n=n, p=p, a=a, sigma=sigma)).to_dict()
    constants = pl.regime_constants(n, p)
    assert constants == dict(list(report.items())[:4])
    assert list(constants) == ["alpha", "sigma1", "sigma2", "thm2_threshold"]
    assert (constants["alpha"] is None) == (p >= 2 * n - 1)


@pytest.mark.parametrize("n, p", [(2, 2.0), (3.0, 2.0), (True, 2.0), (3, 1.0), (3, 0.5)])
def test_regime_constants_reject(n, p):
    with pytest.raises(ParameterError):
        pl.regime_constants(n, p)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, p=2.0, a=1.0, sigma=1.0),
        dict(n=3, p=1.0, a=1.0, sigma=1.0),
        dict(n=3, p=2.0, a=0.0, sigma=1.0),
        dict(n=3, p=2.0, a=1.0, sigma=0.0),
        dict(n=3.5, p=2.0, a=1.0, sigma=1.0),
    ],
)
def test_equation_params_rejects(kwargs):
    with pytest.raises(ParameterError):
        pl.EquationParams(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("a", math.nan), ("a", math.inf), ("sigma", math.nan), ("sigma", -math.inf), ("p", math.inf)],
)
def test_equation_params_reject_non_finite(field, value):
    kwargs = dict(n=3, p=2.0, a=1.0, sigma=1.0)
    kwargs[field] = value
    with pytest.raises(ParameterError, match=field):
        pl.EquationParams(**kwargs)


@pytest.mark.parametrize(
    "n", [2, 3.0, True, np.float64(3.0)], ids=["two", "float", "bool", "numpy_float"]
)
def test_dimension_checks_agree(n):
    """EquationParams, ModelSpace, regime_constants and moser_exponents
    reject the same dimensions with the same message."""
    message = f"n must be an integer >= 3, got {n!r}"
    calls = (
        lambda: pl.EquationParams(n=n, p=2.0, a=1.0, sigma=1.0),
        lambda: pl.ModelSpace(n=n),
        lambda: pl.regime_constants(n, 2.0),
        lambda: pl.moser_exponents(n, 2.0, 1.0, 10),
    )
    for call in calls:
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Moser exponent ladder


def test_moser_exponents_hand_values():
    me = pl.moser_exponents(4, 2.0, 3.0, 30)
    assert me.b[0] == pytest.approx(8.0, abs=1e-14)
    assert me.limit_inv == pytest.approx(0.25, abs=1e-15)
    assert me.limit_l_inv == pytest.approx(0.5, abs=1e-15)
    assert abs(me.partial_sum_inv - 0.25) < 1e-8
    assert abs(me.partial_sum_l_inv - 0.5) < 1e-8

    assert pl.moser_exponents(3, 2.0, 1.0, 1).b[0] == pytest.approx(6.0)


def test_moser_recurrence_ratio_exact():
    me = pl.moser_exponents(5, 1.7, 2.3, 25)
    # the ladder is built by the literal recurrence b_{l+1} = b_l * n/(n-2)
    assert np.array_equal(me.b[1:], me.b[:-1] * (5 / 3))
    assert me.b[1] / me.b[0] == pytest.approx(5 / 3, rel=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_moser_partial_sums_within_tail_bound(n):
    me = pl.moser_exponents(n, 2.0, 1.0, 40)
    eps = 1e-12  # float rounding allowance on top of the analytic tail
    assert abs(me.partial_sum_inv - me.limit_inv) <= me.tail_inv + eps
    assert abs(me.partial_sum_l_inv - me.limit_l_inv) <= me.tail_l_inv + eps


def test_moser_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        pl.moser_exponents(3, 2.0, -1.0, 10)
    with pytest.raises(ParameterError):
        pl.moser_exponents(3, 2.0, 1.0, 0)
    with pytest.raises(ParameterError):
        pl.moser_exponents(2, 2.0, 1.0, 10)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: pl.beta(3, 2.0, 1.0, 0), "sign_of_a must be nonzero", id="beta"),
        pytest.param(
            lambda: pl.thm2_condition(3, 2.0, 1.0, 0.0),
            "sign_of_a must be nonzero",
            id="thm2_condition",
        ),
        pytest.param(
            lambda: pl.radial_p_laplacian(1.0, pl.ModelSpace(n=3), 1.0, 0.0, 1.0),
            "p must be > 1, got 1.0",
            id="radial_p_laplacian",
        ),
        pytest.param(
            lambda: pl.radial_L_coefficient(0.5, 1.0),
            "p must be > 1, got 0.5",
            id="radial_L_coefficient",
        ),
        pytest.param(
            lambda: pl.moser_exponents(3, 1.0, 1.0, 10),
            "p must be > 1, got 1.0",
            id="moser_exponents",
        ),
    ]
    # p = inf, refused by the rule EquationParams applies
    + [
        pytest.param(call, "p must be finite, got inf", id=f"{name}-inf")
        for name, call in [
            ("thm2_threshold", lambda: pl.thm2_threshold(3, math.inf)),
            ("thm2_condition", lambda: pl.thm2_condition(3, math.inf, 1.0, 1.0)),
            ("moser_exponents", lambda: pl.moser_exponents(3, math.inf, 1.0, 10)),
            (
                "radial_p_laplacian",
                lambda: pl.radial_p_laplacian(math.inf, pl.ModelSpace(n=3), 1.0, 0.0, 1.0),
            ),
            ("radial_L_coefficient", lambda: pl.radial_L_coefficient(math.inf, 1.0)),
        ]
    ]
    # a non-finite b0 or sigma, which would give b = [inf, ...] or a False verdict
    + [
        pytest.param(
            lambda: pl.moser_exponents(3, 2.0, math.inf, 5),
            "b0 must be positive and finite, got inf",
            id="moser_exponents-b0-inf",
        ),
        pytest.param(
            lambda: pl.thm2_condition(3, 2.0, math.nan, 1.0),
            "sigma must be finite, got nan",
            id="thm2_condition-sigma-nan-a+",
        ),
        pytest.param(
            lambda: pl.thm2_condition(3, 2.0, math.nan, -1.0),
            "sigma must be finite, got nan",
            id="thm2_condition-sigma-nan-a-",
        ),
    ],
)
def test_input_guards_refuse(call, message):
    """A zero sign of a, p <= 1 or infinite, an infinite b0 or a NaN sigma
    is refused before any arithmetic."""
    with pytest.raises(ParameterError, match=message):
        call()
