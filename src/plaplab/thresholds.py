"""Closed-form constants and regime classification for the equation

    div(|grad u|^(p-2) grad u) + a * u^sigma = 0

on an n-dimensional space with Ricci curvature bounded below by -(n-1)K.

Everything here is pure 64-bit floating-point arithmetic on smooth algebraic
expressions; comparisons in tests use a 1e-12 tolerance.  The two gradient
estimates the package verifies are referred to throughout as "thm1" (the one
requiring 1 < p < 2n-1 and sigma inside the (sigma2, sigma1) window matched
to the sign of a) and "thm2" (the one requiring only p > 1 and the
sign-matched comparison of sigma with (n+2)(p-1)/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .errors import ParameterError, RegimeError, _require_finite, _require_integer, _require_p

if TYPE_CHECKING:  # numpy loads only where moser_exponents runs
    import numpy as np


@dataclass(frozen=True)
class EquationParams:
    """The quadruple (n, p, a, sigma) defining the PDE and its regime.

    n : integer dimension, >= 3
    p : exponent of the p-Laplacian, > 1
    a : nonzero coefficient of the zeroth-order term
    sigma : nonzero exponent of the zeroth-order term
    """

    n: int
    p: float
    a: float
    sigma: float

    def __post_init__(self):
        _require_integer("n", self.n, 3)
        _require_p(self.p)
        _require_finite("a", self.a)
        _require_finite("sigma", self.sigma)
        if self.a == 0:
            raise ParameterError("a must be nonzero")
        if self.sigma == 0:
            raise ParameterError("sigma must be nonzero")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _first_estimate(n, p):
    """(alpha, discriminant, sigma1, sigma2) of the first estimate, or None
    outside its window 1 < p < 2n-1; n must be an integer >= 3."""
    _require_integer("n", n, 3)
    if not 1 < p < 2 * n - 1:
        return None
    if p <= 3 - 2 / n:
        al = n * (p - 1) ** 2 / (n - 1)
        d = 1 - (p - 1) ** 2 / ((n - 1) * al)
    else:  # d = 1 - (p-1)/(2(n-1)), written without its cancellation near p = 2n-1
        al = 2 * (p - 1)
        d = (2 * n - 1 - p) / (2 * (n - 1))
    root = 2 / (n - 1) * math.sqrt(d)
    return al, d, (p - 1) * ((n + 1) / (n - 1) + root), (p - 1) * ((n + 1) / (n - 1) - root)


def _window_constants(n, p):
    """_first_estimate(n, p), raising RegimeError outside the p-window."""
    constants = _first_estimate(n, p)
    if constants is None:
        raise RegimeError(f"p must satisfy 1 < p < 2n-1 = {2 * n - 1}, got p = {p}")
    return constants


def _in_sigma_window(sigma, sign_of_a, constants):
    """Whether sigma lies in the first estimate's window matched to the sign
    of a: below sigma1 for a > 0, above sigma2 for a < 0, open at that
    outer endpoint, where beta degenerates to 0."""
    _, _, s1, s2 = constants
    return sigma < s1 if sign_of_a > 0 else sigma > s2


def alpha(n: int, p: float) -> float:
    """Hessian lower-bound coefficient, piecewise in p.

    Equals n(p-1)^2/(n-1) for p <= 3 - 2/n and 2(p-1) above; the two
    branches agree at the junction.  Strictly positive on 1 < p < 2n-1.
    """
    return _window_constants(n, p)[0]


def discriminant(n: int, p: float) -> float:
    """1 - (p-1)^2 / ((n-1) alpha), guaranteed in (0, 1] for 1 < p < 2n-1.

    On the first alpha branch this simplifies to 1 - 1/n.  On the second it
    is evaluated as (2n-1-p)/(2(n-1)), which decreases to 0 as p approaches
    2n-1 and stays positive in floating point up to the last float below it.
    """
    return _window_constants(n, p)[1]


def sigma_midpoint(n: int, p: float) -> float:
    """(n+1)(p-1)/(n-1), the midpoint of the (sigma2, sigma1) window."""
    return (n + 1) * (p - 1) / (n - 1)


def sigma1(n: int, p: float) -> float:
    """Upper sigma threshold (p-1)[(n+1)/(n-1) + (2/(n-1)) sqrt(discriminant)]."""
    return _window_constants(n, p)[2]


def sigma2(n: int, p: float) -> float:
    """Lower sigma threshold (p-1)[(n+1)/(n-1) - (2/(n-1)) sqrt(discriminant)]."""
    return _window_constants(n, p)[3]


def beta(n: int, p: float, sigma: float, sign_of_a: float) -> float:
    """Coefficient of the f^2 energy term in the integral inequality.

    Equals p/(n-1) when sigma lies on the unconditional side of the window
    midpoint (below it for a > 0, above it for a < 0); on the conditional
    side a quadratic penalty in sigma is subtracted.  Always in (0, p/(n-1)]
    inside the applicability window, and tends to 0 at the window endpoint.

    ``sign_of_a`` may be any nonzero real; only its sign is used.
    """
    constants = _window_constants(n, p)
    if sign_of_a == 0:
        raise ParameterError("sign_of_a must be nonzero")
    return _beta(n, p, sigma, sign_of_a, constants)


def _beta(n, p, sigma, sign_of_a, constants):
    """beta from the first estimate's constants at (n, p)."""
    _, d, s1, s2 = constants
    if not _in_sigma_window(sigma, sign_of_a, constants):
        if sign_of_a > 0:
            window, bound = "a>0", f"sigma < sigma1 = {s1:.12g}"
        else:
            window, bound = "a<0", f"sigma > sigma2 = {s2:.12g}"
        raise RegimeError(f"sigma = {sigma} is outside the {window} window (requires {bound})")
    mid = sigma_midpoint(n, p)
    full = p / (n - 1)
    if (sigma <= mid) if sign_of_a > 0 else (sigma > mid):
        return full
    penalty = p * ((sigma / (p - 1) - 1) - 2 / (n - 1)) ** 2 / (4 / (n - 1) * d)
    return full - penalty


def thm2_threshold(n: int, p: float) -> float:
    """(n+2)(p-1)/n, the sigma threshold of the second gradient estimate."""
    _require_p(p)
    return (n + 2) * (p - 1) / n


def thm2_condition(n: int, p: float, sigma: float, sign_of_a: float) -> bool:
    """True iff (a > 0 and sigma <= (n+2)(p-1)/n) or (a < 0 and sigma >= it).

    Both comparisons are inclusive at the threshold.
    """
    if sign_of_a == 0:
        raise ParameterError("sign_of_a must be nonzero")
    _require_finite("sigma", sigma)
    t = thm2_threshold(n, p)
    return sigma <= t if sign_of_a > 0 else sigma >= t


def compare_thresholds(n: int, p: float):
    """Return (thm2_threshold, sigma1) for 1 < p < 2n-1.

    The first threshold always lies strictly below sigma1 inside the
    p-window; a failure of that ordering raises.
    """
    t = thm2_threshold(n, p)
    s1 = sigma1(n, p)  # raises RegimeError for p outside (1, 2n-1)
    if not t < s1:
        raise RegimeError(
            f"threshold ordering violated at n={n}, p={p}: {t} >= {s1}"
        )
    return t, s1


@dataclass(frozen=True)
class RegimeReport:
    """Full regime classification of one parameter quadruple.

    alpha/sigma1/sigma2 (and beta) are None when p >= 2n-1, where the first
    estimate does not apply at all.  beta is present iff thm1_applicable.
    """

    alpha: float | None
    sigma1: float | None
    sigma2: float | None
    thm2_threshold: float
    beta: float | None
    thm1_applicable: bool
    thm2_applicable: bool

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _named_constants(n, p, constants):
    al, _, s1, s2 = constants or (None, None, None, None)
    return {"alpha": al, "sigma1": s1, "sigma2": s2, "thm2_threshold": thm2_threshold(n, p)}


def regime_constants(n: int, p: float) -> dict:
    """The constants that depend on (n, p) alone: alpha, sigma1 and sigma2,
    each None outside 1 < p < 2n-1 where the first estimate does not apply,
    and thm2_threshold.  Requires an integer n >= 3 and p > 1."""
    return _named_constants(n, p, _first_estimate(n, p))


def classify_regime(params: EquationParams) -> RegimeReport:
    """Evaluate every threshold and applicability flag for one quadruple.

    The sigma windows are open at their outer endpoints: at sigma = sigma1
    (a > 0) or sigma = sigma2 (a < 0) beta degenerates to 0 and the first
    estimate is classified as not applicable.
    """
    n, p, a, s = params.n, params.p, params.a, params.sigma
    constants = _first_estimate(n, p)
    thm1, thm2 = _regime_flags(n, p, s, a, constants)
    return RegimeReport(
        **_named_constants(n, p, constants),
        beta=_beta(n, p, s, a, constants) if thm1 else None,
        thm1_applicable=thm1,
        thm2_applicable=thm2,
    )


def _regime_flags(n, p, sigma, sign_of_a, constants):
    """(thm1_applicable, thm2_applicable) of (n, p, sigma) and the sign of
    a, from constants = _first_estimate(n, p)."""
    thm1 = constants is not None and _in_sigma_window(sigma, sign_of_a, constants)
    return thm1, thm2_condition(n, p, sigma, sign_of_a)


@dataclass(frozen=True, eq=False)
class MoserExponents:
    """Geometric exponent ladder b_l and its partial sums.

    b[l-1] holds b_l; the infinite sums of 1/b_l and l/b_l have the closed
    forms n/(2 b_1) and n^2/(4 b_1), and ``tail_inv``/``tail_l_inv`` bound
    the truncation error of the stored partial sums.  == and hash go by
    identity, as b is an array.
    """

    b: np.ndarray
    partial_sum_inv: float
    partial_sum_l_inv: float
    limit_inv: float
    limit_l_inv: float
    tail_inv: float
    tail_l_inv: float


def moser_exponents(n: int, p: float, b0: float, L: int) -> MoserExponents:
    """Build b_1 = (b0 + 2 - 2/p) n/(n-2) and b_{l+1} = b_l n/(n-2), l <= L."""
    import numpy as np
    _require_integer("n", n, 3)
    _require_p(p)
    if not 0 < b0 < math.inf:
        raise ParameterError(f"b0 must be positive and finite, got {b0}")
    _require_integer("L", L, 1)
    ratio = n / (n - 2)
    b1 = (b0 + 2 - 2 / p) * ratio
    b = np.empty(L)
    b[0] = b1
    for idx in range(1, L):  # literal recurrence, so b[l+1]/b[l] is exact
        b[idx] = b[idx - 1] * ratio
    ells = np.arange(1, L + 1, dtype=float)
    q = 1 / ratio  # (n-2)/n < 1
    # tails of sum q^(l-1)/b1 and sum l q^(l-1)/b1 beyond l = L
    tail_inv = q**L / b1 * n / 2
    tail_l_inv = q**L * ((L + 1) - L * q) / (1 - q) ** 2 / b1
    return MoserExponents(
        b=b,
        partial_sum_inv=float(np.sum(1 / b)),
        partial_sum_l_inv=float(np.sum(ells / b)),
        limit_inv=n / (2 * b1),
        limit_l_inv=n**2 / (4 * b1),
        tail_inv=float(tail_inv),
        tail_l_inv=float(tail_l_inv),
    )
