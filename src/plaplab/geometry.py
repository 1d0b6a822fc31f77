"""Model-space geometry: warping functions and the radial
forms of the p-Laplacian and of its linearization around a profile.

Only the two space forms realizing the curvature bound Ric >= -(n-1)K with
K >= 0 are supported: Euclidean space (K = 0) and hyperbolic space of
curvature -K (K > 0).  Their metric is dr^2 + s_K(r)^2 dtheta^2 with
warping function s_K(r) = r or sinh(sqrt(K) r)/sqrt(K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, _require_integer, _require_p


@dataclass(frozen=True)
class ModelSpace:
    """Dimension n >= 3 plus curvature parameter K >= 0.

    K = 0 is Euclidean space (Ric = 0); K > 0 is hyperbolic space of
    sectional curvature -K, where Ric = -(n-1)K exactly.
    """

    n: int
    K: float = 0.0

    def __post_init__(self):
        _require_integer("n", self.n, 3)
        if not 0 <= self.K < math.inf:
            raise ParameterError(f"K must be finite and >= 0, got {self.K}")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def warp(space: ModelSpace, r):
    """Warping function s_K(r); vectorized in r.

    r if K = 0, sinh(sqrt(K) r)/sqrt(K) if K > 0, so s_K(0) = 0.  Requires
    r >= 0.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ParameterError("warp requires r >= 0")
    if space.K == 0:
        out = r
    else:
        rk = math.sqrt(space.K)
        out = np.sinh(rk * r) / rk
    return out if out.ndim else float(out)


def warp_log_derivative(space: ModelSpace, r):
    """s_K'(r)/s_K(r): 1/r for K = 0, sqrt(K) coth(sqrt(K) r) for K > 0."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ParameterError("warp_log_derivative requires r > 0")
    out = _log_warp(space.K)(r)
    return out if out.ndim else float(out)


def _log_warp(K, tanh=np.tanh):
    """The function r -> s_K'(r)/s_K(r) for r > 0, unchecked: on arrays, or
    on floats with tanh=math.tanh."""
    if K == 0:
        return lambda r: 1.0 / r
    rk = math.sqrt(K)
    return lambda r: rk / tanh(rk * r)


def radial_p_laplacian(p: float, space: ModelSpace, du, d2u, r):
    """div(|grad u|^(p-2) grad u) for a radial profile, at radius r > 0.

    |u'|^(p-2) [ (p-1) u'' + (n-1) (s'/s) u' ].  At a critical point the
    classical expression degenerates: for p >= 2 the limit value is
    returned (0 when p > 2, u'' when p = 2); for p < 2 it is singular and a
    ParameterError is raised -- solvers should work with the flux variable
    w = |u'|^(p-2) u' instead.
    """
    _require_p(p)
    lam = warp_log_derivative(space, r)
    du = np.asarray(du, dtype=float)
    d2u = np.asarray(d2u, dtype=float)
    if np.any(du == 0) and p < 2:
        raise ParameterError(
            "radial_p_laplacian is singular at u' = 0 for p < 2; use the flux form"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(du) ** (p - 2) * ((p - 1) * d2u + (space.n - 1) * lam * du)
    out = np.where(du == 0, 0.0 if p > 2 else d2u, out)
    return out if out.ndim else float(out)


def radial_L_coefficient(p: float, dv) -> float:
    """Scalar weight (p-1)|v'|^(p-2) of the linearized operator on radial data.

    For radial f with grad f parallel to grad v, the linearization of the
    p-Laplacian around v acts as

        L(f) = s^(1-n) d/dr [ s^(n-1) (p-1) |v'|^(p-2) f' ],

    and this function returns the coefficient (p-1)|v'|^(p-2).
    """
    _require_p(p)
    dv = np.asarray(dv, dtype=float)
    if np.any(dv == 0):
        raise ParameterError("radial_L_coefficient requires v' != 0")
    out = (p - 1) * np.abs(dv) ** (p - 2)
    return out if out.ndim else float(out)
