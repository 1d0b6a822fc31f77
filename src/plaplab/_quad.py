"""Monotone cubic interpolation (PCHIP) and composite Simpson quadrature.

Both are numpy ports of scipy 1.17.1 -- ``scipy.interpolate.PchipInterpolator``
(Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980); end slopes after Moler,
*Numerical Computing with MATLAB*, 3.6) and ``scipy.integrate.simpson`` with
``x=`` (last interval after Cartwright) -- on a 1-D grid, with the same
floating-point operations in the same order, so their results equal scipy's
bit for bit.  PCHIP takes 1-D data; Simpson also takes integrands stacked
along leading axes, one integral per row over the last axis, each row
equal to its own 1-D call.  They keep the checkers free of the scipy import.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PPoly", "pchip", "simpson"]


def _check_grid(x, y):
    """x and y as float arrays: x 1-D, y of x's length along its last axis
    (C-contiguous, so a row sums in the order of a 1-D call)."""
    x = np.asarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if x.ndim != 1 or y.shape[-1:] != x.shape:
        raise ValueError(f"x must be 1-D and y of equal length, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise ValueError("x must contain at least 2 elements")
    if not np.all(np.diff(x) > 0):
        raise ValueError("x must be strictly increasing")
    return x, y


def _div0(num, den):
    """num / den, and 0 where den == 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


class PPoly:
    """Piecewise polynomial in the local power basis: on [x[i], x[i+1]] it is
    sum_m c[m, i] (t - x[i])^(k-1-m), k = len(c).

    Intervals are half-open [x[i], x[i+1]) except the last, which is closed;
    points outside [x[0], x[-1]] are extrapolated from the end intervals.
    """

    def __init__(self, x, c):
        self.x = x
        self.c = c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        x, c = self.x, self.c
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        s = t - x[i]
        k = len(c)
        res = np.zeros_like(s)
        z = np.ones_like(s)
        for m in range(k):  # scipy's order: ascending powers of s, summed
            res = res + c[k - m - 1, i] * z
            if m < k - 1:
                z = z * s
        return res

    def derivative(self):
        k = len(self.c)
        c = self.c[:-1].copy()
        c *= np.arange(k - 1, 0, -1, dtype=float)[:, None]
        return PPoly(self.x, c)


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y):
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # only where flat
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def pchip(x, y) -> PPoly:
    """Shape-preserving C^1 cubic through (x, y), x strictly increasing."""
    x, y = _check_grid(x, y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must contain only finite values")
    d = _pchip_slopes(x, y)
    # cubic Hermite coefficients from values and slopes
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * slope) / h
    c = np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]))
    return PPoly(x, c)


def _basic_simpson(y, stop, x):
    """Simpson's rule for uneven spacing over the panels [0:stop+2] of
    each row."""
    h = np.diff(x)
    y0, y1, y2 = y[..., 0:stop:2], y[..., 1 : stop + 1 : 2], y[..., 2 : stop + 2 : 2]
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _div0(h0, h1)
    tmp = hsum / 6.0 * (
        y0 * (2.0 - _div0(1.0, h0divh1))
        + y1 * (hsum * _div0(hsum, hprod))
        + y2 * (2.0 - h0divh1)
    )
    return np.sum(tmp, axis=-1)


def simpson(y, *, x):
    """Composite Simpson integral of samples y over the strictly increasing
    grid x; an even sample count closes with Cartwright's last-interval
    correction (the trapezoid for two samples).  y of shape (..., N) gives
    one integral per row."""
    x, y = _check_grid(x, y)
    N = y.shape[-1]
    if N % 2:
        return _basic_simpson(y, N - 2, x)
    # scipy adds 0.0 last, which turns a -0.0 result into +0.0
    if N == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[..., -1] + y[..., -2])
    result = _basic_simpson(y, N - 3, x)
    diffs = np.diff(x)
    h0, h1 = diffs[-2:-1].reshape(()), diffs[-1:].reshape(())
    alpha = _div0(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _div0(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _div0(h1**3, 6 * h0 * (h0 + h1))
    return result + (alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]) + 0.0
