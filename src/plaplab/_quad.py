"""Monotone cubic interpolation (PCHIP).

A numpy port of scipy 1.17.1's ``scipy.interpolate.PchipInterpolator``
(Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980); end slopes after Moler,
*Numerical Computing with MATLAB*, 3.6) on 1-D data, with the same
floating-point operations in the same order, so its results equal scipy's
bit for bit.  It keeps the checkers free of the scipy import.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PPoly", "pchip"]


def _interval(x, t):
    """How many of x[1:-1] lie at or below t: scipy's interval index on the
    breakpoints x, with points beyond either end (and nan) in the end
    intervals."""
    return np.searchsorted(x[1:-1], t, side="right")


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
        return self.at(self.locate(t))

    def locate(self, t):
        """(i, t - x[i]) for the points t: the interval of each point and its
        offset in it, which every PPoly on the same breakpoints shares."""
        t = np.asarray(t, dtype=float)
        i = _interval(self.x, t)
        return i, t - np.take(self.x, i)

    def at(self, where):
        """The polynomial at points located by locate on these breakpoints."""
        i, s = where
        c = np.take(self.c, i, axis=1)
        k = len(c)
        # scipy's order: ascending powers of s, summed from 0.0
        res = c[k - 1] + 0.0
        z = s
        for m in range(1, k):
            res = res + c[k - m - 1] * z
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
        return h, m, np.array([m[0], m[0]])
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
    return h, m, d


def pchip(x, y, *, upto=None) -> PPoly:
    """Shape-preserving C^1 cubic through 1-D (x, y), x strictly increasing.

    Given upto, it is fitted only to the samples up to the second one past
    the interval that holds upto, the samples its values at t <= upto read:
    a value on an interval reads the slopes at its two ends, and a slope
    reads the samples either side of it.  Those values are bit for bit the
    full fit's; x and y are still checked whole.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape[-1:] != x.shape:
        raise ValueError(f"x must be 1-D and y of equal length, got {x.shape} and {y.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(x) < 2:
        raise ValueError("x must contain at least 2 elements")
    if not np.all(np.diff(x) > 0):
        raise ValueError("x must be strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must contain only finite values")
    if upto is not None:
        stop = _interval(x, upto) + 3
        x, y = x[:stop], y[:stop]
    h, slope, d = _pchip_slopes(x, y)
    # cubic Hermite coefficients from values and slopes
    t = (d[:-1] + d[1:] - 2 * slope) / h
    c = np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]))
    return PPoly(x, c)

