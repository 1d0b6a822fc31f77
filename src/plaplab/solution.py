"""The solved radial profile and what is computed from it alone.

A shooting run ends in a RadialSolution: the profile (u, w), with the flux
w = |u'|^(p-2) u', on the uniform grid r from 0 to the termination radius,
the run's configuration and how it ended.  From it follow the independent
finite-difference residuals, the log transform v = (p-1) log u and the
linearized operator on it that the pointwise checkers read, and the CSV
form in which the CLI hands a solution from solve to check: the columns
u, w, with r rebuilt from the termination radius and the row count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import get_type_hints

import numpy as np

from .errors import ParameterError, SolutionFormatError
from .geometry import ModelSpace, radial_L_coefficient, radial_p_laplacian, warp
from .thresholds import EquationParams


@dataclass(frozen=True)
class ShootingConfig:
    """Shooting-run configuration: start value, span, and control knobs."""

    u0: float = 1.0
    r_max: float = 10.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    zero_threshold: float = 1e-8
    blowup_threshold: float = 1e8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ParameterError(f"{f.name} must be positive and finite, got {value}")
        if not self.zero_threshold < self.u0 < self.blowup_threshold:
            raise ParameterError(
                f"center value u0 = {self.u0} is outside (zero_threshold, blowup_threshold)"
                f" = ({self.zero_threshold}, {self.blowup_threshold})"
            )

    def to_dict(self):
        """Field values in field order, each as a float."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class Termination:
    """How a shooting run ended.

    kind is one of reached_rmax | hit_zero | blow_up | step_failure and r is
    the radius at which the run stopped.  A step that fails close to the
    blow-up threshold ends the run as a blow-up at that radius.
    """

    kind: str
    r: float

    KINDS = ("reached_rmax", "hit_zero", "blow_up", "step_failure")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown termination kind {self.kind!r}")


@dataclass(frozen=True)
class RadialSolution:
    """Uniformly resampled radial profile (r, u, flux w) plus verdict.

    r is the solver's sample grid, np.linspace(0, termination.r, len(r))
    bit for bit, with termination.r finite and > 0 and a step above 0, so
    that the finite differences' step h = r[1] - r[0] holds by construction
    and the CSV form can leave r out.  The derivative du = u' is not stored
    either: it is a function of the flux, u' = sgn(w) |w|^(1/(p-1)),
    computed from w and params.p on first use.
    """

    params: EquationParams
    space: ModelSpace
    config: ShootingConfig
    r: np.ndarray
    u: np.ndarray
    w: np.ndarray
    termination: Termination

    def __post_init__(self):
        _dimension(self.params, self.space)
        m = len(self.r)
        if not (len(self.u) == len(self.w) == m):
            raise ParameterError("grid arrays must have equal length")
        if not np.array_equal(self.r, _grid(self.termination.r, m)):
            raise ParameterError(
                f"r must be the uniform grid of {m} samples from 0 to"
                f" termination.r = {self.termination.r}"
            )

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def du(self) -> np.ndarray:
        """u' on the grid, derived from the flux w."""
        return _du_from_flux(self.w, self.params.p)


def _dimension(params, space) -> int:
    """The dimension n of a run, which its params and its space must share."""
    if params.n != space.n:
        raise ParameterError(f"dimension mismatch: params.n = {params.n}, space.n = {space.n}")
    return space.n


def _grid(r_end, m):
    """np.linspace(0, r_end, m), the grid a solved profile is sampled on.

    Refused unless r_end is finite and > 0 and the m >= 2 samples increase
    strictly, i.e. the step r_end / (m - 1) does not underflow to 0.
    """
    if not 0 < r_end < math.inf:
        raise ParameterError(f"termination.r must be finite and > 0, got {r_end}")
    if m < 2 or r_end / (m - 1) == 0:
        raise ParameterError(
            f"{m} samples from 0 to termination.r = {r_end} do not increase strictly"
        )
    # near the float maximum (m - 1) * step overflows, and linspace sets the
    # last sample to r_end, as it does for any r_end
    with np.errstate(over="ignore"):
        return np.linspace(0.0, r_end, m)


def _du_from_flux(w, p):
    """u' = copysign(|w|^(1/(p-1)), w), the inverse of w = |u'|^(p-2) u'."""
    return np.copysign(np.abs(w) ** (1.0 / (p - 1.0)), w)


@dataclass(frozen=True)
class LogSolution:
    """Log-transformed profile: v = (p-1) log u, f = |v'|^p, and the
    source weight h = (p-1)^(p-1) exp((sigma/(p-1) - 1) v)."""

    params: EquationParams
    space: ModelSpace
    config: ShootingConfig
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    f: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        _dimension(self.params, self.space)

    @cached_property
    def transformed_residual(self) -> float:
        """Max relative residual, by finite differences on v alone, of the
        transformed equation div(|v'|^(p-2) v') + |v'|^p + a h = 0 (h as
        above); computed on first use."""
        # the log profile is singular at a zero hit, so its grid change per step
        # must stay well below the u-profile cap for the 4th-order stencil
        mask, dv, plap_v = _fd_p_laplacian(self, self.v, np.abs(self.dv), 0.01)
        source = self.params.a * self.h[mask]
        full = plap_v + np.abs(dv) ** self.params.p + source
        return float(np.max(np.abs(full)) / np.max(np.abs(source)))

    @cached_property
    def linearized_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """(L f, f') on the grid, L(f) = s^(1-n) d/dr [ s^(n-1) (p-1)|v'|^(p-2) f' ]
        by nested 4th-order differences, NaN where v' = 0; computed on
        first use, so both Bochner checks of one profile share it."""
        r, dv = self.r, self.dv
        n = self.space.n
        h = r[1] - r[0]
        df = _fd4_first(self.f, h)
        s_pow = warp(self.space, r) ** (n - 1)
        coef = np.full_like(r, np.nan)
        moving = dv != 0
        coef[moving] = radial_L_coefficient(self.params.p, dv[moving])
        with np.errstate(divide="ignore", invalid="ignore"):
            Lf = _fd4_first(s_pow * coef * df, h) / s_pow
        return Lf, df


# ---------------------------------------------------------------------------
# finite-difference residuals and the log transform; the 4th-order central
# stencils leave NaN in the two border cells at each end, which masks drop


def _fd4_first(y, h):
    """(y[i-2] - 8 y[i-1] + 8 y[i+1] - y[i+2]) / (12 h), O(h^4)."""
    y = np.asarray(y, dtype=float)
    out = np.full_like(y, np.nan)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    return out


def _fd4_second(y, h):
    """(-y[i-2] + 16 y[i-1] - 30 y[i] + 16 y[i+1] - y[i+2]) / (12 h^2), O(h^4)."""
    y = np.asarray(y, dtype=float)
    out = np.full_like(y, np.nan)
    out[2:-2] = (
        -y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]
    ) / (12 * h * h)
    return out


def _fd_p_laplacian(solution, y, rel_change, max_step_change):
    """(mask, y', div(|y'|^(p-2) y')) of the profile y on the solution's
    grid, by 4th-order central differences, on the samples retained for
    residual checks: inside the central exclusion band, with complete FD
    stencils, nondegenerate gradient for p < 2, and resolvable on the grid
    (relative change per grid step capped, which drops the unresolvable
    tail next to a zero hit or a blow-up).  A grid of fewer than 5 samples
    has no complete stencil; a check that retains no sample is refused."""
    p, r = solution.params.p, solution.r
    h = r[1] - r[0]
    dy = _fd4_first(y, h)
    band = min(0.02 * solution.config.r_max, 0.25 * r[-1])
    mask = (r > band) & np.isfinite(dy)
    mask &= rel_change * h <= max_step_change
    if p < 2:
        mask &= dy != 0
    if not np.any(mask):
        raise ParameterError("no samples retained for the residual check")
    dy = dy[mask]
    return mask, dy, radial_p_laplacian(p, solution.space, dy, _fd4_second(y, h)[mask], r[mask])


def pde_residual(solution: RadialSolution) -> float:
    """Max relative residual of the original equation on the resampled grid.

    u' and u'' are rebuilt from (r, u) alone by 4th-order central
    differences, so this is an independent verification of the profile, not
    of the solver's own flux variable.  The residual is normalized by the
    largest source magnitude max |a| u^sigma over retained samples.
    """
    u = solution.u
    mask, _, plap = _fd_p_laplacian(solution, u, np.abs(solution.du) / u, 0.02)
    source = solution.params.a * u[mask] ** solution.params.sigma
    scale = np.max(np.abs(source))
    return float(np.max(np.abs(plap + source)) / scale)


def _require_finite_profile(solution):
    """Raise ParameterError unless u and w are finite on the whole grid: the
    rule of every checker that reads a RadialSolution."""
    bad = ~(np.isfinite(solution.u) & np.isfinite(solution.w))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ParameterError(
            f"profile is not finite at r = {solution.r[i]:.6g}:"
            f" u = {solution.u[i]}, w = {solution.w[i]}"
        )


def to_log_solution(solution: RadialSolution) -> LogSolution:
    """Pointwise log-transform of a positive profile; the transformed
    equation is checked when its transformed_residual is first read."""
    _require_finite_profile(solution)
    if np.any(solution.u <= 0):
        raise ParameterError("log transform requires u > 0 on all samples")
    p, sig = solution.params.p, solution.params.sigma
    v = (p - 1) * np.log(solution.u)
    dv = (p - 1) * solution.du / solution.u
    f = np.abs(dv) ** p
    hsrc = (p - 1) ** (p - 1) * np.exp((sig / (p - 1) - 1) * v)
    return LogSolution(
        params=solution.params,
        space=solution.space,
        config=solution.config,
        r=solution.r,
        v=v,
        dv=dv,
        f=f,
        h=hsrc,
    )


def _cumulative_weighted_integral(r, g, n):
    """Cumulative integral of t^(n-1) g(t) on the grid r (r[0] = 0).

    Product quadrature: g is fitted by the parabola through each sample
    triple and integrated against the exact moments of t^(n-1), so the
    weight's vanishing at t = 0 costs no accuracy (plain Simpson is exact
    for parabolas but not for t^(n-1) * parabola, and its startup error is
    amplified by s^(1-n) in the flux identity).
    """
    m = len(r)
    k = np.arange(m - 1)
    left = np.clip(k - 1, 0, m - 3)  # triple (left, left+1, left+2) per interval
    t0, t1, t2 = r[left], r[left + 1], r[left + 2]
    g0, g1, g2 = g[left], g[left + 1], g[left + 2]
    d01 = (g1 - g0) / (t1 - t0)
    d12 = (g2 - g1) / (t2 - t1)
    c2 = (d12 - d01) / (t2 - t0)  # second divided difference
    # parabola around tau = t - r[k]:  A + B tau + C tau^2
    dk = r[k] - t0
    A = g0 + d01 * dk + c2 * dk * (r[k] - t1)
    B = d01 + c2 * (2 * r[k] - t0 - t1)
    C = c2
    h = r[k + 1] - r[k]
    increments = np.zeros(m - 1)
    for j in range(n):  # binomial expansion of (r_k + tau)^(n-1)
        binom = math.comb(n - 1, j)
        base = binom * r[k] ** (n - 1 - j)
        increments += base * (
            A * h ** (j + 1) / (j + 1)
            + B * h ** (j + 2) / (j + 2)
            + C * h ** (j + 3) / (j + 3)
        )
    out = np.zeros(m)
    np.cumsum(increments, out=out[1:])
    return out


def flux_residual(solution: RadialSolution) -> float:
    """Deviation of w from -s^(1-n) * integral_0^r a u^sigma s^(n-1) dt.

    The integral is evaluated by a product quadrature (exact moments of
    t^(n-1) against a piecewise-parabolic fit of the smooth factor), and
    the maximum absolute deviation is normalized by max(1, max |w|).  The
    final sample is excluded: it sits on the termination event, where the
    integrand may end in a cusp (u^sigma with sigma < 1 at a zero hit).
    """
    params, space = solution.params, solution.space
    r, u, w = solution.r, solution.u, solution.w
    n = space.n
    warp_ratio = np.ones_like(r)  # (s(t)/t)^(n-1), smooth, -> 1 at 0
    warp_ratio[1:] = (warp(space, r[1:]) / r[1:]) ** (n - 1)
    g = params.a * u**params.sigma * warp_ratio
    integral = _cumulative_weighted_integral(r, g, n)
    s_pow = warp_ratio[1:] * r[1:] ** (n - 1)
    dev = w[1:-1] + integral[1:-1] / s_pow[:-1]
    scale = max(1.0, float(np.max(np.abs(w))))
    return float(np.max(np.abs(dev)) / scale)


# ---------------------------------------------------------------------------
# CSV serialization: '#'-prefixed key=value metadata, then one row per sample

_FLOAT_FMT = "%.17g"
_HEADER = "u,w"
# files written before r was rebuilt from termination_r (r,u,w) and before
# du was derived from w (r,u,du,w): their r must be the grid, and du is
# parsed and dropped
_LEGACY_HEADERS = ("r,u,w", "r,u,du,w")
_ROW_FMT = ",".join([_FLOAT_FMT] * 2) + "\n"
_type_hints = cache(get_type_hints)  # a class's annotations resolve once per process


@contextmanager
def _opened(path_or_file, mode):
    """Open a path for the block and close it after; pass an open file through."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode) as fh:
            yield fh
    else:
        yield path_or_file


def write_solution_csv(solution: RadialSolution, path_or_file) -> None:
    """Write a solution as CSV: metadata comment lines, the header u,w
    and one row per sample.

    r is not written; the reader rebuilds it as the grid from 0 to the
    termination_r line, which RadialSolution guarantees it is.  Nor is du;
    it is derived from w.  Decimal output carries 17 significant digits,
    enough to round-trip float64 exactly.
    """
    meta = {}
    meta.update(solution.params.to_dict())
    meta.update(solution.space.to_dict())
    meta.update(solution.config.to_dict())
    meta["termination"] = solution.termination.kind
    meta["termination_r"] = solution.termination.r
    lines = [
        f"# {key}={_FLOAT_FMT % value if isinstance(value, float) else value}\n"
        for key, value in meta.items()
    ]
    lines.append(_HEADER + "\n")
    data = np.column_stack((solution.u, solution.w))
    lines.append((_ROW_FMT * len(data)) % tuple(data.ravel().tolist()))
    with _opened(path_or_file, "w") as fh:
        fh.write("".join(lines))


def _from_meta(cls, meta):
    """The dataclass cls built from the metadata value of each of its
    fields, parsed as the field's annotated type."""
    types = _type_hints(cls)
    return cls(**{f.name: types[f.name](meta[f.name]) for f in fields(cls)})


def _header_index(lines, meta):
    """Index of the first non-blank line that is not metadata, len(lines)
    if there is none; the '#' lines above it are parsed as key=value into
    meta."""
    for i, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                raise SolutionFormatError(f"malformed metadata line: {line!r}")
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            return i
    return len(lines)


def _first_rejected_row(rows, columns):
    """Index of the first row that np.loadtxt refuses below a row of
    `columns` zeros: a row that is not `columns` numbers.  Called on the
    error path only, one row at a time."""
    zeros = ",".join("0" * columns)
    for k, row in enumerate(rows):
        try:
            np.loadtxt([zeros, row], delimiter=",", comments=None)
        except ValueError:
            return k


def read_solution_csv(path_or_file) -> RadialSolution:
    """Parse a solution CSV written by write_solution_csv.

    A data row is two comma-separated plain decimal fields u, w; r is
    rebuilt as np.linspace(0, termination_r, rows), the solver's grid, and
    du is derived from w.  Files with the older headers r,u,w and r,u,du,w
    still read: their r must be that grid bit for bit, and a du field must
    be a number and is then dropped.  Metadata lines go above the header;
    keys that name no field, such as the retired min_step, output_points
    and termination_detail, are ignored.  Below the header a '#' line or a
    line of spaces is refused, and the error names the file line of the
    first refused row; blank lines, spaces around fields and \r\n line
    ends read.
    """
    with _opened(path_or_file, "r") as fh:
        lines = fh.read().split("\n")
    meta = {}
    start = _header_index(lines, meta)
    header = lines[start].strip() if start < len(lines) else None
    if header not in (None, _HEADER, *_LEGACY_HEADERS):
        raise SolutionFormatError(f"unexpected column header: {header!r}")
    # loadtxt skips empty lines (lone '\r's too) and strips each field
    rows = lines[start + 1 :]
    if not any(row.strip("\r") for row in rows):
        raise SolutionFormatError("no data rows found")
    columns = header.count(",") + 1
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        k = _first_rejected_row(rows, columns)
        raise SolutionFormatError(
            f"malformed data rows: line {start + 2 + k} is not {columns} "
            f"comma-separated numbers: {rows[k]!r}"
        ) from None
    if data.shape[1] != columns:
        raise SolutionFormatError(f"data rows have {data.shape[1]} columns, expected {columns}")
    try:
        params, space, config = (
            _from_meta(cls, meta) for cls in (EquationParams, ModelSpace, ShootingConfig)
        )
        termination = Termination(meta["termination"], float(meta["termination_r"]))
    except (KeyError, ValueError) as exc:
        raise SolutionFormatError(f"bad or missing metadata: {exc}") from exc
    try:
        if columns == 2:
            r, u = _grid(termination.r, len(data)), data[:, 0]
        else:
            r, u = data[:, 0], data[:, 1]
        return RadialSolution(
            params=params,
            space=space,
            config=config,
            r=r,
            u=u,
            w=data[:, -1],
            termination=termination,
        )
    except ParameterError as exc:
        raise SolutionFormatError(str(exc)) from exc
