"""What the checkers of plaplab.verify and plaplab.proof share.

* the tolerances, sample filters and quadrature grid are fixed module
  constants, printed in the reports; the one value a caller chooses is the
  exponent b of the Caccioppoli test function (CaccioppoliConfig);
* reports serialize through ``to_report_dict`` into one flat JSON object
  per check, whose metrics are the report's fields outside the envelope;
* a radius R must be positive, and inside the span of the solution it is
  checked on.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ParameterError


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# fixed settings of the checkers, printed in their reports
_EDGE_FRAC = 0.05  # pointwise checks skip r < _EDGE_FRAC * span
_DV_FLOOR = 1e-6  # pointwise checks skip |v'| < _DV_FLOOR
_TOL_REL = 1e-3  # pointwise margin tolerance, relative to the sample's scale
_REQUIRED_FRACTION = 0.95  # share of retained samples that must pass
_TOL_QUAD = 1e-6  # Caccioppoli slack tolerance, relative to its scale
_QUADRATURE_POINTS = 4001  # grid of the integral checks
_DILATION_FACTORS = (1, 2, 4, 8)
_SPREAD_TOL = 0.02  # relative spread of empirical_C across the dilations

# report fields that go into the envelope rather than its metrics
_ENVELOPE = ("params", "space", "R", "passed")


class _Report:
    """to_report_dict for the report dataclasses: each declares its check
    name and its tolerances, class attributes set to the fixed settings,
    and its fields outside the envelope are its metrics, in field order."""

    _tolerances = ()

    def _metrics(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _ENVELOPE}

    def _samples_retained(self):
        return getattr(self, "quadrature_points", None)

    def to_report_dict(self):
        params = getattr(self, "params", None)
        return _jsonable(
            {
                "check": self._check,
                "params": params.to_dict() if params is not None else None,
                "space": self.space.to_dict(),
                "R": getattr(self, "R", None),
                "pass": getattr(self, "passed", None),
                "metrics": self._metrics(),
                "samples_retained": self._samples_retained(),
                "tolerances": {name: getattr(self, name) for name in self._tolerances},
            }
        )


def _require_radius(R):
    if not R > 0:
        raise ParameterError(f"R must be positive, got {R}")


def _require_span(solution, R):
    """R > 0 inside the span of solution, a RadialSolution or a LogSolution."""
    _require_radius(R)
    if solution.r[-1] < R:
        raise ParameterError(
            f"solution extends only to r = {solution.r[-1]:.6g} < R = {R}"
        )
