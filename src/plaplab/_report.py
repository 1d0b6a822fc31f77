"""What the checkers of plaplab.verify and plaplab.proof share.

* reports serialize through ``to_report_dict`` into one flat JSON object
  per check, whose metrics are the report's fields outside the envelope
  and whose tolerances and sample count are class attributes of the
  report (each checker's fixed settings are constants of the one module
  that reads them);
* a radius R must be positive, and inside the span of the solution it is
  checked on.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ParameterError


def _jsonable(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# report fields that go into the envelope rather than its metrics
_ENVELOPE = ("params", "space", "R", "passed")


class _Report:
    """to_report_dict for the report dataclasses: each declares its check
    name and its tolerances, class attributes set to the fixed settings,
    and may state samples_retained, the number of samples it was measured
    on; its fields outside the envelope are its metrics, in field order."""

    _tolerances = ()
    samples_retained = None

    def _metrics(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _ENVELOPE}

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
                "samples_retained": self.samples_retained,
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
