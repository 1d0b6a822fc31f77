"""Exception classes and the argument checks shared across the package."""

import math
from numbers import Integral


class ParameterError(ValueError):
    """A constructor or configuration argument is out of its admissible range."""


class RegimeError(ValueError):
    """Inputs are valid numbers but lie outside the regime where a quantity
    or check is defined (e.g. p beyond the admissible window, sigma outside
    the applicability window of an estimate)."""


class SolutionFormatError(ValueError):
    """A solution file could not be parsed back into a RadialSolution."""


def _require_integer(name, value, minimum):
    """value must be an integer, not a bool, and at least minimum."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_finite(name, value):
    """value must be a finite number."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")


def _require_p(p):
    """p, the exponent of the p-Laplacian, must be a finite number > 1."""
    if not math.isfinite(p):
        raise ParameterError(f"p must be finite, got {p}")
    if not p > 1:
        raise ParameterError(f"p must be > 1, got {p}")
