"""Exception classes and the argument checks shared across the package."""

import math

import numpy as np

__all__ = ["ParameterError", "RegimeError", "SolutionFormatError"]


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
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_finite(owner, *names):
    """Each named attribute of owner must be a finite number."""
    for name in names:
        if not math.isfinite(getattr(owner, name)):
            raise ParameterError(f"{name} must be finite, got {getattr(owner, name)}")
