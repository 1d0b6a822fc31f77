"""Exception classes and the shared helpers of the package: the argument
checks and the writer of every output file."""

import math
import os
import stat
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


def _is_path(path_or_file):
    """Whether the argument names a file rather than being an open one."""
    return isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")


def _keep_contents(path, flags):
    """os.open for open(): the flags without O_TRUNC, and open()'s own mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(path_or_file, text):
    """Write text, the whole output, to an open file or to a path.

    A path is opened as open(path, "w") opens it (created with the umask
    applied, followed through a symlink), but an existing regular file is
    not truncated first: it is rewritten in place and then cut to the
    written length, so no zero-length truncate sets off its writeback.  A
    path that is not a regular file, such as /dev/null or a FIFO, is
    written without the cut.  An open file is written, and neither closed
    nor cut.  Like open(path, "w"), the writer does not fsync.
    """
    if not _is_path(path_or_file):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", opener=_keep_contents) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
