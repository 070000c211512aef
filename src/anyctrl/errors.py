"""Exception types shared across the package, and the one definition of a config number.

`real`, `integer` and `reals` decide what a number is: a Python or numpy
integer or float, never a bool and never a str, so a quoted "0.5" is no
number. A real must be finite, and an integer too large for a float is
not. Each failure is a ConfigError that names the value's config key.
"""

import math

import numpy as np

REAL_TYPES = (int, float, np.integer, np.floating)  # bool, an int subclass, is excluded by hand


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


def real(value, key: str) -> float:
    """`value`, a finite number, as a float."""
    if type(value) is bool or not isinstance(value, REAL_TYPES):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the largest float
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def integer(value, key: str) -> int:
    """`value`, a Python or numpy integer that is no bool, as an int."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def reals(value, key: str) -> np.ndarray:
    """A float array from nested lists, or an array, whose every entry `real` takes.

    A ragged list's rows are entries too, and no numbers. A numeric array holds no
    bool or str: it is walked only if a count of its finite entries falls short.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        out = value.astype(float)
        if np.count_nonzero(np.isfinite(out)) == out.size:
            return out
    entries = np.array(value, dtype=object)
    for entry in entries.flat:
        real(entry, key)
    return entries.astype(float)


class CertificateViolation(RuntimeError):
    """The supplied (V, kappa, rho) triple failed the per-step decrease test.

    Carries the prediction index at which the test failed and, when known,
    the step k whose tentative sequence failed and the run it belongs to.
    """

    def __init__(self, step_index, start_step=None, run=None):
        self.step_index = step_index
        self.start_step = start_step
        self.run = run
        where = "" if start_step is None else f" of the sequence computed at step {start_step} in run {run}"
        super().__init__(f"Lyapunov decrease test failed at prediction step {step_index}{where}")


class DivergenceError(ArithmeticError):
    """A closed-form certificate does not converge (e.g. p0*alpha >= 1)."""
