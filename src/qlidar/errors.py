"""Exception types shared across the package, and the one check of each input kind:
a real, an integer and a grid."""

import math
import numbers

import numpy as np


class InvalidParameterError(ValueError):
    """A constructor or operation received an out-of-domain argument."""


class SingularityError(InvalidParameterError):
    """A formula was evaluated at a point where it diverges."""


class UndefinedThresholdError(InvalidParameterError):
    """The quantum-advantage threshold is undefined for the given inputs."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class CutoffTooSmallError(NumericalError):
    """Fock-space truncation lost more probability than the budget allows."""

    def __init__(self, trace_deficit: float, budget: float, suggested_cutoff: int, max_cutoff: int):
        self.trace_deficit = trace_deficit
        self.budget = budget
        self.suggested_cutoff = suggested_cutoff
        advice = (f"retry with cutoff >= {suggested_cutoff}" if suggested_cutoff <= max_cutoff else
                  f"no cutoff up to {max_cutoff} is enough, the tail needs >= {suggested_cutoff}")
        super().__init__(
            f"truncation lost {trace_deficit:.3e} of the trace (budget {budget:.1e}); {advice}")


def real(name: str, value) -> float:
    """``value`` as a float if it is a finite real; numpy scalars count, bool does not."""
    if type(value) is bool or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise InvalidParameterError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int if it is an integer in [low, high]; numpy ints count, bool does not."""
    if type(value) is bool or not (isinstance(value, numbers.Integral) and low <= value <= high):
        raise InvalidParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def ascending(name: str, values, check) -> np.ndarray:
    """``values`` as a float grid, checked once: 1-d and nonempty, ``check`` passes at both
    extremes as Python floats, so at every value (a NaN is both), and strictly
    ascending, which an allocation grid's first-maximiser tie rule and its
    transition search rely on."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise InvalidParameterError(f"{name} grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise InvalidParameterError(f"{name} grid must be nonempty")
    for x in (grid.min(), grid.max()):
        check(float(x))
    if not np.all(np.diff(grid) > 0):
        raise InvalidParameterError(f"{name} grid must be strictly ascending")
    return grid
