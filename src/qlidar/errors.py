"""Exception types shared across the package, and the one check of each scalar input kind."""

import math
import numbers


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

    def __init__(self, trace_deficit: float, budget: float, suggested_cutoff: int):
        self.trace_deficit = trace_deficit
        self.budget = budget
        self.suggested_cutoff = suggested_cutoff
        super().__init__(
            f"truncation lost {trace_deficit:.3e} of the trace (budget {budget:.1e}); "
            f"retry with cutoff >= {suggested_cutoff}"
        )


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
