"""Gaussian quantum-lidar toolkit.

Displaced squeezed probes under a photon budget, lossy thermal channels,
transport- and overlap-based distinguishability metrics, allocation
optimisation and fading-channel Monte Carlo, cross-checked against a
truncated Fock-space oracle.

Each public name is loaded from its module on first use (PEP 562), so
``import qlidar`` loads none of them and a program pays only for the
modules it reaches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = (
    dict.fromkeys(("AllocationGrid", "GradientDiagnostics", "allocation_grid", "eta_critical",
                   "eta_critical_effective", "gradient_diagnostics", "transition_eta"),
                  "allocation")
    | dict.fromkeys(("ChannelParams", "apply_loss", "effective_noise"), "channel")
    | dict.fromkeys(("CutoffTooSmallError", "InvalidParameterError", "NumericalError",
                     "SingularityError", "UndefinedThresholdError"), "errors")
    | dict.fromkeys(("FadingEnsemble", "SelectionReport", "post_select", "run_ensemble",
                     "sample_eta"), "fading")
    | dict.fromkeys(("MetricReport", "bures_sq", "gaussian_fidelity", "metric_report",
                     "s_overlap_minimum", "w2_score", "w2_sq", "xi_qbb", "xi_qcb"), "metrics")
    | dict.fromkeys(("FadingConfig", "GaussianState", "ProbeBudget", "probe_from_budget",
                     "thermal_state", "validate"), "states")
)

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # not cached here: a rebinding in the defining module shows through
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
