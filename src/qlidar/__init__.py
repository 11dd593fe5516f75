"""Gaussian quantum-lidar toolkit.

Displaced squeezed probes under a photon budget, lossy thermal channels,
transport- and overlap-based distinguishability metrics, allocation
optimisation and fading-channel Monte Carlo, cross-checked against a
truncated Fock-space oracle.
"""

from .allocation import (
    AllocationGrid,
    GradientDiagnostics,
    allocation_grid,
    eta_critical,
    eta_critical_effective,
    gradient_diagnostics,
    transition_eta,
    w2_score,
)
from .channel import ChannelParams, apply_loss, effective_noise
from .errors import (
    CutoffTooSmallError,
    InvalidParameterError,
    NumericalError,
    SingularityError,
    UndefinedThresholdError,
)
from .fading import (
    FadingConfig,
    FadingEnsemble,
    SelectionReport,
    post_select,
    run_ensemble,
    sample_eta,
)
from .metrics import (
    MetricReport,
    bures_sq,
    gaussian_fidelity,
    metric_report,
    s_overlap_minimum,
    w2_sq,
    xi_qbb,
    xi_qcb,
)
from .states import (
    GaussianState,
    ProbeBudget,
    probe_from_budget,
    rotate,
    squeezed_vacuum,
    thermal_state,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationGrid",
    "ChannelParams",
    "CutoffTooSmallError",
    "FadingConfig",
    "FadingEnsemble",
    "GaussianState",
    "GradientDiagnostics",
    "InvalidParameterError",
    "MetricReport",
    "NumericalError",
    "ProbeBudget",
    "SelectionReport",
    "SingularityError",
    "UndefinedThresholdError",
    "allocation_grid",
    "apply_loss",
    "bures_sq",
    "effective_noise",
    "eta_critical",
    "eta_critical_effective",
    "gaussian_fidelity",
    "gradient_diagnostics",
    "metric_report",
    "post_select",
    "probe_from_budget",
    "rotate",
    "run_ensemble",
    "s_overlap_minimum",
    "sample_eta",
    "squeezed_vacuum",
    "thermal_state",
    "transition_eta",
    "validate",
    "w2_score",
    "w2_sq",
    "xi_qbb",
    "xi_qcb",
]
