"""Distinguishability metrics between two single-mode Gaussian states.

Each function checks its states and evaluates the closed forms of
:mod:`qlidar.kernel` on them; the Fock-space module provides an independent
numerical check of the overlap-based ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InvalidParameterError
from .kernel import XI_SATURATION_CAP  # noqa: F401  (re-exported)
from .states import GaussianState, validate


def _check_spd(m: np.ndarray, name: str) -> np.ndarray:
    m = GaussianState(np.zeros(2), m).sigma
    if not (kernel.det(m[0, 0], m[0, 1], m[1, 1]) > 0.0 and m[0, 0] + m[1, 1] > 0.0):
        raise InvalidParameterError(f"{name} must be positive definite")
    return m


def _checked(**states: GaussianState) -> list[tuple]:
    """Kernel moments of each state once it is checked to be physical; the
    keyword names the state in the error."""
    for name, state in states.items():
        validate(state, name)
    return [state.moments for state in states.values()]


def bures_sq(sigma0: np.ndarray, sigma1: np.ndarray) -> float:
    """Squared Bures distance tr(s0 + s1) - 2 tr sqrt(s0^1/2 s1 s0^1/2).

    Uses tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)) for the 2x2 cross term, so no
    eigensolver is involved.  Clamped at zero against rounding undershoot.
    """
    s0 = _check_spd(sigma0, "sigma0")
    s1 = _check_spd(sigma1, "sigma1")
    return float(kernel.bures((s0[0, 0], s0[0, 1], s0[1, 1]), (s1[0, 0], s1[0, 1], s1[1, 1])))


def w2_sq(state0: GaussianState, state1: GaussianState) -> tuple[float, float, float]:
    """Squared Wasserstein-2 distance via the Gelbrich formula.

    Returns (w2_sq, displacement_term, bures_sq): the squared mean-vector
    separation plus the covariance reshaping cost.
    """
    disp, b2 = kernel.w2_terms(*_checked(state0=state0, state1=state1))
    return float(disp + b2), float(disp), float(b2)


def gaussian_fidelity(state0: GaussianState, state1: GaussianState) -> float:
    """Uhlmann fidelity F(rho0, rho1) between two Gaussian states."""
    return float(np.exp(kernel.log_fidelity(*_checked(state0=state0, state1=state1))))


def xi_qbb(state0: GaussianState, state1: GaussianState) -> float:
    """Bhattacharyya-type error exponent -ln Tr[sqrt(rho0) sqrt(rho1)], the s = 1/2
    point of the Chernoff overlap, capped at ``XI_SATURATION_CAP`` (saturated regime).

    The proxy -(1/2) ln F is ``MetricReport.xi_qbb_proxy``: the two coincide for
    commuting states, and for pure states this exponent is exactly twice the proxy.
    """
    m0, m1 = _checked(state0=state0, state1=state1)
    return float(kernel.exponent(kernel.log_s_overlap(m0, m1, 0.5)))


def s_overlap_minimum(state0: GaussianState, state1: GaussianState) -> tuple[float, float]:
    """Minimise ln Tr[rho0^s rho1^(1-s)] over s in [0, 1].

    Returns (s_star, log_overlap_min), the first two values of ``kernel.chernoff``:
    the log-overlap is convex in s, and 12 bisections on its closed-form slope and two
    secant steps find it within 1e-14 max(1, |ln Q|) of its value at the 50-digit
    argmin; with a pure state it is the edge value ln Tr[rho0 rho1], at s_star = 1
    for a pure state1, 0 for a pure state0 and 1/2 for two pure states.
    """
    s_star, best = kernel.chernoff(*_checked(state0=state0, state1=state1))[:2]
    return float(s_star), float(best)


def xi_qcb(state0: GaussianState, state1: GaussianState) -> float:
    """Chernoff error exponent -ln min_s Tr[rho0^s rho1^(1-s)], capped as :func:`xi_qbb`."""
    return float(kernel.exponent(s_overlap_minimum(state0, state1)[1]))


@dataclass(frozen=True)
class MetricReport:
    """All distinguishability scores for one ordered state pair (H1, H0)."""

    w2_sq: float
    displacement_term: float
    bures_sq: float
    fidelity: float
    xi_qbb: float
    xi_qbb_proxy: float
    xi_qcb: float
    snr_sq_opt: float
    theta_opt: float


def metric_report(state_h1: GaussianState, state_h0: GaussianState) -> MetricReport:
    """Evaluate every metric between the target-present and noise states.

    The homodyne SNR (u.d)^2 / (u.Sigma_H1.u) peaks at d.Sigma_H1^-1.d, at the
    LO angle theta_opt of u ~ Sigma_H1^-1 d (Cauchy-Schwarz), with no search.
    With no displacement it is 0 and theta_opt, in [0, pi), is the minor axis of
    Sigma_H1 in closed form (:func:`qlidar.kernel.report`).
    """
    h0, h1 = _checked(state0=state_h0, state1=state_h1)
    return MetricReport(**{key: float(value) for key, value in kernel.report(h1, h0).items()})
