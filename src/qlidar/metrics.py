"""Distinguishability metrics between two single-mode Gaussian states.

Each function checks its states and evaluates the closed forms of
:mod:`qlidar.kernel` on them; the Fock-space module provides an independent
numerical check of the overlap-based ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .channel import ChannelParams, effective_noise
from .errors import InvalidParameterError
from .kernel import XI_SATURATION_CAP  # noqa: F401  (re-exported)
from .states import GaussianState, ProbeBudget, validate


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
    components = []
    for name, sigma in (("sigma0", sigma0), ("sigma1", sigma1)):
        try:
            s = GaussianState(np.zeros(2), sigma).moments[2:]
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{name}: {exc}") from None
        if not (kernel.det(*s) > 0.0 and s[0] + s[2] > 0.0):
            raise InvalidParameterError(f"{name} must be positive definite")
        components.append(s)
    return float(kernel.bures(*components))


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
    return _report(*_checked(state0=state_h0, state1=state_h1))


def w2_score(probe: ProbeBudget, params: ChannelParams) -> MetricReport:
    """Full metric report for the probe budget through the channel.

    Compares the channel output against the thermal background state, which
    is both the no-target hypothesis and the channel output at zero
    transmissivity; v_el is folded into both once ``effective_noise`` checks it.
    """
    effective_noise(params)
    return _report(*kernel.lidar_pair(probe.lam, probe.n_tot, params.eta_eff,
                                      params.n_th, params.v_el, probe.displacement_phase))


def _report(h0, h1) -> MetricReport:
    """The :class:`MetricReport` of one pair of kernel moments (H0, H1), unchecked."""
    return MetricReport(**{key: float(value) for key, value in kernel.report(h0, h1).items()})
