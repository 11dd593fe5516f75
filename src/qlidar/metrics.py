"""Distinguishability metrics between single-mode Gaussian states.

Implements the Gelbrich closed form for the squared Wasserstein-2 distance,
the Bures distance between covariance matrices, the single-mode Gaussian
fidelity closed form, the Gaussian s-overlap Tr[rho0^s rho1^(1-s)] used by
the Bhattacharyya (s = 1/2) and Chernoff (minimised over s) error exponents,
and the homodyne deflection SNR with its optimal quadrature.

All formulas are written in the package convention of :mod:`qlidar.states`
(vacuum covariance = I, mu = sqrt(2) * (Re alpha, Im alpha)); the Fock-space
module provides an independent numerical check of the overlap-based ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .states import GaussianState, validate

XI_SATURATION_CAP = 700.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_S_EDGE = 1e-9


def _check_spd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise InvalidParameterError(f"{name} must be 2x2, got shape {m.shape}")
    if abs(m[0, 1] - m[1, 0]) > 1e-12:
        raise InvalidParameterError(f"{name} must be symmetric")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not (det > 0.0 and m[0, 0] + m[1, 1] > 0.0):
        raise InvalidParameterError(f"{name} must be positive definite")
    return 0.5 * (m + m.T)


def _check_state(state: GaussianState, name: str) -> None:
    verdict = validate(state)
    if not verdict:
        raise InvalidParameterError(f"{name} is unphysical: {verdict.reason}")


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _inv2(m: np.ndarray) -> np.ndarray:
    det = _det2(m)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def sqrt_spd_2x2(m: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric positive-definite 2x2 matrix.

    Closed form sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)),
    exact for 2x2 SPD matrices (Cayley-Hamilton).
    """
    m = _check_spd(m, "matrix")
    sd = math.sqrt(_det2(m))
    return (m + sd * np.eye(2)) / math.sqrt(m[0, 0] + m[1, 1] + 2.0 * sd)


def bures_sq(sigma0: np.ndarray, sigma1: np.ndarray) -> float:
    """Squared Bures distance tr(s0 + s1) - 2 tr sqrt(s0^1/2 s1 s0^1/2).

    Uses tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)) for the 2x2 cross term, so no
    eigensolver is involved.  Clamped at zero against rounding undershoot.
    """
    s0 = _check_spd(sigma0, "sigma0")
    s1 = _check_spd(sigma1, "sigma1")
    cross = float(np.trace(s0 @ s1)) + 2.0 * math.sqrt(_det2(s0) * _det2(s1))
    b2 = float(np.trace(s0) + np.trace(s1)) - 2.0 * math.sqrt(cross)
    return max(b2, 0.0)


def w2_sq(state0: GaussianState, state1: GaussianState) -> tuple[float, float, float]:
    """Squared Wasserstein-2 distance via the Gelbrich formula.

    Returns (w2_sq, displacement_term, bures_sq): the squared mean-vector
    separation plus the covariance reshaping cost.
    """
    _check_state(state0, "state0")
    _check_state(state1, "state1")
    d = state1.mu - state0.mu
    disp = float(d @ d)
    b2 = bures_sq(state0.sigma, state1.sigma)
    return disp + b2, disp, b2


def _log_fidelity(state0: GaussianState, state1: GaussianState) -> float:
    """ln F for two single-mode Gaussian states (Scutaru-type closed form)."""
    s0, s1 = state0.sigma, state1.sigma
    ssum = s0 + s1
    delta = _det2(ssum)
    lam = max(_det2(s0) - 1.0, 0.0) * max(_det2(s1) - 1.0, 0.0)
    d = state1.mu - state0.mu
    expo = -float(d @ _inv2(ssum) @ d)
    # denom = sqrt(delta + lam) - sqrt(lam), rationalised for stability
    log_denom = math.log(delta) - math.log(math.sqrt(delta + lam) + math.sqrt(lam))
    return math.log(2.0) + expo - log_denom


def gaussian_fidelity(state0: GaussianState, state1: GaussianState) -> float:
    """Uhlmann fidelity F(rho0, rho1) between two Gaussian states."""
    _check_state(state0, "state0")
    _check_state(state1, "state1")
    return math.exp(_log_fidelity(state0, state1))


def _log_g(nu: float, s: float) -> float:
    """ln G_s(nu) with G_s(nu) = 2^s / ((nu+1)^s - (nu-1)^s)."""
    if nu <= 1.0:
        return 0.0
    return s * math.log(2.0) - math.log((nu + 1.0) ** s - (nu - 1.0) ** s)


def _lambda_s(nu: float, s: float) -> float:
    """Symplectic eigenvalue of rho^s: ((nu+1)^s + (nu-1)^s) / ((nu+1)^s - (nu-1)^s)."""
    if nu <= 1.0:
        return 1.0
    up, dn = (nu + 1.0) ** s, (nu - 1.0) ** s
    return (up + dn) / (up - dn)


def _log_s_overlap(state0: GaussianState, state1: GaussianState, s: float) -> float:
    """ln Tr[rho0^s rho1^(1-s)] for s in (0, 1), computed in the log domain.

    Powers of a Gaussian state are Gaussian up to normalisation: rho^s has the
    same mean and squeezing structure, symplectic eigenvalue Lambda_s(nu), and
    trace G_s(nu).  The remaining factor is a Gaussian overlap integral.
    """
    s = min(max(s, _S_EDGE), 1.0 - _S_EDGE)
    nu0 = max(1.0, math.sqrt(_det2(state0.sigma)))
    nu1 = max(1.0, math.sqrt(_det2(state1.sigma)))
    big0 = _lambda_s(nu0, s) * (state0.sigma / nu0)
    big1 = _lambda_s(nu1, 1.0 - s) * (state1.sigma / nu1)
    ssum = big0 + big1
    d = state1.mu - state0.mu
    expo = -float(d @ _inv2(ssum) @ d)
    return (
        math.log(2.0)
        + _log_g(nu0, s)
        + _log_g(nu1, 1.0 - s)
        - 0.5 * math.log(_det2(ssum))
        + expo
    )


def xi_qbb(
    state0: GaussianState,
    state1: GaussianState,
    mode: str = "overlap",
    cap: float = XI_SATURATION_CAP,
) -> float:
    """Bhattacharyya-type error exponent.

    mode="overlap" evaluates -ln Tr[sqrt(rho0) sqrt(rho1)], the s = 1/2 point
    of the Chernoff overlap.  mode="fidelity_proxy" evaluates -(1/2) ln F.
    The two coincide for commuting states; for pure states the overlap equals
    the fidelity itself, so the overlap exponent is exactly twice the proxy.
    Values beyond ``cap`` are returned as ``cap`` (saturated regime flag).
    """
    _check_state(state0, "state0")
    _check_state(state1, "state1")
    if mode == "overlap":
        xi = -_log_s_overlap(state0, state1, 0.5)
    elif mode == "fidelity_proxy":
        xi = -0.5 * _log_fidelity(state0, state1)
    else:
        raise InvalidParameterError(f"unknown xi_qbb mode {mode!r}")
    return min(max(xi, 0.0), cap)


def s_overlap_minimum(
    state0: GaussianState, state1: GaussianState, s_tol: float = 1e-8
) -> tuple[float, float]:
    """Minimise ln Tr[rho0^s rho1^(1-s)] over s in [0, 1] by golden section.

    Returns (s_star, log_overlap_min).  The overlap is convex in s, so the
    search is reliable; ties between probe points shrink the bracket from
    both ends, which pins s_star to 1/2 for symmetric pairs.
    """
    _check_state(state0, "state0")
    _check_state(state1, "state1")

    def f(s: float) -> float:
        return _log_s_overlap(state0, state1, s)

    a, b = _S_EDGE, 1.0 - _S_EDGE
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > s_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        elif fc > fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            a, b = c, d
            c = b - _GOLDEN * (b - a)
            d = a + _GOLDEN * (b - a)
            fc, fd = f(c), f(d)
    s_star = 0.5 * (a + b)
    best = f(s_star)
    # s = 1/2 is always admissible; never report a worse minimum than it
    half = f(0.5)
    if half < best:
        s_star, best = 0.5, half
    return s_star, best


def xi_qcb(
    state0: GaussianState,
    state1: GaussianState,
    cap: float = XI_SATURATION_CAP,
    s_tol: float = 1e-8,
) -> float:
    """Chernoff error exponent -ln min_s Tr[rho0^s rho1^(1-s)]."""
    _, log_min = s_overlap_minimum(state0, state1, s_tol=s_tol)
    return min(max(-log_min, 0.0), cap)


def homodyne_snr(
    state_h1: GaussianState,
    state_h0: GaussianState,
    theta: float,
    variance: str = "h1",
) -> float:
    """Squared deflection SNR of a homodyne measurement at LO angle theta.

    SNR^2(theta) = |u_theta . (mu1 - mu0)|^2 / V_theta with the projected
    variance taken under the target-present hypothesis (variance="h1"); pass
    variance="max" for the conservative max(V_H0, V_H1) variant.
    """
    _check_state(state_h1, "state_h1")
    _check_state(state_h0, "state_h0")
    u = np.array([math.cos(theta), math.sin(theta)])
    num = float(u @ (state_h1.mu - state_h0.mu)) ** 2
    v1 = float(u @ state_h1.sigma @ u)
    if variance == "h1":
        v = v1
    elif variance == "max":
        v = max(v1, float(u @ state_h0.sigma @ u))
    else:
        raise InvalidParameterError(f"unknown variance rule {variance!r}")
    return num / v


class OptimalQuadrature(NamedTuple):
    theta_opt: float
    snr_sq_opt: float
    degenerate: bool


def optimal_quadrature(
    state_h1: GaussianState, state_h0: GaussianState
) -> OptimalQuadrature:
    """Quadrature angle maximising the homodyne SNR, with its value.

    By Cauchy-Schwarz the maximum of (u.d)^2 / (u.Sigma.u) over directions is
    exactly d.Sigma^-1.d, reached at u ~ Sigma^-1 d; both come in closed form
    with no numerical search.  With no displacement the problem degenerates
    and the variance-minimising (minor) axis of Sigma_H1 is reported.
    """
    _check_state(state_h1, "state_h1")
    _check_state(state_h0, "state_h0")
    d = state_h1.mu - state_h0.mu
    sigma = state_h1.sigma
    if float(d @ d) == 0.0:
        w, v = np.linalg.eigh(sigma)
        theta = math.atan2(v[1, 0], v[0, 0]) % math.pi
        return OptimalQuadrature(theta, 0.0, True)
    g = _inv2(sigma) @ d
    theta = math.atan2(g[1], g[0]) % math.pi
    return OptimalQuadrature(theta, float(d @ g), False)


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
    """Evaluate every metric between the target-present and noise states."""
    w2, disp, b2 = w2_sq(state_h0, state_h1)
    log_f = _log_fidelity(state_h0, state_h1)
    quad = optimal_quadrature(state_h1, state_h0)
    return MetricReport(
        w2_sq=w2,
        displacement_term=disp,
        bures_sq=b2,
        fidelity=math.exp(log_f),
        xi_qbb=xi_qbb(state_h0, state_h1, mode="overlap"),
        xi_qbb_proxy=min(max(-0.5 * log_f, 0.0), XI_SATURATION_CAP),
        xi_qcb=xi_qcb(state_h0, state_h1),
        snr_sq_opt=quad.snr_sq_opt,
        theta_opt=quad.theta_opt,
    )
