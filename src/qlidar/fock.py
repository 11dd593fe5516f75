"""Truncated Fock-space oracle for overlap metrics.

Builds explicit density matrices for displaced squeezed thermal states and
evaluates fidelity and s-overlaps by dense linear algebra.  This is the
independent check for the Gaussian closed forms in :mod:`qlidar.metrics`:
nothing here shares code with those formulas beyond the (mu, sigma)
parametrisation itself.

Operator calibration.  The quadrature operators are Q = a + a^dag and
P = -i (a - a^dag), whose vacuum variances are 1, matching the covariance
convention.  First moments are read out as mu = sqrt(2) * (Re<a>, Im<a>),
matching the mean-vector convention, so the displacement amplitude realising
a mean mu is beta = (mu_q + i mu_p) / sqrt(2).  Both calibrations are fixed
empirically by the moment round-trip tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, InvalidParameterError, NumericalError
from .states import GaussianState, validate

TRACE_BUDGET_DEFAULT = 1e-8


@dataclass(frozen=True)
class FockDensity:
    """Dense Hermitian PSD matrix in the number basis, with truncation info."""

    dim: int
    matrix: np.ndarray
    trace_deficit: float


def lowering_operator(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator a on the first ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def default_cutoff(state: GaussianState) -> int:
    """Cutoff heuristic sized by mean photon number (60 / 80 / 200 tiers)."""
    n = state.photon_number
    if n <= 3.0:
        return 60
    if n <= 10.0:
        return 80
    return 200


def _decompose(sigma: np.ndarray) -> tuple[float, float, float]:
    """Split sigma into thermal occupation, squeezing and rotation angle.

    sigma = (2 nbar + 1) R(phi) diag(e^-2r, e^2r) R(phi)^T with the minor axis
    of the uncertainty ellipse at angle phi.
    """
    w, v = np.linalg.eigh(sigma)
    nu = max(1.0, math.sqrt(w[0] * w[1]))
    nbar = 0.5 * (nu - 1.0)
    r = 0.25 * math.log(w[1] / w[0])
    phi = math.atan2(v[1, 0], v[0, 0])
    return nbar, r, phi


def _expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G from the eigendecomposition of iG.

    iG = U diag(w) U^dag is Hermitian, so exp(G) = U diag(e^(-i w)) U^dag.
    """
    w, u = np.linalg.eigh(1j * g)
    return (u * np.exp(-1j * w)) @ u.conj().T


def build_state(
    state: GaussianState, cutoff: int, trace_budget: float = TRACE_BUDGET_DEFAULT
) -> FockDensity:
    """Construct rho = D S rho_thermal S^dag D^dag in a truncated basis.

    The squeezing and displacement operators are exponentials of truncated
    anti-Hermitian generators G, taken from the eigendecomposition of the
    Hermitian iG; the phase-space rotation is diagonal in the number basis.
    Raises :class:`CutoffTooSmallError` when truncation loses more trace than
    ``trace_budget``.
    """
    verdict = validate(state)
    if not verdict:
        raise InvalidParameterError(f"state is unphysical: {verdict.reason}")
    if cutoff < 2:
        raise InvalidParameterError(f"cutoff must be >= 2, got {cutoff}")
    nbar, r, phi = _decompose(state.sigma)
    levels = np.arange(cutoff)

    if nbar > 0.0:
        probs = np.exp(levels * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))
    else:
        probs = np.zeros(cutoff)
        probs[0] = 1.0

    a = lowering_operator(cutoff)
    if r != 0.0:
        squeeze = _expm_antihermitian(0.5 * r * (a @ a - a.T @ a.T)).real
        rho = (squeeze * probs) @ squeeze.T
    else:
        rho = np.diag(probs)

    rho = rho.astype(complex)
    if phi != 0.0:
        phase = np.exp(1j * phi * levels)
        rho = phase[:, None] * rho * np.conj(phase)[None, :]

    beta = (state.mu[0] + 1j * state.mu[1]) / math.sqrt(2.0)
    if beta != 0.0:
        displace = _expm_antihermitian(beta * a.T - np.conj(beta) * a)
        rho = displace @ rho @ displace.conj().T

    rho = 0.5 * (rho + rho.conj().T)
    deficit = max(0.0, 1.0 - float(np.trace(rho).real))
    if deficit > trace_budget:
        raise CutoffTooSmallError(deficit, trace_budget, int(math.ceil(1.5 * cutoff)))

    eigmin = float(np.linalg.eigvalsh(rho)[0])
    if eigmin < -1e-10:
        raise NumericalError(f"density matrix has eigenvalue {eigmin:.3e} < -1e-10")
    return FockDensity(dim=cutoff, matrix=rho, trace_deficit=deficit)


def extract_moments(rho: FockDensity) -> tuple[np.ndarray, np.ndarray]:
    """Read (mu, sigma) back from a density matrix via the calibrated operators."""
    a = lowering_operator(rho.dim)
    q = a + a.T
    p = -1j * (a - a.T)
    m = rho.matrix
    a_mean = complex(np.trace(m @ a))
    q_mean = float(np.trace(m @ q).real)
    p_mean = float(np.trace(m @ p).real)
    var_q = float(np.trace(m @ q @ q).real) - q_mean**2
    var_p = float(np.trace(m @ p @ p).real) - p_mean**2
    cov_qp = 0.5 * float(np.trace(m @ (q @ p + p @ q)).real) - q_mean * p_mean
    mu = math.sqrt(2.0) * np.array([a_mean.real, a_mean.imag])
    sigma = np.array([[var_q, cov_qp], [cov_qp, var_p]])
    return mu, sigma


def _clean_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out the eigenvalue noise floor of a truncated density matrix.

    Eigenvalues below dim * eps * max(w) are numerical junk from the dense
    eigensolver; raising them to fractional powers would pollute overlaps at
    the 1e-5 level, so they are removed outright.
    """
    floor = w.size * np.finfo(float).eps * float(w.max())
    return np.where(w < floor, 0.0, w)


def _check_dims(rho0: FockDensity, rho1: FockDensity) -> None:
    if rho0.dim != rho1.dim:
        raise InvalidParameterError(
            f"dimension mismatch: {rho0.dim} vs {rho1.dim}"
        )


def _clean_power(rho: FockDensity, name: str, exponent: float) -> np.ndarray:
    """rho^exponent from a clamped Hermitian eigendecomposition."""
    w, u = np.linalg.eigh(rho.matrix)
    if float(w[0]) < -1e-10:
        raise NumericalError(f"{name} eigenvalue {w[0]:.3e} < -1e-10")
    return (u * np.power(_clean_spectrum(w), exponent)) @ u.conj().T


def oracle_fidelity(rho0: FockDensity, rho1: FockDensity) -> float:
    """Uhlmann fidelity (tr |sqrt(rho0) sqrt(rho1)|)^2 by brute force.

    The square roots come from clamped Hermitian eigendecompositions; the
    trace norm is the sum of singular values of their product, which keeps
    eigensolver noise additive instead of sqrt-amplified.
    """
    _check_dims(rho0, rho1)
    root0 = _clean_power(rho0, "rho0", 0.5)
    root1 = _clean_power(rho1, "rho1", 0.5)
    singular = np.linalg.svd(root0 @ root1, compute_uv=False)
    return float(np.sum(singular) ** 2)


def oracle_s_overlap(rho0: FockDensity, rho1: FockDensity, s: float) -> float:
    """Tr[rho0^s rho1^(1-s)] with matrix powers via clamped eigendecomposition."""
    _check_dims(rho0, rho1)
    if not 0.0 <= s <= 1.0:
        raise InvalidParameterError(f"s must be in [0, 1], got {s}")
    power0, power1 = _clean_power(rho0, "rho0", s), _clean_power(rho1, "rho1", 1.0 - s)
    return float(np.sum(power0 * power1.T).real)
