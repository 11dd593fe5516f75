"""Truncated Fock-space oracle for overlap metrics.

Builds displaced squeezed thermal states in a truncated number basis as
rho = U diag(p) U^dag, with U = D(beta) P(phi) S(r) and p the thermal
distribution, and evaluates fidelity and s-overlaps by dense linear algebra
on those factors.  This is the independent check for the Gaussian closed
forms in :mod:`qlidar.metrics`: nothing here shares code with those formulas
beyond the (mu, sigma) parametrisation itself.  The Williamson split of sigma
is this module's own 2x2 ``eigh``, and rho^s = U diag(p^s) U^dag is the
functional calculus of any unitary U, not the Gaussian overlap formula.

U is a product of exponentials of truncated anti-Hermitian generators and
diagonal phases, so it is unitary to rounding and the factors are the exact
eigendecomposition of the truncated matrix as built: no density matrix is
ever eigendecomposed, and no eigenvalue needs clipping.

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
from functools import cached_property, lru_cache

import numpy as np

from .errors import CutoffTooSmallError, InvalidParameterError, integer, real
from .states import GaussianState, validate

TRACE_BUDGET_DEFAULT = 1e-8


@dataclass(frozen=True)
class FockDensity:
    """rho = unitary diag(probs) unitary^dag in the number basis, with truncation info."""

    dim: int
    unitary: np.ndarray
    probs: np.ndarray
    trace_deficit: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense density matrix, formed on first use."""
        return (self.unitary * self.probs) @ self.unitary.conj().T


def lowering_operator(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator a on the first ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@lru_cache(maxsize=4)
def _generator_spectra(cutoff: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only ``eigh`` of i K for the unit squeeze and displacement generators.

    K_sq = (a^2 - a^dag^2) / 2 and K_d = a^dag - a, so exp(x K) = U diag(e^(-i x w)) U^dag.
    Few entries suffice: a cutoff-convergence check alternates cutoffs c and 1.5c.
    """
    a = lowering_operator(cutoff)
    spectra = (np.linalg.eigh(0.5j * (a @ a - a.T @ a.T)), np.linalg.eigh(1j * (a.T - a)))
    for array in (*spectra[0], *spectra[1]):
        array.flags.writeable = False
    return spectra


def _exp_generator(spectrum: tuple[np.ndarray, np.ndarray], scale: float) -> np.ndarray:
    """exp(scale K) for a real generator K, from the spectrum of i K."""
    w, u = spectrum
    return ((u * np.exp(-1j * scale * w)) @ u.conj().T).real


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


def build_state(state: GaussianState, cutoff: int) -> FockDensity:
    """Factor rho = D P S rho_thermal S^dag P^dag D^dag in a truncated basis.

    Returns U = D(beta) P(phi) S(r) and the truncated thermal populations
    p_n = nbar^n / (nbar + 1)^(n + 1).  The squeezing and displacement
    operators are exponentials of the truncated generators r K_sq and
    |beta| K_d, taken from the spectra of i K that :func:`_generator_spectra`
    caches per cutoff.  The phase-space rotation and the direction arg(beta)
    of the displacement are diagonal phases in the number basis:
    P a P^dag = e^(-i theta) a for P = diag(e^(i theta n)).
    Raises :class:`CutoffTooSmallError`, before any matrix is formed, when the
    thermal tail beyond the cutoff, 1 - sum p = (nbar / (nbar + 1))^cutoff,
    exceeds ``TRACE_BUDGET_DEFAULT``.  U stays unitary under truncation, so it loses
    no trace; convergence in the cutoff is what catches its truncation.
    """
    validate(state)
    cutoff = integer("cutoff", cutoff, 2)
    nbar, r, phi = _decompose(state.sigma)
    ratio = nbar / (nbar + 1.0)
    deficit = ratio**cutoff
    if deficit > TRACE_BUDGET_DEFAULT:
        raise CutoffTooSmallError(deficit, TRACE_BUDGET_DEFAULT, int(math.ceil(1.5 * cutoff)))

    levels = np.arange(cutoff)
    probs = ratio**levels / (nbar + 1.0)
    squeeze_spectrum, displace_spectrum = _generator_spectra(cutoff)
    phase = np.exp(1j * phi * levels)
    if r != 0.0:
        unitary = phase[:, None] * _exp_generator(squeeze_spectrum, r)
    else:
        unitary = np.diag(phase)

    beta = (state.mu[0] + 1j * state.mu[1]) / math.sqrt(2.0)
    if beta != 0.0:
        turn = np.exp(1j * np.angle(beta) * levels)
        shift = _exp_generator(displace_spectrum, abs(beta))
        unitary = turn[:, None] * (shift @ (np.conj(turn)[:, None] * unitary))
    return FockDensity(dim=cutoff, unitary=unitary, probs=probs, trace_deficit=deficit)


def _overlap_matrix(rho0: FockDensity, rho1: FockDensity) -> np.ndarray:
    """W = U0^dag U1, the eigenvectors of rho1 in the eigenbasis of rho0."""
    if rho0.dim != rho1.dim:
        raise InvalidParameterError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    return rho0.unitary.conj().T @ rho1.unitary


def oracle_fidelity(rho0: FockDensity, rho1: FockDensity) -> float:
    """Uhlmann fidelity (tr |sqrt(rho0) sqrt(rho1)|)^2 by brute force.

    sqrt(rho0) sqrt(rho1) = U0 (sqrt(p0) W sqrt(p1)) U1^dag, so its trace norm
    is the sum of singular values of the bracket.
    """
    bracket = np.sqrt(rho0.probs)[:, None] * _overlap_matrix(rho0, rho1) * np.sqrt(rho1.probs)
    singular = np.linalg.svd(bracket, compute_uv=False)
    return float(np.sum(singular) ** 2)


def oracle_s_overlap(rho0: FockDensity, rho1: FockDensity, s: float) -> float:
    """Tr[rho0^s rho1^(1-s)] = sum_jk p0_j^s |W_jk|^2 p1_k^(1-s).

    0^0 = 1 keeps rho^0 the identity on the truncated space.
    """
    if not 0.0 <= (s := real("s", s)) <= 1.0:
        raise InvalidParameterError(f"s must be in [0, 1], got {s}")
    weights = np.abs(_overlap_matrix(rho0, rho1)) ** 2
    return float(np.power(rho0.probs, s) @ weights @ np.power(rho1.probs, 1.0 - s))
