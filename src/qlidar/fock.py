"""Truncated Fock-space oracle for overlap metrics.

Builds explicit density matrices for displaced squeezed thermal states and
evaluates fidelity and s-overlaps by dense linear algebra.  This is the
independent check for the Gaussian closed forms in :mod:`qlidar.metrics`:
nothing here shares code with those formulas beyond the (mu, sigma)
parametrisation itself.

Generator spectra are taken once per cutoff, rotations are diagonal phases, and
each density matrix is eigendecomposed once for its PSD guard and overlaps.

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

from .errors import CutoffTooSmallError, InvalidParameterError, NumericalError
from .states import GaussianState, validate

TRACE_BUDGET_DEFAULT = 1e-8


@dataclass(frozen=True)
class FockDensity:
    """Dense Hermitian PSD matrix in the number basis, with truncation info."""

    dim: int
    matrix: np.ndarray
    trace_deficit: float

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of ``matrix``, taken once."""
        return np.linalg.eigh(self.matrix)


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


def build_state(
    state: GaussianState, cutoff: int, trace_budget: float = TRACE_BUDGET_DEFAULT
) -> FockDensity:
    """Construct rho = D S rho_thermal S^dag D^dag in a truncated basis.

    The squeezing and displacement operators are exponentials of the truncated
    generators r K_sq and |beta| K_d, taken from the spectra of i K that
    :func:`_generator_spectra` caches per cutoff.  The phase-space rotation
    and the direction arg(beta) of the displacement are diagonal phases in
    the number basis: P a P^dag = e^(-i theta) a for P = diag(e^(i theta n)).
    Raises :class:`CutoffTooSmallError` when truncation loses more trace than
    ``trace_budget``.  Truncated squeeze and displacement operators stay
    unitary, so the deficit sees only the thermal tail; convergence in the
    cutoff is what catches their truncation.
    """
    verdict = validate(state)
    if not verdict:
        raise InvalidParameterError(f"state is unphysical: {verdict.reason}")
    if cutoff < 2:
        raise InvalidParameterError(f"cutoff must be >= 2, got {cutoff}")
    nbar, r, phi = _decompose(state.sigma)
    levels = np.arange(cutoff)
    squeeze_spectrum, displace_spectrum = _generator_spectra(cutoff)

    if nbar > 0.0:
        probs = np.exp(levels * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))
    else:
        probs = np.zeros(cutoff)
        probs[0] = 1.0

    if r != 0.0:
        squeeze = _exp_generator(squeeze_spectrum, r)
        rho = (squeeze * probs) @ squeeze.T
    else:
        rho = np.diag(probs)

    rho = rho.astype(complex)
    if phi != 0.0:
        phase = np.exp(1j * phi * levels)
        rho = phase[:, None] * rho * np.conj(phase)[None, :]

    beta = (state.mu[0] + 1j * state.mu[1]) / math.sqrt(2.0)
    if beta != 0.0:
        phase = np.exp(1j * np.angle(beta) * levels)
        displace = phase[:, None] * _exp_generator(displace_spectrum, abs(beta)) * np.conj(phase)
        rho = displace @ rho @ displace.conj().T

    rho = 0.5 * (rho + rho.conj().T)
    deficit = max(0.0, 1.0 - float(np.trace(rho).real))
    if deficit > trace_budget:
        raise CutoffTooSmallError(deficit, trace_budget, int(math.ceil(1.5 * cutoff)))

    density = FockDensity(dim=cutoff, matrix=rho, trace_deficit=deficit)
    eigmin = float(density.spectrum[0][0])
    if eigmin < -1e-10:
        raise NumericalError(f"density matrix has eigenvalue {eigmin:.3e} < -1e-10")
    return density


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
    """rho^exponent from the clamped spectrum of rho."""
    w, u = rho.spectrum
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
