"""Single-mode Gaussian states in shot-noise units.

Conventions used throughout the package:

* the vacuum covariance matrix is the 2x2 identity, so a thermal state with
  occupation n_th has sigma = (2*n_th + 1) * I and a squeezed vacuum has
  sigma = diag(exp(-2r), exp(2r));
* the mean vector stores mu = sqrt(2) * (Re alpha, Im alpha), so a coherent
  amplitude alpha carries N_disp = |alpha|^2 = |mu|^2 / 2 photons;
* mean photon number bookkeeping: N = (tr(sigma) - 2) / 4 + |mu|^2 / 2.

The squeezed (low-variance) quadrature is fixed to the first axis; the
displacement direction is controlled by a phase angle and defaults to that
same axis, which is the configuration that maximises the homodyne SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InvalidParameterError, real

DET_TOLERANCE = 1e-12
N_TOT_MAX = 1e20  # largest n_tot of a ProbeBudget; its docstring gives the reason
# Largest thermal occupation, the range on which every w2_score is checked finite.  It is
# not a numerical edge: the overlap scores, taken in the thermal exponent, stay finite up
# to n_th of about 1e76; at 1e77 the Bures term's det sigma0 det sigma1 overflows first.
N_TH_MAX = 1e8


def _occupation(name: str, value) -> float:
    """``value`` as a float if it is a real thermal occupation in [0, ``N_TH_MAX``]."""
    if not 0.0 <= (value := real(name, value)) <= N_TH_MAX:
        raise InvalidParameterError(f"{name} must be in [0, {N_TH_MAX:g}], got {value}")
    return value


@dataclass(frozen=True)
class GaussianState:
    """First moment vector and 2x2 quadrature covariance of one bosonic mode.

    Construction is the one check of a covariance: shape, finiteness and
    symmetry to 1e-12 of its largest entry; then sigma is symmetrised and both
    arrays are frozen.  Physics (positivity, uncertainty relation) is left to
    :func:`validate` so that deliberately unphysical matrices can be inspected.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.shape != (2,):
            raise InvalidParameterError(f"mu must be a 2-vector, got shape {mu.shape}")
        if sigma.shape != (2, 2):
            raise InvalidParameterError(f"sigma must be 2x2, got shape {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidParameterError("state moments must be finite")
        if abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * np.max(np.abs(sigma)):
            raise InvalidParameterError(f"sigma must be symmetric, got {sigma.tolist()}")
        sigma = 0.5 * (sigma + sigma.T)
        mu = mu.copy()
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def from_moments(cls, m) -> "GaussianState":
        """State from kernel moments (mu_q, mu_p, sigma_qq, sigma_qp, sigma_pp)."""
        mq, mp, sqq, sqp, spp = m
        return cls([mq, mp], [[sqq, sqp], [sqp, spp]])

    @property
    def moments(self) -> tuple:
        """Components (mu_q, mu_p, sigma_qq, sigma_qp, sigma_pp) for :mod:`qlidar.kernel`."""
        return self.mu[0], self.mu[1], self.sigma[0, 0], self.sigma[0, 1], self.sigma[1, 1]

    @property
    def photon_number(self) -> float:
        """Mean photon number (tr(sigma) - 2) / 4 + |mu|^2 / 2."""
        return (np.trace(self.sigma) - 2.0) / 4.0 + 0.5 * float(self.mu @ self.mu)


def validate(state: GaussianState, name: str = "state") -> None:
    """Raise :class:`InvalidParameterError`, naming the state ``name``, unless
    sigma is positive definite with det(sigma) >= 1.

    The determinant bound is the single-mode uncertainty relation in the
    vacuum-variance-1 convention.  Its slack is the larger of ``DET_TOLERANCE``,
    for undershoot from channel arithmetic, and the rounding bound
    :func:`qlidar.kernel.det_rounding` of the determinant itself, which
    grows with the squeezing.
    """
    s = state.sigma
    det = kernel.det(s[0, 0], s[0, 1], s[1, 1])
    tr = s[0, 0] + s[1, 1]
    if not (det > 0.0 and tr > 0.0):
        reason = f"sigma is not positive definite (det={det:g}, tr={tr:g})"
    elif det < 1.0 - max(DET_TOLERANCE, kernel.det_rounding(s[0, 0], s[0, 1], s[1, 1])):
        reason = f"det(sigma)={det:.15g} violates the uncertainty bound det >= 1"
    else:
        return
    raise InvalidParameterError(f"{name} is unphysical: {reason}")


@dataclass(frozen=True)
class ProbeBudget:
    """Total photon budget and its split between squeezing and displacement.

    ``lam`` is the squeezing fraction: N_sq = lam * n_tot photons go into the
    squeezed vacuum, N_disp = (1 - lam) * n_tot into the coherent
    displacement, with lam in [0, 1].  ``displacement_phase`` orients the
    displacement in phase space (0 aligns it with the squeezed quadrature).

    ``n_tot`` is at most ``N_TOT_MAX``, where every score of
    :func:`qlidar.allocation.w2_score` is checked finite for n_th up to 1e8 and the
    overlap against 50 digits.  It is not a numerical edge: the scores stay finite
    up to n_tot of about 1e153; at 1e154 the homodyne SNR d.sigma^-1 d of an
    undamped probe (eta = 1) overflows first.
    """

    n_tot: float
    lam: float
    displacement_phase: float = 0.0

    def __post_init__(self):
        for name in ("n_tot", "lam", "displacement_phase"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if not 0.0 <= self.n_tot <= N_TOT_MAX:
            raise InvalidParameterError(f"n_tot must be in [0, {N_TOT_MAX:g}], got {self.n_tot}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidParameterError(f"lam must be in [0, 1], got {self.lam}")


def squeezed_vacuum(r: float) -> GaussianState:
    """Squeezed vacuum with sigma = diag(exp(-2r), exp(2r)) and zero mean."""
    if (r := real("squeezing parameter", r)) < 0:
        raise InvalidParameterError(f"squeezing parameter must be >= 0, got {r}")
    return GaussianState(np.zeros(2), np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]))


def thermal_state(n_th: float) -> GaussianState:
    """Thermal state with sigma = (2*n_th + 1) * I and zero mean."""
    return GaussianState.from_moments(kernel.thermal(_occupation("thermal occupation", n_th)))


def probe_from_budget(budget: ProbeBudget) -> GaussianState:
    """Displaced squeezed vacuum realising the given photon budget.

    The returned state satisfies sinh^2(r) + |mu|^2 / 2 = n_tot: the budget is
    exhausted exactly between squeezing and displacement.
    """
    return GaussianState.from_moments(
        kernel.probe(budget.lam, budget.n_tot, budget.displacement_phase)
    )


def rotation_matrix(theta: float) -> np.ndarray:
    theta = real("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(state: GaussianState, theta: float) -> GaussianState:
    """Rotate a state in phase space: mu -> R mu, sigma -> R sigma R^T."""
    rot = rotation_matrix(theta)
    return GaussianState(rot @ state.mu, rot @ state.sigma @ rot.T)
