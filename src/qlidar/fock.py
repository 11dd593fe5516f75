"""Truncated Fock-space oracle for overlap metrics.

Builds displaced squeezed thermal states in a truncated number basis as
rho = U diag(p) U^dag, with U = D(beta) P(phi) S(r) and p the thermal
distribution, and evaluates fidelity and s-overlaps by dense linear algebra
on those factors.  This is the independent check for the Gaussian closed
forms in :mod:`qlidar.metrics`: nothing here shares code with those formulas
beyond the (mu, sigma) parametrisation itself.  The Williamson split of sigma
is this module's own closed-form 2x2 eigenpair, and rho^s = U diag(p^s) U^dag
is the functional calculus of any unitary U, not the Gaussian overlap formula.

U is built in real arithmetic from the structure of its generators.  The
displacement generator K_d = a^dag - a, and the squeeze generator
K_sq = (a^2 - a^dag^2) / 2 restricted to the even and to the odd levels, are
real, antisymmetric and tridiagonal, so each links only even positions to
odd ones.  With the SVD M = P diag(sigma) Q^T of its odd x even block,
exp(x K) is a set of plane rotations by the angles x sigma between the
columns of Q (even positions) and of P (odd positions).  The squeeze keeps
the level parity, so S and the phases are applied per parity block, and the
real displacement multiplies each block's float64 view.  U is unitary to
rounding and the factors are the exact eigendecomposition of the truncated
matrix as built: no density matrix is ever eigendecomposed, and no
eigenvalue needs clipping.  The overlap matrix W = U0^dag U1 is formed once
per pair and read by both oracles.

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


@dataclass(frozen=True, eq=False)
class FockDensity:
    """rho = unitary diag(probs) unitary^dag in the number basis, with truncation info.

    Compared and hashed by identity.  ``unitary`` and ``probs`` are made
    read-only, so the overlap matrix kept for the last pair cannot go stale.
    The truncation size is ``probs.size``.
    """

    unitary: np.ndarray
    probs: np.ndarray
    trace_deficit: float

    def __post_init__(self):
        self.unitary.flags.writeable = False
        self.probs.flags.writeable = False

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense density matrix, formed on first use."""
        return (self.unitary * self.probs) @ self.unitary.conj().T


def lowering_operator(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator a on the first ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@lru_cache(maxsize=4)
def _rotation_factors(cutoff: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Read-only (P, sigma, Q) of K_sq on the even levels, K_sq on the odd levels and K_d.

    K_sq = (a^2 - a^dag^2) / 2 and K_d = a^dag - a.  Each of the three is real,
    antisymmetric and tridiagonal, so its odd x even block M = P diag(sigma) Q^T
    determines it.  Few entries suffice: a cutoff-convergence check alternates
    cutoffs c and 1.5c.
    """
    a = lowering_operator(cutoff)
    squeeze = 0.5 * (a @ a - a.T @ a.T)
    factors = []
    for generator in (squeeze[0::2, 0::2], squeeze[1::2, 1::2], a.T - a):
        p, sigma, qt = np.linalg.svd(generator[1::2, 0::2], full_matrices=False)
        factors.append((p, sigma, qt.T))
    for array in (array for triple in factors for array in triple):
        array.flags.writeable = False
    return tuple(factors)


def _exp_generator(factors: tuple[np.ndarray, np.ndarray, np.ndarray], x: float) -> np.ndarray:
    """exp(x K) from the rotation factors (P, sigma, Q) of a tridiagonal generator K.

    Column j of Q, on the even positions, turns by the angle x sigma_j towards
    column j of P, on the odd positions; what Q and P do not span, the null
    space that odd sizes have, stays fixed.  cos - 1 = -2 sin^2(x sigma / 2), so
    x = 0 gives the identity exactly.
    """
    p, sigma, q = factors
    out = np.eye(len(p) + len(q))
    sin, cos_m1 = np.sin(x * sigma), -2.0 * np.sin(0.5 * x * sigma) ** 2
    out[0::2, 0::2] += (q * cos_m1) @ q.T
    out[1::2, 1::2] += (p * cos_m1) @ p.T
    out[1::2, 0::2] = (p * sin) @ q.T
    out[0::2, 1::2] = -out[1::2, 0::2].T
    return out


def _decompose(sigma: np.ndarray) -> tuple[float, float, float]:
    """Split sigma into thermal occupation, squeezing and rotation angle.

    sigma = (2 nbar + 1) R(phi) diag(e^-2r, e^2r) R(phi)^T with the minor axis
    of the uncertainty ellipse at angle phi.  The major-axis variance is
    (tr sigma) / 2 + hypot((sqq - spp) / 2, sqp) and the minor one det / major.
    """
    sqq, sqp, spp = float(sigma[0, 0]), float(sigma[0, 1]), float(sigma[1, 1])
    det = sqq * spp - sqp * sqp
    major = 0.5 * (sqq + spp) + math.hypot(0.5 * (sqq - spp), sqp)
    nbar = 0.5 * (max(1.0, math.sqrt(det)) - 1.0)
    r = 0.25 * math.log(major * major / det)
    phi = 0.5 * math.atan2(-2.0 * sqp, spp - sqq)
    return nbar, r, phi


def build_state(state: GaussianState, cutoff: int) -> FockDensity:
    """Factor rho = D P S rho_thermal S^dag P^dag D^dag in a truncated basis.

    Returns U = D(beta) P(phi) S(r) and the truncated thermal populations
    p_n = nbar^n / (nbar + 1)^(n + 1).  S(r) = exp(r K_sq) is one rotation
    per level parity.  The phase-space rotation and the direction arg(beta)
    are diagonal phases: P a P^dag = e^(-i theta) a for P = diag(e^(i theta n)),
    so D(beta) = T exp(|beta| K_d) T^dag with T = diag(e^(i arg(beta) n)), and
    the real exp(|beta| K_d) multiplies each parity block of T^dag P S on
    the block's float64 view.
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
    *squeeze, displace = _rotation_factors(cutoff)
    beta = (state.mu[0] + 1j * state.mu[1]) / math.sqrt(2.0)
    turn = np.exp(1j * np.angle(beta) * levels)
    shift = _exp_generator(displace, abs(beta))
    phase = np.exp(1j * phi * levels) * np.conj(turn)
    unitary = np.empty((cutoff, cutoff), dtype=complex)
    for par, factors in zip((slice(0, None, 2), slice(1, None, 2)), squeeze):
        block = phase[par, None] * _exp_generator(factors, r)
        unitary[:, par] = (shift[:, par] @ block.view(np.float64)).view(np.complex128)
    unitary *= turn[:, None]
    return FockDensity(unitary=unitary, probs=probs, trace_deficit=deficit)


@lru_cache(maxsize=1)
def _overlap_matrix(rho0: FockDensity, rho1: FockDensity) -> np.ndarray:
    """W = U0^dag U1, the eigenvectors of rho1 in the eigenbasis of rho0.

    Read-only and kept for the last pair, so the fidelity and the s-overlap
    of one pair share one product.
    """
    if rho0.probs.size != rho1.probs.size:
        raise InvalidParameterError(f"dimension mismatch: {rho0.probs.size} vs {rho1.probs.size}")
    overlap = rho0.unitary.conj().T @ rho1.unitary
    overlap.flags.writeable = False
    return overlap


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
