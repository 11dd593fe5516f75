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
eigenvalue needs clipping.

Both oracles read the overlap matrix W = U0^dag U1 weighted by a0 = p0^s on
its rows and a1 = p1^(1-s) on its columns; the fidelity's weights are
sqrt(p), s = 1/2.  Each side keeps only its significant levels, the shortest
prefix k whose dropped weight tail sums to at most 2^-60, so W is formed as
U0[:, :k0]^dag U1[:, :k1] for each call, and nothing is kept between calls.
This is exact to rounding.  Deleting rows or columns never raises a singular
value (interlacing: Horn & Johnson, Topics in Matrix Analysis, 1991, section
3.1), and the trace norm of the deleted part is at most the sum of its row
(or column) norms.  Rows and columns of W have unit norm to 1e-12 and every
weight is at most 1, so the trace norm, and the sum of a0 |W|^2 a1, each
move by at most 2 * 2^-60.  The fidelity cuts its block B = a0 W a1 once more
before the svd, by the same rule on B's trailing row norms and then on the
remaining column norms, so its trace norm moves by at most 4 * 2^-60 in all
(F, its square, by at most twice that).  U itself stays the full factor: at s
near 0, p^s lifts the thermal tail and nearly every level counts, so a state
built on its significant columns only would depend on s.

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
from functools import lru_cache

import numpy as np

from .errors import CutoffTooSmallError, InvalidParameterError, integer, real
from .states import GaussianState, validate

TRACE_BUDGET_DEFAULT = 1e-8
# a pair built and run through both oracles at 4000 peaked at 1036 MB RSS (2 vCPUs, 25 s):
# about 63 B per cutoff^2 of dense factors over a 38 MB base (38 MB at 300, 283 MB at 2000)
MAX_CUTOFF = 4000
_TAIL = 2.0**-60  # weight tail an oracle may drop (see the module notes)


@dataclass(frozen=True, eq=False)
class FockDensity:
    """rho = unitary diag(probs) unitary^dag in the number basis, with truncation info.

    Compared and hashed by identity.  The truncation size is ``probs.size``.
    """

    unitary: np.ndarray
    probs: np.ndarray
    trace_deficit: float


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
    Before any matrix is formed, a cutoff above ``MAX_CUTOFF`` raises
    :class:`InvalidParameterError`, and :class:`CutoffTooSmallError` is raised
    when the thermal tail beyond the cutoff, 1 - sum p = (nbar / (nbar + 1))^cutoff,
    exceeds ``TRACE_BUDGET_DEFAULT``, suggesting min(1.5 cutoff, ``MAX_CUTOFF``) or, if
    the tail is over budget at the cap, the cutoff it needs.  U stays unitary under
    truncation, so it loses no trace; convergence in the cutoff catches its truncation.
    """
    validate(state)
    cutoff = integer("cutoff", cutoff, 2, MAX_CUTOFF)
    nbar, r, phi = _decompose(state.sigma)
    ratio = nbar / (nbar + 1.0)
    deficit = ratio**cutoff
    if deficit > TRACE_BUDGET_DEFAULT:
        if ratio**MAX_CUTOFF <= TRACE_BUDGET_DEFAULT:
            needed = min(math.ceil(1.5 * cutoff), MAX_CUTOFF)
        else:  # above the cap, so an escalating caller ends on the cap's error
            needed = max(math.ceil(math.log(TRACE_BUDGET_DEFAULT) / math.log(ratio)),
                         MAX_CUTOFF + 1)
        raise CutoffTooSmallError(deficit, TRACE_BUDGET_DEFAULT, needed, MAX_CUTOFF)

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


def _significant(weights: np.ndarray) -> int:
    """Shortest prefix length k >= 1 of ``weights`` whose dropped tail sums to at most 2^-60.

    The tail sums are a suffix cumulative sum, which never increases along
    the levels for non-negative weights, so any such weights will do, not
    only decreasing ones.
    """
    tails = np.cumsum(weights[::-1])[::-1]
    return max(1, int(np.count_nonzero(tails > _TAIL)))


def _weighted_block(rho0: FockDensity, rho1: FockDensity, a0: np.ndarray, a1: np.ndarray):
    """The significant levels' weights a0[:k0], a1[:k1] and W = U0[:, :k0]^dag U1[:, :k1].

    Entry (j, k) of W is the overlap of eigenvector j of rho0 with eigenvector
    k of rho1.
    """
    if rho0.probs.size != rho1.probs.size:
        raise InvalidParameterError(f"dimension mismatch: {rho0.probs.size} vs {rho1.probs.size}")
    k0, k1 = _significant(a0), _significant(a1)
    return a0[:k0], rho0.unitary[:, :k0].conj().T @ rho1.unitary[:, :k1], a1[:k1]


def oracle_fidelity(rho0: FockDensity, rho1: FockDensity) -> float:
    """Uhlmann fidelity (tr |sqrt(rho0) sqrt(rho1)|)^2 by brute force.

    sqrt(rho0) sqrt(rho1) = U0 (sqrt(p0) W sqrt(p1)) U1^dag, so its trace norm
    is the sum of singular values of the bracket B.  The svd runs on a block
    cut twice: first to the leading levels of sqrt(p0) and sqrt(p1) whose
    dropped tails sum to at most 2^-60, then to the leading rows of B, and
    of what is left the leading columns, whose dropped norms sum to at most
    2^-60.  Deleting rows and columns never raises a singular value, so by
    the module notes' interlacing argument the trace norm drops by at most
    4 * 2^-60 and F by at most twice that.
    """
    a0, overlap, a1 = _weighted_block(rho0, rho1, np.sqrt(rho0.probs), np.sqrt(rho1.probs))
    bracket = a0[:, None] * overlap * a1
    bracket = bracket[:_significant(np.linalg.norm(bracket, axis=1))]
    bracket = bracket[:, :_significant(np.linalg.norm(bracket, axis=0))]
    return float(np.sum(np.linalg.svd(bracket, compute_uv=False)) ** 2)


def oracle_s_overlap(rho0: FockDensity, rho1: FockDensity, s: float) -> float:
    """Tr[rho0^s rho1^(1-s)] = sum_jk p0_j^s |W_jk|^2 p1_k^(1-s).

    0^0 = 1 keeps rho^0 the identity on the truncated space, where every
    level is significant.  The sum runs over the significant block only: the
    leading levels of p0^s and p1^(1-s) whose dropped tails sum to at most
    2^-60.  Rows and columns of W have unit norm and the weights are at most
    1, so the sum drops by at most 2 * 2^-60 (module notes).  U0 and U1 stay
    full, since the block depends on s.
    """
    if not 0.0 <= (s := real("s", s)) <= 1.0:
        raise InvalidParameterError(f"s must be in [0, 1], got {s}")
    a0, overlap, a1 = _weighted_block(rho0, rho1, rho0.probs**s, rho1.probs ** (1.0 - s))
    return float(a0 @ np.abs(overlap) ** 2 @ a1)
