"""Resource allocation between displacement and squeezing.

Maps the Wasserstein detection score over the (transmissivity, squeezing
fraction) plane, grid-optimises the fraction, evaluates the analytic
quantum-advantage threshold, and reports perturbative-gradient diagnostics
at vanishing squeezing fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .channel import ChannelParams, _no_electronic_noise, effective_noise
from .errors import InvalidParameterError, UndefinedThresholdError, ascending, real
from .states import ProbeBudget, _occupation

FD_STEP = 1e-6
# step 0.0005 on [0, 1]: a heatmap of that step peaked at 68 MB RSS (2 vCPUs), about
# 10 B per cell over a 30 MB base, so each halving of the step takes about 4x that
MAX_GRID_POINTS = 2001
_ROWS = 64  # eta rows per kernel call


def _grid(stop: float, step: float) -> np.ndarray:
    if (step := real("grid step", step)) <= 0:
        raise InvalidParameterError(f"grid step must be > 0, got {step}")
    # clamped first: round() of an infinite quotient raises OverflowError
    if (points := round(min(stop / step, MAX_GRID_POINTS)) + 1) > MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"grid step {step:g} gives more than {MAX_GRID_POINTS} points on [0, {stop:g}]")
    return np.linspace(0.0, stop, points)


def default_eta_grid(step: float) -> np.ndarray:
    return _grid(1.0, step)


def default_lambda_grid(step: float) -> np.ndarray:
    return _grid(0.95, step)  # the usual cap of allocation searches


@dataclass(frozen=True, eq=False)
class AllocationGrid:
    """Score map over (eta, lambda) with the per-eta optimal fraction; compared by identity."""

    eta_grid: np.ndarray
    lambda_grid: np.ndarray
    scores: np.ndarray
    lambda_opt: np.ndarray


def allocation_grid(
    n_tot: float,
    n_th: float,
    eta_grid: np.ndarray,
    lambda_grid: np.ndarray,
    eta_det: float = 1.0,
) -> AllocationGrid:
    """Evaluate the Wasserstein score on the full (eta, lambda) grid.

    The parameters are validated once; the preallocated score matrix is then
    filled ``_ROWS`` eta rows at a time, each block in one serial array call of
    the closed-form kernel, so no temporary grows with the grid.  Scoring is
    elementwise, so every cell is bit-identical to the scalar
    :func:`qlidar.metrics.w2_score` of its allocation.
    """
    etas = ascending("eta", eta_grid,
                     lambda eta: ChannelParams(eta=eta, n_th=n_th, eta_det=eta_det))
    lambdas = ascending("lambda", lambda_grid, lambda lam: ProbeBudget(n_tot, lam))
    scores = np.empty((etas.size, lambdas.size))
    for start in range(0, etas.size, _ROWS):
        rows = etas[start:start + _ROWS, None] * eta_det
        np.add(*kernel.w2_terms(*kernel.lidar_pair(lambdas, n_tot, rows, n_th)),
               out=scores[start:start + _ROWS])
    lambda_opt = lambdas[np.argmax(scores, axis=1)]
    return AllocationGrid(etas, lambdas, scores, lambda_opt)


def transition_eta(grid: AllocationGrid) -> float | None:
    """Smallest eta whose optimal fraction is meaningfully above zero.

    "Meaningfully" means above half a lambda grid step, which guards against
    floating-point plateau ties at lambda = 0.  Returns None when the quantum
    regime is never reached on the grid.
    """
    lambdas = grid.lambda_grid
    step = float(lambdas[1] - lambdas[0]) if lambdas.size > 1 else 0.0
    above = grid.lambda_opt > 0.5 * step
    if not np.any(above):
        return None
    return float(grid.eta_grid[int(np.argmax(above))])


def eta_critical(n_tot: float, n_th: float) -> float:
    """Analytic quantum-advantage threshold (2 n_th + 1) / (1 + N / (2 n_th + 1)).

    Values above 1, no quantum regime at any transmissivity, are for callers to flag,
    not clamp.  n_tot and n_th take the ranges of a ProbeBudget and a thermal occupation.
    """
    if (n_tot := ProbeBudget(n_tot, 0.0).n_tot) == 0.0:
        raise UndefinedThresholdError(f"threshold undefined for n_tot = {n_tot!r}")
    t = 2.0 * _occupation("n_th", n_th) + 1.0
    return t / (1.0 + n_tot / t)


def eta_critical_effective(n_tot: float, params: ChannelParams) -> float:
    """Threshold with detector imperfections substituted (n_th -> n_eff).

    The result is meant to be compared against the effective transmissivity
    ``params.eta_eff`` rather than the bare line transmissivity.
    """
    return eta_critical(n_tot, effective_noise(params))


@dataclass(frozen=True)
class GradientDiagnostics:
    """Analytic versus finite-difference gradients at lambda -> 0+.

    ``d_disp_dlambda`` is the exact -2 eta N slope of the displacement term.
    ``d_cov_dlambda_paper`` is the second-order perturbative estimate of the
    covariance-term slope; the finite-difference value ``d_cov_fd`` of the
    exact Bures term is the reference, and ``cov_ratio`` reports their
    discrepancy without gating it.
    """

    d_disp_dlambda: float
    d_cov_dlambda_paper: float
    d_disp_fd: float
    d_cov_fd: float

    @property
    def cov_ratio(self) -> float:
        if self.d_cov_fd == 0.0:
            return math.nan
        return self.d_cov_dlambda_paper / self.d_cov_fd


def _richardson_forward(f0: float, f1: float, f2: float) -> float:
    """Derivative at 0+ from f(0), f(h), f(2h) with h = ``FD_STEP``: centred
    differences at h and h/2, extrapolated."""
    d1 = (f2 - f0) / (2.0 * FD_STEP)
    d2 = (f1 - f0) / FD_STEP
    return 2.0 * d2 - d1


def gradient_diagnostics(n_tot: float, params: ChannelParams) -> GradientDiagnostics:
    """Gradient diagnostics of the score split at vanishing squeezing fraction.

    The finite differences step by ``FD_STEP``.  The transition these slopes
    locate is :func:`eta_critical` analytically and :func:`transition_eta` of an
    :func:`allocation_grid` empirically.
    """
    _no_electronic_noise(params)
    if (n_tot := ProbeBudget(n_tot, 0.0).n_tot) == 0.0:  # the fractions below pass its rules
        raise InvalidParameterError(f"n_tot must be > 0, got {n_tot}")
    eta = params.eta_eff
    t = 2.0 * params.n_th + 1.0
    d_disp = -2.0 * eta * n_tot
    d_cov_paper = (2.0 * eta**2 * n_tot / t) * (1.0 + n_tot / t)

    # one channel + metric evaluation per point feeds both slopes
    fractions = np.array([0.0, FD_STEP, 2.0 * FD_STEP])
    disp, cov = kernel.w2_terms(*kernel.lidar_pair(fractions, n_tot, eta, params.n_th))
    return GradientDiagnostics(
        d_disp_dlambda=d_disp,
        d_cov_dlambda_paper=d_cov_paper,
        d_disp_fd=_richardson_forward(*disp.tolist()),
        d_cov_fd=_richardson_forward(*cov.tolist()),
    )
