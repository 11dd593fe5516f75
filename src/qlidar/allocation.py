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

from . import kernel, metrics
from .channel import ChannelParams, apply_loss, effective_noise
from .errors import InvalidParameterError, UndefinedThresholdError
from .states import LAMBDA_MAX_DEFAULT, ProbeBudget, probe_from_budget, thermal_state


def _grid(stop: float, step: float) -> np.ndarray:
    if not (step > 0 and math.isfinite(step)):
        raise InvalidParameterError(f"grid step must be finite and > 0, got {step}")
    return np.linspace(0.0, stop, int(round(stop / step)) + 1)


def default_eta_grid(step: float = 0.01) -> np.ndarray:
    return _grid(1.0, step)


def default_lambda_grid(step: float = 0.01, lam_max: float = LAMBDA_MAX_DEFAULT) -> np.ndarray:
    return _grid(lam_max, step)


def w2_score(lam: float, n_tot: float, params: ChannelParams) -> metrics.MetricReport:
    """Full metric report for the allocation (lam, n_tot) through the channel.

    Compares the channel output against the thermal background state, which
    is both the no-target hypothesis and the channel output at zero
    transmissivity.
    """
    # scoring may probe any fraction up to 1, independent of the search cap
    out = apply_loss(probe_from_budget(ProbeBudget(n_tot, lam, lam_max=1.0)), params)
    return metrics.metric_report(out, thermal_state(params.n_th))


def _w2_terms(eta_eff, lambdas, n_tot: float, n_th: float):
    """(displacement, Bures) terms of W2^2 between the channel output of the
    probes ``lambdas`` and the thermal background; arguments broadcast."""
    out = kernel.channel(kernel.probe(lambdas, n_tot), eta_eff, n_th)
    return kernel.w2_terms(kernel.thermal(n_th), out)


def _fractions(n_tot: float, lambdas) -> np.ndarray:
    """Squeezing fractions, checked once per grid: the budget rules hold for
    every fraction when they hold for the extremes (a NaN is both)."""
    lams = np.asarray(lambdas, dtype=float)
    for lam in (lams.min(), lams.max()):
        ProbeBudget(n_tot, float(lam), lam_max=1.0)
    return lams


def optimize_lambda(
    n_tot: float, params: ChannelParams, lambda_grid: np.ndarray
) -> tuple[float, float]:
    """Exhaustive grid search of the squeezing fraction.

    Ties break toward the smallest fraction (argmax returns the first
    maximiser of an ascending grid).
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("lambda grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidParameterError("lambda grid must be strictly ascending")
    disp, bures = _w2_terms(params.eta_eff, _fractions(n_tot, grid), n_tot, params.n_th)
    scores = disp + bures
    idx = int(np.argmax(scores))
    return float(grid[idx]), float(scores[idx])


@dataclass(frozen=True)
class AllocationGrid:
    """Score map over (eta, lambda) with the per-eta optimal fraction."""

    n_tot: float
    n_th: float
    eta_grid: np.ndarray
    lambda_grid: np.ndarray
    scores: np.ndarray
    lambda_opt: np.ndarray


def allocation_grid(
    n_tot: float,
    n_th: float,
    eta_grid: np.ndarray | None = None,
    lambda_grid: np.ndarray | None = None,
    eta_det: float = 1.0,
    workers: int = 1,
) -> AllocationGrid:
    """Evaluate the Wasserstein score on the full (eta, lambda) grid.

    The parameters are validated once; each block of eta rows is then
    scored in one array call of the closed-form kernel.  With ``workers`` > 1
    contiguous row blocks go to a process pool and are joined in index order;
    every cell is computed elementwise, so parallel and serial runs produce
    bit-identical arrays.
    """
    etas = default_eta_grid() if eta_grid is None else np.asarray(eta_grid, dtype=float)
    lambdas = _fractions(n_tot, default_lambda_grid() if lambda_grid is None else lambda_grid)
    for eta in (etas.min(), etas.max()):
        ChannelParams(eta=float(eta), n_th=n_th, eta_det=eta_det)
    eta_eff = etas[:, None] * eta_det
    disp, bures = kernel.map_blocks(_w2_terms, eta_eff, workers, lambdas, n_tot, n_th)
    scores = disp + bures
    lambda_opt = lambdas[np.argmax(scores, axis=1)]
    return AllocationGrid(n_tot, n_th, etas, lambdas, scores, lambda_opt)


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

    Values above 1 mean no quantum regime at any transmissivity; callers are
    expected to flag them rather than clamp.
    """
    if not (isinstance(n_tot, (int, float)) and math.isfinite(n_tot)) or n_tot <= 0:
        raise UndefinedThresholdError(f"threshold undefined for n_tot = {n_tot!r}")
    if not (n_th >= 0 and math.isfinite(n_th)):
        raise InvalidParameterError(f"n_th must be finite and >= 0, got {n_th}")
    t = 2.0 * n_th + 1.0
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
    eta_c_analytic: float
    eta_c_empirical: float

    @property
    def cov_ratio(self) -> float:
        if self.d_cov_fd == 0.0:
            return math.nan
        return self.d_cov_dlambda_paper / self.d_cov_fd


def _richardson_forward(f0: float, f1: float, f2: float, h: float) -> float:
    """Derivative at 0+ from f(0), f(h), f(2h): centred differences at h and
    h/2, extrapolated."""
    d1 = (f2 - f0) / (2.0 * h)
    d2 = (f1 - f0) / h
    return 2.0 * d2 - d1


def gradient_diagnostics(
    n_tot: float,
    params: ChannelParams,
    h: float = 1e-6,
    eta_grid: np.ndarray | None = None,
    lambda_grid: np.ndarray | None = None,
    compute_empirical: bool = True,
) -> GradientDiagnostics:
    """Gradient diagnostics of the score split at vanishing squeezing fraction."""
    if n_tot <= 0:
        raise InvalidParameterError(f"n_tot must be > 0, got {n_tot}")
    eta = params.eta_eff
    t = 2.0 * params.n_th + 1.0
    d_disp = -2.0 * eta * n_tot
    d_cov_paper = (2.0 * eta**2 * n_tot / t) * (1.0 + n_tot / t)

    # one channel + metric evaluation per point feeds both slopes
    disp, cov = _w2_terms(eta, _fractions(n_tot, [0.0, h, 2.0 * h]), n_tot, params.n_th)
    d_disp_fd = _richardson_forward(*disp.tolist(), h)
    d_cov_fd = _richardson_forward(*cov.tolist(), h)

    eta_c = eta_critical(n_tot, params.n_th)
    empirical = math.nan
    if compute_empirical:
        etas = default_eta_grid(0.02) if eta_grid is None else eta_grid
        lambdas = default_lambda_grid(0.02) if lambda_grid is None else lambda_grid
        grid = allocation_grid(n_tot, params.n_th, etas, lambdas, eta_det=params.eta_det)
        found = transition_eta(grid)
        empirical = math.nan if found is None else found

    return GradientDiagnostics(
        d_disp_dlambda=d_disp,
        d_cov_dlambda_paper=d_cov_paper,
        d_disp_fd=d_disp_fd,
        d_cov_fd=d_cov_fd,
        eta_c_analytic=eta_c,
        eta_c_empirical=empirical,
    )
