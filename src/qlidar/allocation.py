"""Resource allocation between displacement and squeezing.

Maps the Wasserstein detection score over the (transmissivity, squeezing
fraction) plane, grid-optimises the fraction, evaluates the analytic
quantum-advantage threshold, and reports perturbative-gradient diagnostics
at vanishing squeezing fraction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernel, metrics
from .channel import ChannelParams, apply_loss, effective_noise
from .errors import InvalidParameterError, UndefinedThresholdError, integer, real
from .states import ProbeBudget, probe_from_budget, thermal_state

FD_STEP = 1e-6
EMPIRICAL_GRID_STEP = 0.02


def _grid(stop: float, step: float) -> np.ndarray:
    if (step := real("grid step", step)) <= 0:
        raise InvalidParameterError(f"grid step must be > 0, got {step}")
    return np.linspace(0.0, stop, int(round(stop / step)) + 1)


def default_eta_grid(step: float = 0.01) -> np.ndarray:
    return _grid(1.0, step)


def default_lambda_grid(step: float = 0.01) -> np.ndarray:
    return _grid(0.95, step)  # the usual cap of allocation searches


def _no_electronic_noise(params: ChannelParams) -> None:
    if params.v_el > 0.0:  # rejected, not dropped: the scores model an ideal detector
        raise InvalidParameterError(f"v_el = {params.v_el} is not modelled here; fold it into "
                                    "n_th with effective_noise, or use eta_critical_effective")


def w2_score(lam: float, n_tot: float, params: ChannelParams) -> metrics.MetricReport:
    """Full metric report for the allocation (lam, n_tot) through the channel.

    Compares the channel output against the thermal background state, which
    is both the no-target hypothesis and the channel output at zero
    transmissivity.
    """
    _no_electronic_noise(params)
    # scoring may probe any fraction up to 1, independent of the search cap
    out = apply_loss(probe_from_budget(ProbeBudget(n_tot, lam)), params)
    return metrics.metric_report(out, thermal_state(params.n_th))


def _w2_terms(eta_eff, lambdas, n_tot: float, n_th: float):
    """(displacement, Bures) terms of W2^2 between the channel output of the
    probes ``lambdas`` and the thermal background; arguments broadcast."""
    out = kernel.channel(kernel.probe(lambdas, n_tot), eta_eff, n_th)
    return kernel.w2_terms(kernel.thermal(n_th), out)


def _ascending(values, name: str, check) -> np.ndarray:
    """A grid as a float array, checked once: nonempty, ``check`` passes at
    both extremes, so at every value (a NaN is both), and strictly ascending,
    which the first-maximiser tie rule and :func:`transition_eta` rely on."""
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError(f"{name} grid must be nonempty")
    for x in (grid.min(), grid.max()):
        check(x)
    if not np.all(np.diff(grid) > 0):
        raise InvalidParameterError(f"{name} grid must be strictly ascending")
    return grid


def _fractions(n_tot: float, lambdas) -> np.ndarray:
    """Squeezing fractions under the budget rules, as :func:`_ascending` checks them."""
    return _ascending(lambdas, "lambda", lambda lam: ProbeBudget(n_tot, lam))


def optimize_lambda(
    n_tot: float, params: ChannelParams, lambda_grid: np.ndarray
) -> tuple[float, float]:
    """Exhaustive grid search of the squeezing fraction.

    Ties break toward the smallest fraction (argmax returns the first
    maximiser of an ascending grid).
    """
    _no_electronic_noise(params)
    grid = _fractions(n_tot, lambda_grid)
    disp, bures = _w2_terms(params.eta_eff, grid, n_tot, params.n_th)
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
    contiguous row blocks go to a thread pool, since the kernel's ufuncs
    release the GIL, and are joined in index order; every cell is computed
    elementwise, so parallel and serial runs produce bit-identical arrays.
    """
    workers = integer("workers", workers, 1)
    etas = _ascending(default_eta_grid() if eta_grid is None else eta_grid, "eta",
                      lambda eta: ChannelParams(eta=eta, n_th=n_th, eta_det=eta_det))
    lambdas = _fractions(n_tot, default_lambda_grid() if lambda_grid is None else lambda_grid)
    eta_eff = etas[:, None] * eta_det
    disp, bures = kernel.map_blocks(_w2_terms, eta_eff, workers, ThreadPoolExecutor,
                                     lambdas, n_tot, n_th)
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
    if (n_tot := real("n_tot", n_tot)) <= 0:
        raise UndefinedThresholdError(f"threshold undefined for n_tot = {n_tot!r}")
    if (n_th := real("n_th", n_th)) < 0:
        raise InvalidParameterError(f"n_th must be >= 0, got {n_th}")
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


def _richardson_forward(f0: float, f1: float, f2: float) -> float:
    """Derivative at 0+ from f(0), f(h), f(2h) with h = ``FD_STEP``: centred
    differences at h and h/2, extrapolated."""
    d1 = (f2 - f0) / (2.0 * FD_STEP)
    d2 = (f1 - f0) / FD_STEP
    return 2.0 * d2 - d1


def gradient_diagnostics(n_tot: float, params: ChannelParams) -> GradientDiagnostics:
    """Gradient diagnostics of the score split at vanishing squeezing fraction.

    The finite differences step by ``FD_STEP``; the empirical transition is
    read off an allocation grid of step ``EMPIRICAL_GRID_STEP`` in eta and lambda.
    """
    _no_electronic_noise(params)
    if (n_tot := real("n_tot", n_tot)) <= 0:
        raise InvalidParameterError(f"n_tot must be > 0, got {n_tot}")
    eta = params.eta_eff
    t = 2.0 * params.n_th + 1.0
    d_disp = -2.0 * eta * n_tot
    d_cov_paper = (2.0 * eta**2 * n_tot / t) * (1.0 + n_tot / t)

    # one channel + metric evaluation per point feeds both slopes
    fractions = _fractions(n_tot, [0.0, FD_STEP, 2.0 * FD_STEP])
    disp, cov = _w2_terms(eta, fractions, n_tot, params.n_th)
    grid = allocation_grid(n_tot, params.n_th, default_eta_grid(EMPIRICAL_GRID_STEP),
                           default_lambda_grid(EMPIRICAL_GRID_STEP), eta_det=params.eta_det)
    found = transition_eta(grid)
    return GradientDiagnostics(
        d_disp_dlambda=d_disp,
        d_cov_dlambda_paper=d_cov_paper,
        d_disp_fd=_richardson_forward(*disp.tolist()),
        d_cov_fd=_richardson_forward(*cov.tolist()),
        eta_c_analytic=eta_critical(n_tot, params.n_th),
        eta_c_empirical=math.nan if found is None else found,
    )
