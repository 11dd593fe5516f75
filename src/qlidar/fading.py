"""Monte-Carlo simulation of a turbulent fading channel.

Transmissivity fluctuates as a Beta(alpha, beta) variate, drawn per
realization from an independent counter-keyed Philox stream so that any
execution order (serial, chunked, parallel) reproduces the same ensemble
bit for bit.  Realization i uses numpy's ``SeedSequence(seed,
spawn_key=(i,))`` Philox key with counter 0; the keys of a block of
indices are derived in one array call.  Each realization is pushed
through the lossy channel and scored against the thermal background; the
mixed fading state itself is never materialised, only its
per-realization statistics.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import InvalidParameterError, integer, real
from .states import ProbeBudget

DEFAULT_SEED = 20250614
MIN_SHAPE = 1e-3  # redraws grow steeply below: 1e4 draws take 0.2 s here, 12 s at 1e-4


@dataclass(frozen=True)
class FadingConfig:
    """Turbulence shape, realization count, seed and probe setup."""

    alpha: float = 2.0
    beta: float = 3.0
    n_realizations: int = 10_000
    seed: int = DEFAULT_SEED
    probe: ProbeBudget = field(default_factory=lambda: ProbeBudget(10.0, 0.5))
    n_th: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "n_th"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        integer("n_realizations", self.n_realizations, 1, 2**32)  # one uint32 spawn word each
        integer("seed", self.seed, 0)
        for name in ("alpha", "beta"):
            if (value := getattr(self, name)) < MIN_SHAPE:
                raise InvalidParameterError(f"{name} must be >= {MIN_SHAPE:g}, got {value}")
        if self.n_th < 0:
            raise InvalidParameterError(f"n_th must be >= 0, got {self.n_th}")


# numpy SeedSequence constants: hashmix multiplier chain A, generate_state chain B
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _philox_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Philox key of ``SeedSequence(seed, spawn_key=(i,))`` per uint32 index i, shape (n, 2).

    The pool of ``SeedSequence(seed)`` is shared by every index; the spawn
    word i is then hashed into each pool word and the pool is read out as
    ``generate_state(2, uint64)``, all as uint32 array arithmetic.  The hash
    constant has advanced once per earlier hashmix: 16 for the pool plus 4
    per seed word beyond the fourth.
    """
    spawn = indices.astype(np.uint32)
    n_words = max(1, -(-int(seed).bit_length() // 32))
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, n_words - 4), 1 << 32) & _MASK
    hash_b = _INIT_B
    words = np.empty((spawn.size, 4), dtype="<u4")
    for j, word in enumerate(np.random.SeedSequence(seed).pool.tolist()):
        mixin = (spawn ^ hash_a) * (hash_a := hash_a * _MULT_A & _MASK)  # hashmix(i)
        mixin ^= mixin >> 16
        mixed = (_MIX_L * word & _MASK) - _MIX_R * mixin  # mix(pool word, hashmix(i))
        mixed ^= mixed >> 16
        state = (mixed ^ hash_b) * (hash_b := hash_b * _MULT_B & _MASK)  # generate_state
        words[:, j] = state ^ (state >> 16)
    # little-endian word pairs, as numpy reads generate_state(2, uint64)
    return words.view("<u8").astype(np.uint64, copy=False)


def sample_eta(config: FadingConfig, index):
    """Beta(alpha, beta) transmissivity for realization ``index``.

    An int index gives a float, an array of indices an array of that shape.
    Each index draws exactly what
    ``Generator(Philox(SeedSequence(seed, spawn_key=(index,))))`` would:
    the keys of all indices come from one ``_philox_keys`` call, and one
    bit generator is reset to each key with counter 0 in turn.  Sampled as
    X / (X + Y) with two Gamma variates, which is exact for all shape
    parameters.  The open interval (0, 1) is enforced by redrawing the
    (measure-zero) boundary hits from the same stream, and so is the 0/0 of
    two Gamma draws that both underflow to 0 at small shapes.
    """
    indices = np.asarray(index)
    if indices.dtype.kind not in "iu" or np.any((indices < 0) | (indices >= 2**32)):
        raise InvalidParameterError("realization indices must be integers in [0, 2**32)")
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
    etas = np.empty(indices.size)
    for n, key in enumerate(_philox_keys(config.seed, indices.ravel())):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        while True:
            x = rng.gamma(config.alpha)
            y = rng.gamma(config.beta)
            eta = x / (x + y) if x + y > 0.0 else 0.0
            if 0.0 < eta < 1.0:
                break
        etas[n] = eta
    return float(etas[0]) if indices.ndim == 0 else etas.reshape(indices.shape)


@dataclass(frozen=True)
class Histogram:
    """Density histogram; bin widths follow the Freedman-Diaconis rule."""

    edges: np.ndarray
    density: np.ndarray


def _histogram(values: np.ndarray) -> Histogram:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        edges = np.array([lo - 0.5, lo + 0.5])
    else:
        q25, q75 = np.percentile(values, [25.0, 75.0])
        iqr = q75 - q25
        if iqr > 0:
            width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
            # capped: near-Bernoulli samples have a tiny IQR and a huge bin count
            nbins = min(values.size, max(1, int(math.ceil((hi - lo) / width))))
        else:
            nbins = max(1, int(math.ceil(math.log2(values.size) + 1)))
        edges = np.linspace(lo, hi, nbins + 1)
    density, edges = np.histogram(values, bins=edges, density=True)
    return Histogram(edges=edges, density=density)


@dataclass(frozen=True)
class FadingSummary:
    """Moments, dispersion ratios and correlation of the ensemble metrics."""

    mean_eta: float
    var_eta: float
    mean_w2_sq: float
    var_w2_sq: float
    cv_w2_sq: float
    mean_xi_qbb: float
    var_xi_qbb: float
    cv_xi_qbb: float
    pearson_w2_eta: float
    iqr_over_median_w2_sq: float
    iqr_over_median_xi_qbb: float
    saturated_count: int


@dataclass(frozen=True)
class FadingEnsemble:
    """Per-realization samples plus summary statistics and histograms."""

    config: FadingConfig
    etas: np.ndarray
    w2_sq: np.ndarray
    xi_qbb: np.ndarray
    summary: FadingSummary
    histograms: dict[str, Histogram]


def _eval_block(indices, config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    etas = sample_eta(config, indices)
    p = config.probe
    out = kernel.channel(kernel.probe(p.lam, p.n_tot, p.displacement_phase), etas, config.n_th)
    background = kernel.thermal(config.n_th)
    disp, bures = kernel.w2_terms(background, out)
    xi = kernel.exponent(kernel.log_s_overlap(background, out, 0.5))
    return etas, disp + bures, xi


def _iqr_over_median(values: np.ndarray) -> float:
    q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    return float((q75 - q25) / q50) if q50 != 0 else math.nan


def run_ensemble(config: FadingConfig, workers: int = 1) -> FadingEnsemble:
    """Draw the full ensemble and evaluate both metrics per realization.

    Each block of realization indices draws its transmissivities from the
    per-index Philox streams, then scores all of them in one array call of
    the closed-form kernel.  With ``workers`` > 1 contiguous index blocks go
    to a process pool, since the per-index Philox reset holds the GIL, and
    are joined in index order.  Deterministic for a fixed config: the
    per-index streams and elementwise scoring make the result independent
    of ``workers`` and of the blocks.
    """
    n = config.n_realizations
    workers = integer("workers", workers, 1)
    etas, w2, xi = kernel.map_blocks(_eval_block, np.arange(n), workers, ProcessPoolExecutor,
                                     config)

    saturated = int(np.sum(xi >= kernel.XI_SATURATION_CAP))
    if n > 1 and np.std(w2) > 0 and np.std(etas) > 0:
        pearson = float(np.corrcoef(w2, etas)[0, 1])
    else:
        pearson = math.nan
    summary = FadingSummary(
        mean_eta=float(np.mean(etas)),
        var_eta=float(np.var(etas)),
        mean_w2_sq=float(np.mean(w2)),
        var_w2_sq=float(np.var(w2)),
        cv_w2_sq=float(np.std(w2) / np.mean(w2)) if np.mean(w2) != 0 else math.nan,
        mean_xi_qbb=float(np.mean(xi)),
        var_xi_qbb=float(np.var(xi)),
        cv_xi_qbb=float(np.std(xi) / np.mean(xi)) if np.mean(xi) != 0 else math.nan,
        pearson_w2_eta=pearson,
        iqr_over_median_w2_sq=_iqr_over_median(w2),
        iqr_over_median_xi_qbb=_iqr_over_median(xi),
        saturated_count=saturated,
    )
    histograms = {
        "eta": _histogram(etas),
        "w2_sq": _histogram(w2),
        "xi_qbb": _histogram(xi),
    }
    return FadingEnsemble(
        config=config, etas=etas, w2_sq=w2, xi_qbb=xi,
        summary=summary, histograms=histograms,
    )


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of metric-thresholded post-selection (lucky imaging)."""

    metric: str
    quantile: float
    threshold: float
    n_selected: int
    efficiency: float
    mean_eta_selected: float
    degenerate: bool


def post_select(
    ensemble: FadingEnsemble, metric: str = "w2", quantile: float = 0.9
) -> SelectionReport:
    """Keep realizations whose metric reaches its empirical quantile.

    Reports the mean true transmissivity of the kept set and the selection
    efficiency.  With all-equal metric values the selection is flagged
    degenerate and the full set is returned.
    """
    if metric == "w2":
        values = ensemble.w2_sq
    elif metric == "qbb":
        values = ensemble.xi_qbb
    else:
        raise InvalidParameterError(f"unknown selection metric {metric!r}")
    if not 0.0 <= (quantile := real("quantile", quantile)) < 1.0:
        raise InvalidParameterError(f"quantile must be in [0, 1), got {quantile}")
    degenerate = bool(values.max() == values.min())
    threshold = float(values.min()) if degenerate else float(np.quantile(values, quantile))
    mask = values >= threshold
    n_sel = int(np.sum(mask))
    return SelectionReport(
        metric=metric,
        quantile=quantile,
        threshold=threshold,
        n_selected=n_sel,
        efficiency=n_sel / values.size,
        mean_eta_selected=float(np.mean(ensemble.etas[mask])),
        degenerate=degenerate,
    )
