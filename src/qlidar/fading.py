"""Monte-Carlo simulation of a turbulent fading channel.

Transmissivity fluctuates as a Beta(alpha, beta) variate, drawn per
realization from an independent counter-keyed Philox stream so that any
execution order (serial, chunked, parallel) reproduces the same ensemble
bit for bit.  Realization i uses numpy's ``SeedSequence(seed,
spawn_key=(i,))`` Philox key with counter 0; the keys of a block of
indices are derived in one array call, and so are, with numpy's own
bits, the many draws that need only the first Philox block of their
stream.  Each realization is pushed
through the lossy channel and scored against the thermal background; the
mixed fading state itself is never materialised, only its
per-realization statistics.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import kernel
from .errors import InvalidParameterError, NumericalError, integer, real
from .states import DEFAULT_SEED, FadingConfig

_BLOCK = 16384  # realizations per kernel call, for every worker count

# numpy SeedSequence constants: hashmix multiplier chain A, generate_state chain B
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


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


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products a * b, from 32-bit limbs."""
    a_lo, a_hi = np.uint64(a & _MASK), np.uint64(a >> 32)
    b_lo, b_hi = b & _MASK, b >> 32
    u = a_hi * b_lo + (a_lo * b_lo >> 32)
    v = a_lo * b_hi + (u & _MASK)
    return a_hi * b_hi + (u >> 32) + (v >> 32), np.uint64(a) * b


def _philox_block(keys: np.ndarray) -> np.ndarray:
    """First Philox4x64-10 output block, counter (1, 0, 0, 0), of each key row: shape (n, 4)."""
    k0, k1 = keys[:, 0], keys[:, 1]
    c0, c1, c2, c3 = np.ones_like(k0), np.zeros_like(k0), np.zeros_like(k0), np.zeros_like(k0)
    for _ in range(10):
        (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], c0), _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    return np.stack([c0, c1, c2, c3], axis=1)


def _gamma_loop(alpha: float, beta: float, keys: np.ndarray) -> list[float]:
    """Beta draw of each key row, the definition of the draw: ``Generator.gamma`` on one
    generator reset to each key (counter 0, empty buffer) from a state dict of Python
    ints, whose words the state setter reads far faster than a numpy array's."""
    gamma = np.random.Generator(bitgen := np.random.Philox(0)).gamma
    zeros = (0, 0, 0, 0)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": zeros},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    etas = []
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        while True:
            x, y = gamma(alpha), gamma(beta)
            eta = x / (x + y) if x + y > 0.0 else 0.0
            if 0.0 < eta < 1.0:
                break
        etas.append(eta)
    return etas


def _fast_eta(alpha: float, beta: float, keys: np.ndarray, wi, ki):
    """Beta draw of each key row from its first Philox block, and where it is sure: per Gamma
    variate, numpy's ziggurat normal and Marsaglia-Tsang step, its C code's operations in order."""
    words, ok, gammas = _philox_block(keys).T, True, []
    with np.errstate(divide="ignore", invalid="ignore"):
        for shape, normal_word, uniform_word in ((alpha, *words[:2]), (beta, *words[2:])):
            idx = (normal_word & 0xFF).astype(np.intp)
            rabs = normal_word >> 9 & 0xFFFFFFFFFFFFF
            x = rabs.astype(np.float64) * wi[idx]
            x = np.where(normal_word & 0x100 != 0, -x, x)
            b = shape - 1.0 / 3.0
            v = 1.0 + 1.0 / math.sqrt(9 * b) * x
            ok = ok & (rabs < ki[idx]) & (v > 0.0)
            v = v * v * v
            u = (uniform_word >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
            log_u, log_v = np.log(u), np.log(v)
            # the log test only by a margin far above an ulp of log, which may differ from libm's
            margin = 1e-9 * (np.abs(log_u) + 0.5 * x * x + b * (np.abs(1.0 - v) + np.abs(log_v)))
            ok &= log_u < 0.5 * x * x + b * (1.0 - v + log_v) - margin
            gammas.append(b * v)
        eta = gammas[0] / (gammas[0] + gammas[1])
    return eta, ok & (eta > 0.0) & (eta < 1.0)


@functools.lru_cache(maxsize=None)
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat widths ``wi``, each the ``standard_normal()`` of a buffered word with
    rabs = 1 (layer 1, never fast, accepts it on the zero word after it), and lower bounds
    floor(2^52 wi[i-1] / wi[i]) - 4 of its fast limits ``ki`` (wi[255] for i = 0, 0 for layer 1).
    The fast path is checked once against the loop, so that a changed numpy fails loudly."""
    normal = np.random.Generator(bitgen := np.random.Philox(0)).standard_normal
    state = bitgen.state
    wi = np.empty(256)
    for idx in range(256):
        state["buffer"], state["buffer_pos"] = ((1 << 9) | idx, 0, 0, 0), 0
        bitgen.state = state
        wi[idx] = normal()
    ki = (np.floor(2.0**52 * np.roll(wi, 1) / wi) - 4.0).astype(np.uint64)
    ki[1] = 0
    keys = _philox_keys(DEFAULT_SEED, np.arange(512))
    for alpha, beta in ((1.000001, 60.0), (2.0, 3.0)):
        eta, ok = _fast_eta(alpha, beta, keys, wi, ki)
        if not np.array_equal(eta[ok], _gamma_loop(alpha, beta, keys[ok])):
            raise NumericalError(f"numpy {np.__version__} draws Gamma variates differently "
                                 "from the vectorised Philox fast path")
    return wi, ki


def sample_eta(config: FadingConfig, index):
    """Beta(alpha, beta) transmissivity for realization ``index``.

    An int index gives a float, an array of indices an array of that shape.
    Each index draws exactly what ``Generator(Philox(SeedSequence(seed,
    spawn_key=(index,))))`` would: X / (X + Y) with two Gamma variates.  With
    both shapes > 1, the first Philox block of every key is taken as uint64
    arrays, and numpy's Gamma method runs on its four words as float64 arrays
    in its C code's order.  The indices those words do not settle (a slow
    ziggurat layer, V <= 0, a log test within its margin, a boundary hit;
    3-8% at shapes (1 + 1e-9, 40) to (7.3, 1e3)), and all when a shape is
    <= 1, go through :func:`_gamma_loop`.  Boundary hits (measure zero) and the 0/0 of two
    Gamma draws that both underflow are redrawn from the same stream.
    """
    indices = np.asarray(index)
    if indices.dtype.kind not in "iu" or np.any((indices < 0) | (indices >= 2**32)):
        raise InvalidParameterError("realization indices must be integers in [0, 2**32)")
    keys = _philox_keys(config.seed, indices.ravel())
    alpha, beta = config.alpha, config.beta
    if alpha > 1.0 and beta > 1.0:
        etas, ok = _fast_eta(alpha, beta, keys, *_ziggurat())
        etas[~ok] = _gamma_loop(alpha, beta, keys[~ok])
    else:
        etas = np.array(_gamma_loop(alpha, beta, keys))
    return float(etas[0]) if indices.ndim == 0 else etas.reshape(indices.shape)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Density histogram, Freedman-Diaconis bin widths; compared by identity."""

    edges: np.ndarray
    density: np.ndarray


def _quantiles(ordered: np.ndarray, q) -> np.ndarray:
    """Quantiles ``q`` of the ascending array ``ordered`` by numpy's default "linear"
    rule, method 7 of Hyndman & Fan, "Sample Quantiles in Statistical Packages",
    Am. Stat. 50 (1996), with ``np.quantile``'s own operations in its order: the
    result is ``np.quantile`` of any ordering of the values, bit for bit, except that
    a zero result may take either sign where the values hold zeros of both signs.
    It skips numpy's partition and per-call set-up, most of its cost at 5000 values."""
    n = ordered.size
    virtual = (n - 1) * np.asarray(q, dtype=np.float64)
    top = virtual >= n - 1  # at or past the last value: both neighbours are that value
    below = np.where(top, -1.0, np.floor(virtual))
    t = virtual - below
    below = below.astype(np.intp)
    a, b = ordered[below], ordered[np.where(top, -1, below + 1)]
    diff = b - a
    lerp = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    return np.full_like(lerp, ordered[-1]) if np.isnan(ordered[-1]) else lerp


def _histogram(ordered: np.ndarray) -> Histogram:
    """Density histogram of the ascending array ``ordered``: Freedman-Diaconis bins
    from its quartiles, Sturges bins where its IQR is 0, and one unit bin around a
    single value; the bins and densities are those of any ordering of the values."""
    lo, hi = float(ordered[0]), float(ordered[-1])
    if hi == lo:
        edges = np.array([lo - 0.5, lo + 0.5])
    else:
        q25, q75 = _quantiles(ordered, (0.25, 0.75))
        iqr = q75 - q25
        if iqr > 0:
            width = 2.0 * iqr * ordered.size ** (-1.0 / 3.0)
            # capped: near-Bernoulli samples have a tiny IQR and a huge bin count
            nbins = min(ordered.size, max(1, int(math.ceil((hi - lo) / width))))
        else:
            nbins = max(1, int(math.ceil(math.log2(ordered.size) + 1)))
        edges = np.linspace(lo, hi, nbins + 1)
    density, edges = np.histogram(ordered, bins=edges, density=True)
    return Histogram(edges=edges, density=density)


@dataclass(frozen=True)
class FadingSummary:
    """Moments, dispersion ratios and correlation of the ensemble metrics."""

    mean_eta: float
    var_eta: float
    mean_w2_sq: float
    mean_xi_qbb: float
    cv_w2_sq: float
    cv_xi_qbb: float
    pearson_w2_eta: float
    iqr_over_median_w2_sq: float
    iqr_over_median_xi_qbb: float
    contrast_iqr_median: float  # W2 over xi IQR/median; NaN unless the xi one is > 0
    saturated_count: int


@dataclass(frozen=True, eq=False)
class FadingEnsemble:
    """Per-realization samples; every derived value is computed from them once.

    ``ordered`` holds each sample sorted ascending, keyed as ``histograms``;
    ``histograms``, ``summary`` and :func:`post_select` read their order
    statistics from it, so each sample is sorted once and only here.  Each sample
    is held as a read-only float copy of what the caller passed (an array, a view
    or a list), so no later write to the caller's data or the ensemble's can make
    a cached value stale; compared by identity.
    """

    etas: np.ndarray
    w2_sq: np.ndarray
    xi_qbb: np.ndarray

    def __post_init__(self):
        size = np.size(self.etas)
        for name in ("etas", "w2_sq", "xi_qbb"):  # a NaN is allowed: _quantiles finds it last
            sample = np.array(getattr(self, name), dtype=float)
            if sample.ndim != 1 or not 0 < sample.size == size:
                raise InvalidParameterError("samples must be nonempty, 1-d and of one length; "
                                            f"{name} has shape {sample.shape}")
            sample.flags.writeable = False
            object.__setattr__(self, name, sample)

    @functools.cached_property
    def ordered(self) -> dict[str, np.ndarray]:
        samples = {"eta": self.etas, "w2_sq": self.w2_sq, "xi_qbb": self.xi_qbb}
        return {k: np.sort(v) for k, v in samples.items()}

    @functools.cached_property
    def histograms(self) -> dict[str, Histogram]:
        return {k: _histogram(v) for k, v in self.ordered.items()}

    @functools.cached_property
    def summary(self) -> FadingSummary:
        etas, w2, xi = self.etas, self.w2_sq, self.xi_qbb
        var_eta, std_w2, std_xi = float(np.var(etas)), np.std(w2), np.std(xi)
        mean_w2, mean_xi = float(np.mean(w2)), float(np.mean(xi))
        if etas.size > 1 and std_w2 > 0 and var_eta > 0:
            pearson = float(np.corrcoef(w2, etas)[0, 1])
        else:
            pearson = math.nan
        iqr_w2 = _iqr_over_median(self.ordered["w2_sq"])
        iqr_xi = _iqr_over_median(self.ordered["xi_qbb"])
        return FadingSummary(
            mean_eta=float(np.mean(etas)),
            var_eta=var_eta,
            mean_w2_sq=mean_w2,
            mean_xi_qbb=mean_xi,
            cv_w2_sq=float(std_w2 / mean_w2) if mean_w2 != 0 else math.nan,
            cv_xi_qbb=float(std_xi / mean_xi) if mean_xi != 0 else math.nan,
            pearson_w2_eta=pearson,
            iqr_over_median_w2_sq=iqr_w2,
            iqr_over_median_xi_qbb=iqr_xi,
            contrast_iqr_median=iqr_w2 / iqr_xi if iqr_xi > 0.0 else math.nan,
            saturated_count=int(np.sum(xi >= kernel.XI_SATURATION_CAP)),
        )


def _eval_block(indices, config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    etas = sample_eta(config, indices)
    p = config.probe
    pair = kernel.lidar_pair(p.lam, p.n_tot, etas, config.n_th, phase=p.displacement_phase)
    disp, bures = kernel.w2_terms(*pair)
    xi = kernel.exponent(kernel.log_s_overlap(*pair, 0.5))
    return etas, disp + bures, xi


def _iqr_over_median(ordered: np.ndarray) -> float:
    """IQR over median of the ascending array ``ordered``, NaN at a zero median."""
    q25, q50, q75 = _quantiles(ordered, (0.25, 0.5, 0.75))
    return float((q75 - q25) / q50) if q50 != 0 else math.nan


def run_ensemble(config: FadingConfig, workers: int = 1) -> FadingEnsemble:
    """Draw the full ensemble and evaluate both metrics per realization.

    The realization indices are cut once into contiguous blocks of ``_BLOCK``,
    whatever ``workers`` and the CPU count are.  Each block draws its
    transmissivities from the per-index Philox streams, then scores all of them
    in one array call of the closed-form kernel, so no temporary grows with the
    run.  The run takes min(``workers``, usable CPUs, blocks) processes, as a pool
    may start every worker at once.  One loops over the blocks in this process;
    more map the same blocks over a process pool.  Either way each block's samples
    are written into place as they arrive.  The pool module is imported only then,
    and the pool pays only at large ensembles (see the README).  Deterministic for
    a fixed config: the per-index streams and elementwise scoring make the samples,
    and so every value the ensemble derives from them, independent of ``workers``
    and of the block size.
    """
    n = config.n_realizations
    blocks = [np.arange(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = min(integer("workers", workers, 1), cpus, len(blocks))
    samples = np.empty((3, n))
    if procs == 1:
        for block in blocks:
            samples[:, block] = _eval_block(block, config)
    else:
        from concurrent import futures

        with futures.ProcessPoolExecutor(max_workers=procs) as pool:
            for block, part in zip(blocks, pool.map(_eval_block, blocks, repeat(config))):
                samples[:, block] = part
    return FadingEnsemble(*samples)


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of metric-thresholded post-selection (lucky imaging)."""

    threshold: float
    n_selected: int
    efficiency: float
    mean_eta_selected: float
    degenerate: bool


def post_select(
    ensemble: FadingEnsemble, metric: str = "w2", quantile: float = 0.9
) -> SelectionReport:
    """Keep realizations whose metric reaches its empirical quantile.

    The threshold is the linear-method quantile of the ensemble's sorted copy
    of the metric, as ``np.quantile`` gives it.  Reports the mean true
    transmissivity of the kept set and the selection efficiency.  With
    all-equal metric values the selection is flagged degenerate and the full
    set is returned.  A metric that holds a NaN has no quantile and is rejected.
    """
    if (key := {"w2": "w2_sq", "qbb": "xi_qbb"}.get(metric)) is None:
        raise InvalidParameterError(f"unknown selection metric {metric!r}")
    if not 0.0 <= (quantile := real("quantile", quantile)) < 1.0:
        raise InvalidParameterError(f"quantile must be in [0, 1), got {quantile}")
    values, ordered = getattr(ensemble, key), ensemble.ordered[key]
    if math.isnan(ordered[-1]):  # a NaN sorts last, so this one look finds any
        raise InvalidParameterError(f"cannot select on {key}: it holds a NaN")
    degenerate = bool(ordered[-1] == ordered[0])
    threshold = float(ordered[0] if degenerate else _quantiles(ordered, quantile))
    mask = values >= threshold
    n_sel = int(np.sum(mask))
    return SelectionReport(
        threshold=threshold,
        n_selected=n_sel,
        efficiency=n_sel / values.size,
        mean_eta_selected=float(np.mean(ensemble.etas[mask])),
        degenerate=degenerate,
    )
