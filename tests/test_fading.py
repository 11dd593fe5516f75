import math
import warnings

import numpy as np
import pytest

from qlidar import fading, metrics
from qlidar.channel import ChannelParams, apply_loss
from qlidar.errors import InvalidParameterError
from qlidar.states import ProbeBudget, probe_from_budget, thermal_state

SMALL = fading.FadingConfig(n_realizations=2000, seed=99)

# seeds of 1, 2, 5 and 7 uint32 words and the largest uint32 spawn word
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**128, 2**200 + 99)
EDGE_INDICES = np.array([0, 1, 2, 4999, 2**31, 2**32 - 1])


def _reference_draw(config, index):
    """(eta, gamma pairs drawn, 0/0 pairs among them) from a Philox stream built
    per index, the contract."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(int(index),))))
    pairs = zero_pairs = 0
    while True:
        x = rng.gamma(config.alpha)
        y = rng.gamma(config.beta)
        pairs += 1
        if x == y == 0.0:
            zero_pairs += 1
            continue
        eta = x / (x + y)
        if 0.0 < eta < 1.0:
            return float(eta), pairs, zero_pairs


class TestSampleEta:
    def test_deterministic_per_index(self):
        config = fading.FadingConfig(seed=123)
        draws = [fading.sample_eta(config, 7) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        # order of evaluation is irrelevant
        forward = [fading.sample_eta(config, i) for i in range(10)]
        backward = [fading.sample_eta(config, i) for i in reversed(range(10))]
        assert forward == backward[::-1]

    def test_open_interval(self):
        config = fading.FadingConfig(seed=5)
        etas = [fading.sample_eta(config, i) for i in range(2000)]
        assert all(0.0 < e < 1.0 for e in etas)

    def test_uniform_special_case(self):
        config = fading.FadingConfig(alpha=1.0, beta=1.0, seed=31)
        draws = fading.sample_eta(config, np.arange(100_000))
        assert abs(draws.mean() - 0.5) < 0.005

    def test_default_beta_moments(self):
        config = fading.FadingConfig(seed=17)
        draws = fading.sample_eta(config, np.arange(10_000))
        assert abs(draws.mean() - 0.4) < 0.01
        assert abs(draws.var() - 0.04) < 0.005

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_keys_match_numpy_seed_sequence(self, seed):
        keys = fading._philox_keys(seed, EDGE_INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (EDGE_INDICES.size, 2)
        for key, i in zip(keys, EDGE_INDICES):
            expected = np.random.SeedSequence(seed, spawn_key=(int(i),)).generate_state(
                2, np.uint64)
            assert np.array_equal(key, expected), (seed, i)

    @pytest.mark.parametrize("config", [
        fading.FadingConfig(alpha=0.02, beta=0.02, seed=5),
        fading.FadingConfig(),
    ])
    def test_array_form_matches_per_index_streams(self, config):
        indices = np.arange(2000)
        reference = [_reference_draw(config, i) for i in indices]
        expected = np.array([eta for eta, _, _ in reference])
        etas = fading.sample_eta(config, indices)
        assert np.array_equal(etas.view(np.uint64), expected.view(np.uint64))
        if config.alpha < 0.1:
            # the boundary redraw path is exercised, not just compiled
            assert sum(pairs > 1 for _, pairs, _ in reference) > 100

    def test_two_gamma_draws_that_underflow_are_redrawn(self):
        # at the default seed, index 2150 draws X = Y = 0.0 before a valid pair
        config = fading.FadingConfig(alpha=0.01, beta=0.01)
        eta, _, zero_pairs = _reference_draw(config, 2150)
        assert zero_pairs == 1
        assert fading.sample_eta(config, 2150) == eta
        assert fading.sample_eta(config, np.arange(2148, 2153))[2] == eta

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_and_indices_match_per_index_streams(self, seed):
        config = fading.FadingConfig(seed=seed)
        etas = fading.sample_eta(config, EDGE_INDICES)
        assert [float(e) for e in etas] == [_reference_draw(config, i)[0] for i in EDGE_INDICES]

    def test_int_form_is_float_of_array_form(self):
        config = fading.FadingConfig(seed=2**32)
        etas = fading.sample_eta(config, np.arange(6))
        for i in range(6):
            eta = fading.sample_eta(config, i)
            assert type(eta) is float and eta == etas[i]
        assert np.array_equal(fading.sample_eta(config, np.arange(6).reshape(2, 3)),
                              etas.reshape(2, 3))

    @pytest.mark.parametrize("index", [-1, 2**32, 1.5, np.array([0, -1]), np.array([0.0])])
    def test_rejects_indices_outside_uint32(self, index):
        with pytest.raises(InvalidParameterError):
            fading.sample_eta(fading.FadingConfig(), index)


class TestRunEnsemble:
    def test_single_realization_composition(self):
        rng = np.random.default_rng(4242)
        configs = [fading.FadingConfig(n_realizations=1, seed=4242)] + [
            fading.FadingConfig(
                alpha=float(rng.uniform(0.5, 5.0)), beta=float(rng.uniform(0.5, 5.0)),
                n_realizations=300, seed=int(rng.integers(2**31)),
                probe=ProbeBudget(float(rng.uniform(0.5, 40.0)), float(rng.uniform(0.0, 0.95)),
                                  displacement_phase=float(rng.uniform(0.0, 6.3))),
                n_th=float(rng.uniform(0.0, 3.0)),
            )
            for _ in range(3)
        ]
        for config in configs:
            ens = fading.run_ensemble(config, workers=2 if config.n_realizations > 1 else 1)
            probe = probe_from_budget(config.probe)
            env = thermal_state(config.n_th)
            # batched scoring is bit-identical to the scalar API, realization by realization
            for i in range(config.n_realizations):
                eta = fading.sample_eta(config, i)
                out = apply_loss(probe, ChannelParams(eta=eta, n_th=config.n_th))
                assert ens.etas[i] == eta
                assert ens.w2_sq[i] == metrics.w2_sq(env, out)[0]
                assert ens.xi_qbb[i] == metrics.xi_qbb(env, out)

    def test_reproducibility_bit_identical(self):
        a = fading.run_ensemble(SMALL)
        b = fading.run_ensemble(SMALL)
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.w2_sq, b.w2_sq)
        assert np.array_equal(a.xi_qbb, b.xi_qbb)
        assert a.summary == b.summary

    def test_parallel_schedule_independence(self):
        serial = fading.run_ensemble(SMALL, workers=1)
        parallel = fading.run_ensemble(SMALL, workers=2)
        assert np.array_equal(serial.etas, parallel.etas)
        assert np.array_equal(serial.w2_sq, parallel.w2_sq)
        assert np.array_equal(serial.xi_qbb, parallel.xi_qbb)

    def test_pool_gets_no_more_workers_than_blocks(self, monkeypatch):
        sizes = []

        class RecordingExecutor:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(fading, "ProcessPoolExecutor", RecordingExecutor)
        config = fading.FadingConfig(n_realizations=10, seed=99)
        pooled = fading.run_ensemble(config, workers=64)
        assert sizes == [10]
        assert np.array_equal(pooled.etas, fading.run_ensemble(config).etas)
        fading.run_ensemble(SMALL, workers=3)
        assert sizes == [10, 3]

    def test_default_mean_transmissivity(self):
        ens = fading.run_ensemble(fading.FadingConfig())
        assert abs(ens.summary.mean_eta - 0.4) < 0.01

    def test_frozen_reference_run(self):
        # regression against the recorded reference ensemble (default seed)
        ens = fading.run_ensemble(fading.FadingConfig())
        s = ens.summary
        assert abs(s.mean_eta - 0.39844330404293177) < 1e-12
        assert abs(s.var_eta - 0.04011970578454699) < 1e-12
        assert abs(s.pearson_w2_eta - 0.9952927569034875) < 1e-12
        assert abs(s.iqr_over_median_w2_sq - 0.9537498113764454) < 1e-12
        assert abs(s.iqr_over_median_xi_qbb - 1.044657936383426) < 1e-12
        assert s.saturated_count == 0

    def test_histograms_normalized(self):
        ens = fading.run_ensemble(SMALL)
        for hist in ens.histograms.values():
            widths = np.diff(hist.edges)
            assert abs(float(np.sum(hist.density * widths)) - 1.0) < 1e-9

    def test_correlation_strongly_positive(self):
        ens = fading.run_ensemble(SMALL)
        assert ens.summary.pearson_w2_eta > 0.9

    def test_saturation_counting(self):
        # an enormous displacement budget drives the overlap exponent past
        # the cap for essentially every draw
        config = fading.FadingConfig(
            n_realizations=50, seed=8, probe=ProbeBudget(1e7, 0.0), n_th=0.0
        )
        ens = fading.run_ensemble(config)
        capped = int(np.sum(ens.xi_qbb >= metrics.XI_SATURATION_CAP))
        assert ens.summary.saturated_count == capped
        assert ens.summary.saturated_count > 0
        assert np.max(ens.xi_qbb) == metrics.XI_SATURATION_CAP


class TestPostSelect:
    def test_quantile_zero_selects_all(self):
        ens = fading.run_ensemble(SMALL)
        report = fading.post_select(ens, metric="w2", quantile=0.0)
        assert report.n_selected == SMALL.n_realizations
        assert abs(report.mean_eta_selected - ens.summary.mean_eta) < 1e-15
        assert not report.degenerate

    def test_high_quantile_lifts_mean_eta(self):
        ens = fading.run_ensemble(fading.FadingConfig())
        report = fading.post_select(ens, metric="w2", quantile=0.9)
        assert report.mean_eta_selected > 0.4
        # recorded reference value for the default seed
        assert abs(report.mean_eta_selected - 0.7657794104716875) < 1e-12

    def test_w2_at_least_as_good_as_qbb(self):
        ens = fading.run_ensemble(fading.FadingConfig())
        w2_sel = fading.post_select(ens, metric="w2", quantile=0.9)
        qbb_sel = fading.post_select(ens, metric="qbb", quantile=0.9)
        assert w2_sel.mean_eta_selected >= qbb_sel.mean_eta_selected - 1e-12

    def test_monotone_in_quantile(self):
        ens = fading.run_ensemble(SMALL)
        means = [
            fading.post_select(ens, metric="w2", quantile=q).mean_eta_selected
            for q in (0.0, 0.25, 0.5, 0.75, 0.9)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_degenerate_all_equal(self):
        ens = fading.run_ensemble(fading.FadingConfig(n_realizations=5, seed=3))
        flat = fading.FadingEnsemble(
            config=ens.config,
            etas=ens.etas,
            w2_sq=np.ones(5),
            xi_qbb=ens.xi_qbb,
            summary=ens.summary,
            histograms=ens.histograms,
        )
        report = fading.post_select(flat, metric="w2", quantile=0.9)
        assert report.degenerate
        assert report.n_selected == 5

    def test_rejects_bad_args(self):
        ens = fading.run_ensemble(fading.FadingConfig(n_realizations=5, seed=3))
        with pytest.raises(InvalidParameterError):
            fading.post_select(ens, metric="nope", quantile=0.5)
        with pytest.raises(InvalidParameterError):
            fading.post_select(ens, metric="w2", quantile=1.0)
        with pytest.raises(InvalidParameterError):
            fading.post_select(ens, metric="w2", quantile="0.5")


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(alpha=0.0)
    with pytest.raises(InvalidParameterError, match="alpha must be >= 0.001"):
        fading.FadingConfig(alpha=0.00099)
    with pytest.raises(InvalidParameterError, match="beta must be >= 0.001"):
        fading.FadingConfig(beta=1e-4)
    assert fading.FadingConfig(alpha=1e-3, beta=1e-3).alpha == fading.MIN_SHAPE
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(beta=-1.0)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_realizations=0)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_realizations=2.5)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_realizations=2**32 + 1)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_th=-0.1)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_th=math.nan)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(seed=-1)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(seed=1.5)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(alpha="2")
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(n_realizations=True)
    with pytest.raises(InvalidParameterError):
        fading.FadingConfig(beta=math.inf)
    with pytest.raises(InvalidParameterError):
        fading.run_ensemble(fading.FadingConfig(n_realizations=5), workers=0)
    config = fading.FadingConfig(alpha=np.float32(2.0), n_realizations=np.int64(5))
    assert config == fading.FadingConfig(n_realizations=5)
    assert type(config.alpha) is float


def test_dynamic_range_contrast_is_reported():
    # both dispersion ratios land in the summary; their ordering at the
    # default parameters is exercised by the acceptance suite
    ens = fading.run_ensemble(SMALL)
    assert math.isfinite(ens.summary.iqr_over_median_w2_sq)
    assert math.isfinite(ens.summary.iqr_over_median_xi_qbb)
    assert ens.summary.iqr_over_median_w2_sq > 0
    assert ens.summary.iqr_over_median_xi_qbb > 0


def test_iqr_over_median_is_nan_at_zero_median():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fading._iqr_over_median(np.array([0.0, 0.0, 0.0, 1.0])))
