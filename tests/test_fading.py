import concurrent.futures
import dataclasses
import math
import warnings

import numpy as np
import pytest

from qlidar import fading, metrics, states
from qlidar.channel import ChannelParams, apply_loss
from qlidar.errors import InvalidParameterError, NumericalError
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
        # numpy's Gamma branches: shape < 1, = 1 (exponential) and > 1
        fading.FadingConfig(alpha=1.0, beta=1.0, seed=31),
        fading.FadingConfig(alpha=0.5, beta=4.5, seed=2**40 + 3),
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

    @pytest.mark.parametrize("shapes", [(1 + 1e-9, 40.0), (1.5, 4.5), (2.0, 3.0), (7.3, 1e3)])
    @pytest.mark.parametrize("seed", EDGE_SEEDS[1::3])
    def test_fast_path_matches_per_index_streams(self, shapes, seed):
        # 1e5 indices against the per-index reset loop, the first 2000 of them also
        # against streams built from SeedSequence (24 us an index, too slow for all)
        config = fading.FadingConfig(alpha=shapes[0], beta=shapes[1], seed=seed)
        indices = np.arange(100_000)
        keys = fading._philox_keys(seed, indices)
        etas = fading.sample_eta(config, indices)
        expected = np.array(fading._gamma_loop(*shapes, keys))
        assert np.array_equal(etas.view(np.uint64), expected.view(np.uint64))
        assert [float(e) for e in etas[:2000]] == [
            _reference_draw(config, i)[0] for i in range(2000)]
        _, fast = fading._fast_eta(*shapes, keys, *fading._ziggurat())
        assert 0.9 < fast.mean() < 1.0

    @pytest.mark.parametrize("keys", [
        [[0, 0], [2**64 - 1, 2**64 - 1], [2**64 - 1, 0], [0, 2**64 - 1], [2**63, 1]],
        fading._philox_keys(2**200 + 99, EDGE_INDICES),
    ])
    def test_philox_block_is_numpy_first_block(self, keys):
        keys = np.array(keys, dtype=np.uint64)
        block = fading._philox_block(keys)
        for key, words in zip(keys, block):
            assert np.array_equal(words, np.random.Philox(key=key).random_raw(4)), key

    def test_ziggurat_bounds_take_numpy_fast_layer(self):
        # a buffered normal word with rabs = ki_lo - 1 returns rabs * wi[idx] from
        # that one word: no second word, no new block
        wi, ki = fading._ziggurat()
        assert ki[1] == 0
        normal = np.random.Generator(bitgen := np.random.Philox(0)).standard_normal
        state = bitgen.state
        for idx in (i for i in range(256) if i != 1):
            rabs = int(ki[idx]) - 1
            state["buffer"], state["buffer_pos"] = ((rabs << 9) | idx, 0, 0, 0), 0
            bitgen.state = state
            assert normal() == rabs * wi[idx], idx
            after = bitgen.state
            assert after["buffer_pos"] == 1 and not after["state"]["counter"].any(), idx

    def test_changed_gamma_stream_fails_loudly(self, monkeypatch):
        def shifted(alpha, beta, keys):
            return [np.nextafter(eta, 1.0) for eta in loop(alpha, beta, keys)]

        loop = fading._gamma_loop
        monkeypatch.setattr(fading, "_gamma_loop", shifted)
        with pytest.raises(NumericalError, match="draws Gamma variates differently"):
            fading._ziggurat.__wrapped__()

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

    def test_parallel_schedule_independence(self, monkeypatch):
        serial = fading.run_ensemble(SMALL, workers=1)
        monkeypatch.setattr(fading, "_BLOCK", 300)  # seven blocks, so the pool runs
        parallel = fading.run_ensemble(SMALL, workers=2)
        assert np.array_equal(serial.etas, parallel.etas)
        assert np.array_equal(serial.w2_sq, parallel.w2_sq)
        assert np.array_equal(serial.xi_qbb, parallel.xi_qbb)

    @staticmethod
    def _usable_cpus(monkeypatch, n):
        monkeypatch.setattr(fading.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(fading.os, "cpu_count", lambda: n)

    @staticmethod
    def _recording_pool(monkeypatch):
        """Pool sizes asked for and block counts mapped, by an executor that maps in this
        process."""
        sizes, mapped = [], []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks, *rest):
                mapped.append(len(blocks := list(blocks)))
                return map(fn, blocks, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        return sizes, mapped

    def test_pool_gets_no_more_workers_than_blocks(self, monkeypatch):
        self._usable_cpus(monkeypatch, 1000)  # so the CPU bound does not bind
        sizes, mapped = self._recording_pool(monkeypatch)
        monkeypatch.setattr(fading, "_BLOCK", 4)
        config = fading.FadingConfig(n_realizations=10, seed=99)
        pooled = fading.run_ensemble(config, workers=64)
        assert sizes == [3]  # blocks of 4, 4 and 2 realizations
        assert np.array_equal(pooled.etas, fading.run_ensemble(config).etas)
        monkeypatch.setattr(fading, "_BLOCK", 100)
        fading.run_ensemble(SMALL, workers=3)
        assert sizes == [3, 3]
        # nor more than the usable CPUs: the pool may start every worker at once
        self._usable_cpus(monkeypatch, 2)
        capped = fading.run_ensemble(SMALL, workers=5000)
        assert sizes == [3, 3, 2]
        # the same blocks, cut from the realization count alone, whatever was asked for
        assert mapped == [3, 20, 20]
        serial = fading.run_ensemble(SMALL, workers=1)
        for name in ("etas", "w2_sq", "xi_qbb"):
            assert np.array_equal(getattr(capped, name), getattr(serial, name))

    @pytest.mark.parametrize("cpus,n_realizations,block", [
        (1, 2000, 100), (1000, 1, None), (1000, fading._BLOCK, None)],
        ids=["one-cpu", "one-realization", "one-block"])
    def test_single_process_runs_without_a_pool(self, cpus, n_realizations, block,
                                                 monkeypatch):
        self._usable_cpus(monkeypatch, cpus)
        if block is not None:
            monkeypatch.setattr(fading, "_BLOCK", block)
        config = fading.FadingConfig(n_realizations=n_realizations, seed=99)
        serial = fading.run_ensemble(config)
        sizes, mapped = self._recording_pool(monkeypatch)
        ens = fading.run_ensemble(config, workers=2)
        assert sizes == mapped == []
        for name in ("etas", "w2_sq", "xi_qbb"):
            assert np.array_equal(getattr(ens, name), getattr(serial, name))

    def test_block_size_leaves_the_samples_unchanged(self, monkeypatch):
        """Block sizes that do and do not divide N, with N below, at and above one block,
        serial and pooled, give the samples of a one-block run bit for bit."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings, strategies as st

        self._usable_cpus(monkeypatch, 2)  # so workers=2 over two or more blocks pools

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(n=st.integers(1, 300), block=st.integers(1, 128),
               workers=st.sampled_from((1, 2)), seed=st.integers(0, 2**32 - 1))
        @example(n=96, block=32, workers=2, seed=5)  # blocks divide N
        @example(n=100, block=32, workers=2, seed=5)  # the last block is partial
        @example(n=100, block=32, workers=1, seed=5)
        @example(n=32, block=32, workers=2, seed=5)  # N at one block
        @example(n=20, block=32, workers=2, seed=5)  # N below one block
        def check(n, block, workers, seed):
            config = fading.FadingConfig(n_realizations=n, seed=seed)
            monkeypatch.setattr(fading, "_BLOCK", n)
            whole = fading.run_ensemble(config)
            monkeypatch.setattr(fading, "_BLOCK", block)
            blocked = fading.run_ensemble(config, workers=workers)
            for name in ("etas", "w2_sq", "xi_qbb"):
                assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()

        check()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_samples_are_read_only(self, workers):
        # so the cached summary, sorted copies and histograms cannot go stale
        ens = fading.run_ensemble(SMALL, workers=workers)
        summary = ens.summary
        for sample in (ens.etas, ens.w2_sq, ens.xi_qbb):
            with pytest.raises(ValueError, match="read-only"):
                sample[0] = 0.5
        assert ens.summary is summary

    def test_samples_are_copies_of_column_views(self):
        # a later write to the caller's array leaves the ensemble and its summary as built
        ens = fading.run_ensemble(SMALL)
        table = np.column_stack([ens.etas, ens.w2_sq, ens.xi_qbb])
        from_views = fading.FadingEnsemble(table[:, 0], table[:, 1], table[:, 2])
        summary = from_views.summary
        table[:, 0] = 0.5
        assert from_views.etas.tobytes() == ens.etas.tobytes()
        assert from_views.summary is summary
        assert summary.mean_eta == float(np.mean(from_views.etas)) == ens.summary.mean_eta

    def test_samples_from_lists(self):
        ens = fading.run_ensemble(SMALL)
        from_lists = fading.FadingEnsemble(ens.etas.tolist(), ens.w2_sq.tolist(),
                                           ens.xi_qbb.tolist())
        for sample in (from_lists.etas, from_lists.w2_sq, from_lists.xi_qbb):
            assert sample.dtype == float and not sample.flags.writeable
        as_bytes = [np.array(dataclasses.astuple(e.summary), dtype=float).tobytes()
                    for e in (ens, from_lists)]
        assert as_bytes[0] == as_bytes[1]

    @pytest.mark.parametrize("samples, name", [
        (([], [], []), "etas"),
        (([0.2, 0.4], [1.0], [0.1, 0.3]), "w2_sq"),
        (([0.2, 0.4], [1.0, 2.0], [0.1]), "xi_qbb"),
        (([[0.2, 0.4]], [[1.0, 2.0]], [[0.1, 0.3]]), "etas"),
        (([0.2, 0.4], [[1.0, 2.0]], [0.1, 0.3]), "w2_sq"),
        ((0.2, 1.0, 0.1), "etas"),
    ])
    def test_rejects_samples_it_cannot_summarise(self, samples, name):
        # summary, histograms and post_select need nonempty 1-d samples of one length
        with pytest.raises(InvalidParameterError, match=f"{name} has shape"):
            fading.FadingEnsemble(*samples)

    def test_nan_values_are_kept(self):
        ens = fading.FadingEnsemble([0.2, 0.4, 0.6], [1.0, math.nan, 2.0], [0.1, 0.2, 0.3])
        assert math.isnan(ens.ordered["w2_sq"][-1])

    def test_post_select_rejects_a_metric_with_a_nan(self):
        ens = fading.FadingEnsemble([0.1, 0.5, 0.3], [1.0, math.nan, 2.0], [0.5, 0.2, 0.1])
        with pytest.raises(InvalidParameterError, match="w2_sq: it holds a NaN"):
            fading.post_select(ens, "w2", 0.5)
        assert fading.post_select(ens, "qbb", 0.5).n_selected == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_values_derive_from_the_samples_alone(self, workers):
        ens = fading.run_ensemble(SMALL, workers=workers)
        rebuilt = fading.FadingEnsemble(ens.etas.copy(), ens.w2_sq.copy(), ens.xi_qbb.copy())
        for key, ordered in ens.ordered.items():
            assert ordered.tobytes() == rebuilt.ordered[key].tobytes()
            hist, again = ens.histograms[key], rebuilt.histograms[key]
            assert hist.edges.tobytes() == again.edges.tobytes()
            assert hist.density.tobytes() == again.density.tobytes()
        as_bytes = [np.array(dataclasses.astuple(e.summary), dtype=float).tobytes()
                    for e in (ens, rebuilt)]
        assert as_bytes[0] == as_bytes[1]

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
        assert s.contrast_iqr_median == s.iqr_over_median_w2_sq / s.iqr_over_median_xi_qbb
        assert s.saturated_count == 0

    def test_histograms_normalized(self):
        ens = fading.run_ensemble(SMALL)
        for hist in ens.histograms.values():
            widths = np.diff(hist.edges)
            assert abs(float(np.sum(hist.density * widths)) - 1.0) < 1e-9

    def test_zero_iqr_histogram_uses_sturges_bins(self):
        # 80 of 100 values tie at 0, so the IQR is 0 and Freedman-Diaconis has
        # no width: Sturges gives ceil(log2(100) + 1) = 8 bins
        values = np.concatenate([np.zeros(80), np.arange(1.0, 21.0)])
        hist = fading._histogram(values)
        assert hist.density.size == 8
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 20.0
        assert abs(float(np.sum(hist.density * np.diff(hist.edges))) - 1.0) < 1e-12

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
            etas=ens.etas,
            w2_sq=np.ones(5),
            xi_qbb=ens.xi_qbb,
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
    assert fading.FadingConfig(alpha=1e-3, beta=1e-3).alpha == states.MIN_SHAPE
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
    for probe in ((10.0, 0.5), None, "x"):
        with pytest.raises(InvalidParameterError, match="probe must be a ProbeBudget"):
            fading.FadingConfig(probe=probe)
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


# zeros of both signs, infinities, NaN and ties, mixed into normal draws
_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.0, -1.0)
_FIXED_Q = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


def _bits_match(got, want, values):
    """``got`` equals ``want`` bit for bit, except that a zero may take either sign when
    ``values`` holds zeros of both signs: numpy's partition leaves them in no fixed order."""
    got, want = np.asarray(got), np.asarray(want)
    same = got.view(np.int64) == want.view(np.int64)
    zeros = np.signbit(values[values == 0.0])
    if zeros.any() and not zeros.all():
        same |= (got == 0.0) & (want == 0.0)
    return bool(np.all(same))


def test_quantiles_are_numpy_linear_quantiles_bit_for_bit():
    """``_quantiles`` of the sorted copy against ``np.quantile``, on 1 to 20000 values.

    The fading metrics hold no zero of both signs, so the one allowed difference never
    reaches them: etas lie in (0, 1); w2 is a sum of squares plus ``max(., 0.0)`` of the
    Bures term, and xi_qbb is ``max(-ln Q, 0.0)``, and numpy's ``maximum`` gives +0 for
    either zero there, so both hold only +0.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(size=st.one_of(st.integers(1, 40), st.integers(1, 20000)),
           seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
           ties=st.booleans(), q=st.floats(0.0, 1.0))
    def check(size, seed, share, ties, q):
        rng = np.random.default_rng(seed)
        if ties:
            values = rng.integers(-3, 4, size=size).astype(np.float64)
        else:
            values = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
        swap = rng.random(size) < share
        values[swap] = rng.choice(_SPECIAL, size=int(swap.sum()))
        ordered = np.sort(values)
        with np.errstate(all="ignore"):  # inf - inf, as inside np.quantile
            for qs in (_FIXED_Q, [q], q):
                got, want = fading._quantiles(ordered, qs), np.quantile(values, qs)
                assert np.shape(got) == np.shape(want)
                assert _bits_match(got, want, values), (values, qs, got, want)

    check()


def _percentile_histogram(values):
    """The histogram as it was defined on ``np.percentile`` of the unsorted samples."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        edges = np.array([lo - 0.5, lo + 0.5])
    else:
        q25, q75 = np.percentile(values, [25.0, 75.0])
        if (iqr := q75 - q25) > 0:
            width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
            nbins = min(values.size, max(1, int(math.ceil((hi - lo) / width))))
        else:
            nbins = max(1, int(math.ceil(math.log2(values.size) + 1)))
        edges = np.linspace(lo, hi, nbins + 1)
    return np.histogram(values, bins=edges, density=True)


def _percentile_iqr_over_median(values):
    q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    return float((q75 - q25) / q50) if q50 != 0 else math.nan


@pytest.mark.parametrize("config", [
    SMALL,
    fading.FadingConfig(n_realizations=1, seed=7),
    fading.FadingConfig(n_realizations=2, seed=3),  # the median lands on t = 0.5
    fading.FadingConfig(n_realizations=7, probe=ProbeBudget(0.0, 0.5), n_th=0.0),  # all 0
], ids=["small", "one", "two", "all-zero"])
def test_order_statistics_equal_their_percentile_definitions(config):
    ens = fading.run_ensemble(config)
    samples = {"eta": ens.etas, "w2_sq": ens.w2_sq, "xi_qbb": ens.xi_qbb}
    for key, values in samples.items():
        assert np.array_equal(ens.ordered[key], np.sort(values))
        density, edges = _percentile_histogram(values)
        assert np.array_equal(ens.histograms[key].edges, edges)
        assert np.array_equal(ens.histograms[key].density, density, equal_nan=True)
    for field, values in (("iqr_over_median_w2_sq", ens.w2_sq),
                          ("iqr_over_median_xi_qbb", ens.xi_qbb)):
        want = _percentile_iqr_over_median(values)
        got = getattr(ens.summary, field)
        assert got == want or math.isnan(got) and math.isnan(want)
    for metric, values in (("w2", ens.w2_sq), ("qbb", ens.xi_qbb)):
        for q in (0.0, 0.25, 0.5, 0.9, 0.999):
            report = fading.post_select(ens, metric=metric, quantile=q)
            if not report.degenerate:
                assert report.threshold == float(np.quantile(values, q))
