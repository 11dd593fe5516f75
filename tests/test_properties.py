"""Hypothesis properties of the closed forms over seed-drawn general state pairs."""

import dataclasses

import numpy as np
import pytest

from conftest import random_physical_state
from qlidar import kernel, metrics

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PAIRS_PER_SEED = 8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_metric_report_equals_batched_kernel_report(seed):
    # the scalar route to every score, theta_opt included, is the batched kernel
    # call on stacked moments, bit for bit
    rng = np.random.default_rng(seed)
    pairs = [(random_physical_state(rng), random_physical_state(rng))
             for _ in range(PAIRS_PER_SEED)]
    stacked = [tuple(np.array(col) for col in zip(*(state.moments for state in states)))
               for states in zip(*pairs)]
    batched = kernel.report(*stacked)
    assert list(batched) == [field.name for field in dataclasses.fields(metrics.MetricReport)]
    for i, (h1, h0) in enumerate(pairs):
        rep = metrics.metric_report(h1, h0)
        for key, values in batched.items():
            assert getattr(rep, key) == values[i], key


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 17))
def test_chernoff_batches_equal_per_pair_calls(seed, length):
    # every batch length up to 17 covers the SIMD loops' remainder paths; the slope
    # values feed the secant steps, so one ulp apart would move the minimum
    rng = np.random.default_rng(seed)
    pairs = [(random_physical_state(rng).moments, random_physical_state(rng).moments)
             for _ in range(length)]
    stacked = [tuple(np.array(col) for col in zip(*side)) for side in zip(*pairs)]
    s_batch, q_batch = kernel.chernoff(*stacked)
    for i, (m0, m1) in enumerate(pairs):
        s_star, best = kernel.chernoff(m0, m1)
        assert s_star.shape == best.shape == ()
        assert s_star == s_batch[i] and best == q_batch[i]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 17))
def test_lidar_pair_batches_equal_per_element_calls(seed, length):
    # the drivers' stacked pairs are the per-element pairs bit for bit, and with no
    # electronic noise the background is the thermal state itself
    rng = np.random.default_rng(seed)
    n_tot, phase = 10.0 ** rng.uniform(-2, 4), rng.choice([0.0, rng.uniform(0, 2 * np.pi)])
    v_el = rng.choice([0.0, rng.uniform(0, 1)])
    lam, eta_eff, n_th = (rng.uniform(0, top, length) for top in (1.0, 1.0, 3.0))
    batched = kernel.lidar_pair(lam, n_tot, eta_eff, n_th, v_el, phase)
    for i in range(length):
        single = kernel.lidar_pair(lam[i], n_tot, eta_eff[i], n_th[i], v_el, phase)
        for stacked, state in zip(batched, single):
            for column, value in zip(stacked, state):
                assert np.shape(value) == () and np.broadcast_to(column, (length,))[i] == value
    h0 = kernel.lidar_pair(lam, n_tot, eta_eff, n_th)[1]
    assert all(np.array_equal(a, b) for a, b in zip(h0, kernel.thermal(n_th)))
