"""Hypothesis properties of the closed forms over seed-drawn general state pairs."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_physical_state
from qlidar import kernel, metrics
from qlidar.states import rotate

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PAIRS_PER_SEED = 8
# exp gives 0 below this
LOG_UNDERFLOW = math.log(math.ulp(0.0))
# ln F and ln Q_1/2 of a state against itself come out above 0 by rounding: over the
# pairs of 15000 seeds, F exceeded 1 by up to 8.9e-16 and Q_1/2 by up to 4.4e-15
# (3.6e-15 since ln Q_s is taken in the thermal exponent). Each bound is twice that
F_ABOVE_ONE = 1.8e-15
Q_ABOVE_ONE = 8.9e-15
# ln Q_1/2 is not symmetric bit for bit: the worst swap difference over the same
# pairs is 8.9e-16 * max(1, |ln Q_1/2|), and this bound twice that
Q_SWAP = 1.8e-15
# rotating both states by one angle moves the scores by rounding and by the input
# conditioning of near-pure states: over the pairs of 15000 seeds, at most 5.7e-14
# (w2_sq, Bures rounding of a self-pair), 3.2e-12 (xi_qbb) and 3.1e-10 (xi_qcb, at
# det sigma - 1 = 5e-9, where a 1-ulp input move shifts ln Q by 5e-10), each times
# max(1, |score|). Each bound is twice that
ROTATION = {"w2_sq": 1.2e-13, "xi_qbb": 6.4e-12, "xi_qcb": 6.2e-10}


def _pairs_with_self_pairs(seed):
    """Consecutive seed-drawn states, and each state against itself, where F and Q reach 1.

    Displacements up to 316 reach pairs whose ln F and ln Q_1/2 underflow exp, and
    thermal occupations down to 1e-3 near-pure states.
    """
    rng = np.random.default_rng(seed)
    mu_scale, nbar_max = 10.0 ** rng.uniform(-1.0, 2.5), 10.0 ** rng.uniform(-3.0, 1.0)
    states = [random_physical_state(rng, mu_scale, nbar_max) for _ in range(PAIRS_PER_SEED + 1)]
    return list(zip(states, states[1:])) + [(state, state) for state in states]


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_fidelity_is_symmetric_and_in_unit_interval(seed):
    # F is symmetric bit for bit: a swap swaps the operands of each sum and product of
    # the closed form, and negates the mean difference in both factors of its quadratic form
    for h0, h1 in _pairs_with_self_pairs(seed):
        log_f = kernel.log_fidelity(h0.moments, h1.moments)
        assert np.isfinite(log_f) and log_f == kernel.log_fidelity(h1.moments, h0.moments)
        fidelity = metrics.gaussian_fidelity(h0, h1)
        assert fidelity == metrics.gaussian_fidelity(h1, h0)
        assert 0.0 <= fidelity <= 1.0 + F_ABOVE_ONE
        assert fidelity > 0.0 or log_f < LOG_UNDERFLOW


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_half_overlap_is_in_unit_interval(seed):
    # Q_1/2 = exp(ln Q_1/2) is in (0, 1] to rounding, 0 only where ln Q_1/2 underflows
    for h0, h1 in _pairs_with_self_pairs(seed):
        log_q = kernel.log_s_overlap(h0.moments, h1.moments, 0.5)
        swapped = kernel.log_s_overlap(h1.moments, h0.moments, 0.5)
        assert np.isfinite(log_q) and abs(log_q - swapped) <= Q_SWAP * max(1.0, abs(log_q))
        overlap = math.exp(log_q)
        assert overlap <= 1.0 + Q_ABOVE_ONE
        assert overlap > 0.0 or log_q < LOG_UNDERFLOW


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_scores_are_rotation_invariant(seed):
    # a phase-space rotation of both states is a unitary on both, and W2 is
    # invariant under a common symplectic orthogonal map
    theta = np.random.default_rng([seed, 7]).uniform(0.0, 2.0 * math.pi)
    for h0, h1 in _pairs_with_self_pairs(seed):
        rep = metrics.metric_report(h1, h0)
        turned = metrics.metric_report(rotate(h1, theta), rotate(h0, theta))
        for key, bound in ROTATION.items():
            score, moved = getattr(rep, key), getattr(turned, key)
            assert abs(moved - score) <= bound * max(1.0, abs(score)), (key, score, moved)
