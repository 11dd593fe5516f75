"""Hypothesis properties of the closed forms over seed-drawn general state pairs."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_physical_state, squeezed_thermal_state
from qlidar import kernel, metrics
from qlidar.states import GaussianState, rotate

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PAIRS_PER_SEED = 8
# exp gives 0 below this
LOG_UNDERFLOW = math.log(math.ulp(0.0))
# ln Q_1/2 of a state against itself comes out above 0 by rounding: over the pairs of
# 15000 seeds, Q_1/2 exceeded 1 by up to 4.4e-15 (3.6e-15 since ln Q_s is taken in the
# thermal exponent), and the bound is twice that. ln F is clamped at 0, so F <= 1
Q_ABOVE_ONE = 8.9e-15
# ln Q_1/2 is not symmetric bit for bit: the worst swap difference over the same
# pairs is 8.9e-16 * max(1, |ln Q_1/2|), and this bound twice that
Q_SWAP = 1.8e-15
# rotating both states by one angle moves the scores by rounding and by the input
# conditioning of near-pure states: over the pairs of 15000 seeds, at most 5.7e-14
# (w2_sq, Bures rounding of a self-pair), 3.2e-12 (xi_qbb), 3.1e-10 (xi_qcb, at
# det sigma - 1 = 5e-9, where a 1-ulp input move shifts ln Q by 5e-10), 1.4e-13
# (fidelity) and 2.6e-13 (xi_qbb_proxy), both on that same pair, and 1.1e-14
# (snr_sq_opt), each times max(1, |score|). Each bound is twice that
ROTATION = {"w2_sq": 1.2e-13, "xi_qbb": 6.4e-12, "xi_qcb": 6.2e-10, "fidelity": 2.9e-13,
            "xi_qbb_proxy": 5.1e-13, "snr_sq_opt": 2.2e-14}
# theta_opt turns with the states, mod pi: over the same pairs its angular distance
# from the turned angle reached 2.1e-14 rad with a displacement and 1.9e-11 rad
# without, where the minor axis of a nearly isotropic sigma1 is ill-conditioned.
# The bound is twice that
THETA_TURN = 3.8e-11
# W2 over the same seeds: a self-pair's W2^2 reached 5.0e-16 tr sigma; the triangle
# inequality failed by up to 4.4e-16 max(1, W2(a, c)), on triples of one covariance;
# and W2^2(Phi a, Phi b) - eta W2^2(a, b) reached 5.7e-16 times its rounding scale
# |d| (|mu0| + |mu1|) + tr sigma + tr Phi(sigma). Each bound is twice that
W2_SELF = 1.1e-15
TRIANGLE = 8.9e-16
W2_CHANNEL = 1.2e-15


def _states(seed):
    """Seed-drawn states: displacements up to 316 reach pairs whose ln F and ln Q_1/2
    underflow exp, and thermal occupations down to 1e-3 near-pure states."""
    rng = np.random.default_rng(seed)
    mu_scale, nbar_max = 10.0 ** rng.uniform(-1.0, 2.5), 10.0 ** rng.uniform(-3.0, 1.0)
    return [random_physical_state(rng, mu_scale, nbar_max) for _ in range(PAIRS_PER_SEED + 1)]


def _pairs_with_self_pairs(seed):
    """Consecutive seed-drawn states, and each state against itself, where F and Q reach 1."""
    states = _states(seed)
    return list(zip(states, states[1:])) + [(state, state) for state in states]


def _pairs_with_pure_states(seed):
    """The pairs of _pairs_with_self_pairs, and rotated displaced squeezed vacua
    (nbar = 0) against the first states, against each other and against themselves."""
    pairs = _pairs_with_self_pairs(seed)
    rng = np.random.default_rng([seed, 11])
    pure = [squeezed_thermal_state(0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, math.pi),
                                   rng.uniform(-3.0, 3.0, 2)) for _ in range(3)]
    mixed = [state for state, _ in pairs[:3]]
    return (pairs + list(zip(pure, mixed)) + list(zip(mixed, pure))
            + list(zip(pure, pure[1:])) + [(state, state) for state in pure])


def _shifted(state, d):
    """``state`` displaced by ``d``, covariance unchanged."""
    return GaussianState(state.mu + d, state.sigma)


def _w2(state0, state1):
    return math.sqrt(metrics.w2_sq(state0, state1)[0])


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
    s_batch, q_batch = kernel.chernoff(*stacked)[:2]
    for i, (m0, m1) in enumerate(pairs):
        s_star, best = kernel.chernoff(m0, m1)[:2]
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
        assert 0.0 <= fidelity <= 1.0
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
    # invariant under a common symplectic orthogonal map; the LO angle, that of
    # sigma1^-1 d or of the minor axis of sigma1, turns with them, and is undefined
    # only with no displacement and sigma1 proportional to I
    theta = np.random.default_rng([seed, 7]).uniform(0.0, 2.0 * math.pi)
    for h0, h1 in _pairs_with_self_pairs(seed):
        rep = metrics.metric_report(h1, h0)
        turned = metrics.metric_report(rotate(h1, theta), rotate(h0, theta))
        for key, bound in ROTATION.items():
            score, moved = getattr(rep, key), getattr(turned, key)
            assert abs(moved - score) <= bound * max(1.0, abs(score)), (key, score, moved)
        (sqq, sqp), (_, spp) = h1.sigma
        if rep.displacement_term == 0.0 and sqp == 0.0 and sqq == spp:
            continue
        turn = (turned.theta_opt - rep.theta_opt - theta) % math.pi
        assert min(turn, math.pi - turn) <= THETA_TURN, (rep.theta_opt, turned.theta_opt)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_report_equals_its_parts(seed):
    # report takes ln F, ln Q_1/2 and the Chernoff minimum from one chernoff call, and
    # each score equals its own function bit for bit, on pure states and self-pairs too
    pairs = _pairs_with_pure_states(seed)
    assert all(kernel._nu(state.moments[2:]) == 1.0 for state, _ in pairs[-3:])
    for h0, h1 in pairs:
        m0, m1 = h0.moments, h1.moments
        rep = kernel.report(m1, m0)
        assert rep["fidelity"] == np.exp(kernel.log_fidelity(m0, m1))
        assert rep["xi_qbb"] == kernel.exponent(kernel.log_s_overlap(m0, m1, 0.5))
        assert rep["xi_qcb"] == kernel.exponent(kernel.chernoff(m0, m1)[1])
        assert rep["fidelity"] <= 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_w2_is_symmetric(seed):
    # a swap negates the mean difference, which is squared, and swaps the operands of
    # each sum and product of the Bures form, so W2 is symmetric bit for bit
    for h0, h1 in _pairs_with_self_pairs(seed):
        assert metrics.w2_sq(h0, h1) == metrics.w2_sq(h1, h0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_w2_of_a_self_pair_is_bures_rounding(seed):
    # the displacement term is exactly 0 and Bures^2 is the rounding of
    # tr sigma0 + tr sigma1 - 2 sqrt(cross), a few eps tr sigma
    for state in _states(seed):
        w2_sq, disp, _ = metrics.w2_sq(state, state)
        assert disp == 0.0 and 0.0 <= w2_sq <= W2_SELF * np.trace(state.sigma)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_w2_triangle_inequality(seed):
    # consecutive triples, and triples a, a + t d, a + d of one covariance, on which
    # W2 is |d| and the inequality is an equality
    states = _states(seed)
    rng = np.random.default_rng([seed, 5])
    triples = list(zip(states, states[1:], states[2:]))
    for a in states:
        d = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-2.0, 2.5)
        triples.append((a, _shifted(a, rng.uniform() * d), _shifted(a, d)))
    for a, b, c in triples:
        gap = _w2(a, c) - (_w2(a, b) + _w2(b, c))
        assert gap <= TRIANGLE * max(1.0, _w2(a, c)), (gap, _w2(a, c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_w2_contracts_by_root_eta_for_equal_covariances(seed):
    # the lossy thermal channel keeps two equal covariances equal and scales their
    # mean difference d by sqrt(eta), so W2^2(Phi a, Phi b) = eta W2^2(a, b) up to the
    # rounding of |d|^2, a few eps |d| (|mu0| + |mu1|) since d is a difference of
    # means, and of Bures^2 of equal covariances, a few eps tr sigma
    rng = np.random.default_rng([seed, 3])
    for a in _states(seed):
        d = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-2.0, 2.5)
        eta, n_th = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-3.0, 1.0)
        m0, m1 = a.moments, _shifted(a, d).moments
        out0, out1 = kernel.channel(m0, eta, n_th), kernel.channel(m1, eta, n_th)
        before, after = sum(kernel.w2_terms(m0, m1)), sum(kernel.w2_terms(out0, out1))
        means = math.hypot(*d) * (math.hypot(*m0[:2]) + math.hypot(*m1[:2]))
        scale = means + (m0[2] + m0[4]) + (out0[2] + out0[4])
        assert abs(after - eta * before) <= W2_CHANNEL * scale, (after, eta * before)
