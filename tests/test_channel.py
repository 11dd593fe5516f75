import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_physical_state
from qlidar.channel import ChannelParams, apply_loss, effective_noise
from qlidar.errors import InvalidParameterError, SingularityError
from qlidar.states import GaussianState, thermal_state, validate


def test_lossless_is_identity():
    state = GaussianState([1.3, -0.2], [[0.8, 0.1], [0.1, 1.5]])
    out = apply_loss(state, ChannelParams(eta=1.0, n_th=3.0))
    assert_allclose(out.mu, state.mu)
    assert_allclose(out.sigma, state.sigma)


def test_full_loss_thermalizes():
    state = GaussianState([4.0, 1.0], np.diag([0.2, 5.0]))
    out = apply_loss(state, ChannelParams(eta=0.0, n_th=2.0))
    assert_allclose(out.mu, 0.0)
    assert_allclose(out.sigma, 5.0 * np.eye(2))


def test_half_loss_example():
    # direct evaluation of the moment map
    state = GaussianState([2.0, 0.0], np.diag([0.25, 4.0]))
    out = apply_loss(state, ChannelParams(eta=0.5, n_th=0.0))
    assert_allclose(out.mu, [math.sqrt(2.0), 0.0], rtol=1e-15)
    assert_allclose(out.sigma, np.diag([0.625, 2.5]), rtol=1e-15)


def test_detector_efficiency_folds_into_eta():
    state = GaussianState([1.0, 0.0], np.eye(2))
    a = apply_loss(state, ChannelParams(eta=0.8, n_th=0.3, eta_det=0.5))
    b = apply_loss(state, ChannelParams(eta=0.4, n_th=0.3))
    assert_allclose(a.mu, b.mu)
    assert_allclose(a.sigma, b.sigma)


def test_semigroup_composition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_physical_state(rng)
        n_th = rng.uniform(0.0, 2.0)
        e1, e2 = rng.uniform(0.0, 1.0, size=2)
        two_steps = apply_loss(
            apply_loss(state, ChannelParams(eta=float(e1), n_th=n_th)),
            ChannelParams(eta=float(e2), n_th=n_th),
        )
        one_step = apply_loss(state, ChannelParams(eta=float(e1 * e2), n_th=n_th))
        assert np.max(np.abs(two_steps.mu - one_step.mu)) < 1e-12
        assert np.max(np.abs(two_steps.sigma - one_step.sigma)) < 1e-12


def test_thermal_fixed_point():
    for n_th in (0.0, 0.5, 2.0):
        for eta in (0.0, 0.3, 0.77, 1.0):
            state = thermal_state(n_th)
            out = apply_loss(state, ChannelParams(eta=eta, n_th=n_th))
            assert np.max(np.abs(out.sigma - state.sigma)) < 1e-12
            assert np.max(np.abs(out.mu)) < 1e-12


def test_physicality_preserved_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        state = random_physical_state(rng)
        params = ChannelParams(
            eta=float(rng.uniform(0, 1)),
            n_th=float(rng.uniform(0, 3)),
            eta_det=float(rng.uniform(0.1, 1.0)),
        )
        assert validate(apply_loss(state, params)) is None


def test_photon_number_interpolation():
    rng = np.random.default_rng(5)
    for _ in range(300):
        state = random_physical_state(rng)
        params = ChannelParams(eta=float(rng.uniform(0, 1)), n_th=float(rng.uniform(0, 3)))
        out = apply_loss(state, params)
        expected = params.eta * state.photon_number + (1 - params.eta) * params.n_th
        assert abs(out.photon_number - expected) < 1e-12 * max(1.0, expected)


def test_rejects_invalid_state():
    bad = GaussianState([0, 0], np.diag([0.5, 0.5]))
    with pytest.raises(InvalidParameterError, match="^input state is unphysical: det"):
        apply_loss(bad, ChannelParams(eta=0.5, n_th=0.0))


@pytest.mark.parametrize("kwargs", [
    dict(eta=-0.1, n_th=0.0),
    dict(eta=1.1, n_th=0.0),
    dict(eta=0.5, n_th=-1.0),
    dict(eta=0.5, n_th=0.0, eta_det=0.0),
    dict(eta=0.5, n_th=0.0, eta_det=1.2),
    dict(eta=0.5, n_th=0.0, v_el=-0.1),
    dict(eta=True, n_th=0.0),
    dict(eta=0.5, n_th="0"),
    dict(eta=0.5, n_th=0.0, eta_det=math.nan),
])
def test_rejects_bad_params(kwargs):
    with pytest.raises(InvalidParameterError):
        ChannelParams(**kwargs)


def test_params_store_numpy_scalars_as_floats():
    params = ChannelParams(eta=np.float32(0.5), n_th=np.int64(2))
    assert params == ChannelParams(eta=0.5, n_th=2.0)
    assert type(params.eta_eff) is float   # a float32 eta would keep eta_eff in float32


class TestEffectiveNoise:
    def test_zero_electronic_noise(self):
        assert effective_noise(ChannelParams(eta=0.3, n_th=2.0)) == 2.0
        # v_el = 0 stays finite even at unit transmissivity
        assert effective_noise(ChannelParams(eta=1.0, n_th=2.0)) == 2.0

    def test_half_transmissivity(self):
        params = ChannelParams(eta=0.5, n_th=2.0, v_el=0.1)
        assert abs(effective_noise(params) - 2.1) < 1e-15

    def test_quarter_loss(self):
        params = ChannelParams(eta=0.75, n_th=0.0, v_el=1.0)
        assert abs(effective_noise(params) - 2.0) < 1e-15

    def test_diverges_at_unit_transmissivity(self):
        with pytest.raises(SingularityError):
            effective_noise(ChannelParams(eta=1.0, n_th=0.0, v_el=0.5))

    def test_detector_efficiency_rescues_unit_eta(self):
        # eta_eff < 1, so the formula stays finite
        params = ChannelParams(eta=1.0, n_th=0.0, eta_det=0.5, v_el=1.0)
        assert abs(effective_noise(params) - 1.0) < 1e-15
