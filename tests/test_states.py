import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlidar import kernel
from qlidar.channel import ChannelParams
from qlidar.errors import InvalidParameterError
from qlidar.fading import FadingConfig
from qlidar.states import (
    N_TH_MAX,
    N_TOT_MAX,
    GaussianState,
    ProbeBudget,
    probe_from_budget,
    rotate,
    squeezed_vacuum,
    thermal_state,
    validate,
)


class TestSqueezedVacuum:
    def test_identity_at_zero(self):
        state = squeezed_vacuum(0.0)
        assert_allclose(state.mu, [0.0, 0.0])
        assert_allclose(state.sigma, np.eye(2))

    def test_half_squeezing(self):
        state = squeezed_vacuum(0.5)
        assert_allclose(np.diag(state.sigma), [math.exp(-1.0), math.exp(1.0)], rtol=1e-15)
        assert abs(np.linalg.det(state.sigma) - 1.0) < 1e-14

    def test_log2_half(self):
        # e^{-2r} = 1/2 by construction
        state = squeezed_vacuum(math.log(2.0) / 2.0)
        assert_allclose(np.diag(state.sigma), [0.5, 2.0], rtol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, True, "0.5"])
    def test_rejects_bad_r(self, bad):
        with pytest.raises(InvalidParameterError):
            squeezed_vacuum(bad)

    def test_unit_determinant_over_range(self):
        for r in np.linspace(0.0, 3.0, 50):
            det = np.linalg.det(squeezed_vacuum(float(r)).sigma)
            assert abs(det - 1.0) < 1e-12


class TestThermalState:
    @pytest.mark.parametrize("n_th,expected", [(0.0, 1.0), (2.0, 5.0), (0.1, 1.2), (np.int64(2), 5.0)])
    def test_covariance(self, n_th, expected):
        state = thermal_state(n_th)
        assert_allclose(state.sigma, expected * np.eye(2), rtol=1e-15)
        assert_allclose(state.mu, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            thermal_state(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "2"])
    def test_rejects_non_real(self, bad):
        with pytest.raises(InvalidParameterError, match="must be a finite real"):
            thermal_state(bad)

    @pytest.mark.parametrize("build,name", [
        (thermal_state, "thermal occupation"),
        (lambda n_th: ChannelParams(eta=0.5, n_th=n_th).n_th, "n_th"),
        (lambda n_th: FadingConfig(n_th=n_th).n_th, "n_th"),
    ])
    def test_one_occupation_bound(self, build, name):
        # every holder of a thermal occupation takes N_TH_MAX and rejects the next float
        build(N_TH_MAX)
        with pytest.raises(InvalidParameterError, match=f"^{name} must be in \\[0, 1e\\+08\\]"):
            build(np.nextafter(N_TH_MAX, math.inf))


class TestProbeFromBudget:
    def test_all_displacement(self):
        state = probe_from_budget(ProbeBudget(10.0, 0.0))
        assert_allclose(state.sigma, np.eye(2))
        assert_allclose(state.mu, [math.sqrt(20.0), 0.0], rtol=1e-15)

    def test_all_squeezing(self):
        state = probe_from_budget(ProbeBudget(10.0, 1.0))
        assert_allclose(state.mu, 0.0)
        r = math.asinh(math.sqrt(10.0))
        assert abs(r - math.asinh(math.sqrt(10.0))) < 1e-15
        assert abs(math.sinh(r) ** 2 - 10.0) < 1e-12

    def test_half_split(self):
        budget = ProbeBudget(10.0, 0.5)
        state = probe_from_budget(budget)
        r = math.asinh(math.sqrt(5.0))
        assert abs(r - 1.5444) < 1e-3
        assert_allclose(np.diag(state.sigma), [math.exp(-2 * r), math.exp(2 * r)], rtol=1e-14)
        assert abs(float(state.mu @ state.mu) - 10.0) < 1e-12

    def test_energy_bookkeeping(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_tot = rng.uniform(0.0, 30.0)
            lam = rng.uniform(0.0, 0.95)
            state = probe_from_budget(ProbeBudget(n_tot, lam))
            r = math.asinh(math.sqrt(lam * n_tot))
            total = math.sinh(r) ** 2 + 0.5 * float(state.mu @ state.mu)
            assert abs(total - n_tot) < 1e-12 * max(1.0, n_tot)
            assert abs(state.photon_number - n_tot) < 1e-12 * max(1.0, n_tot)

    def test_continuity_in_lambda(self):
        delta = 1e-8
        for lam in np.linspace(0.05, 0.9, 10):
            a = probe_from_budget(ProbeBudget(10.0, float(lam)))
            b = probe_from_budget(ProbeBudget(10.0, float(lam) + delta))
            assert np.max(np.abs(a.sigma - b.sigma)) < 1e-4
            assert np.max(np.abs(a.mu - b.mu)) < 1e-4

    def test_continuity_at_zero_cusp(self):
        # sqrt(lambda) cusp at the origin: only Holder-1/2 continuous there
        a = probe_from_budget(ProbeBudget(10.0, 0.0))
        b = probe_from_budget(ProbeBudget(10.0, 1e-8))
        assert np.max(np.abs(a.sigma - b.sigma)) < 1e-3

    def test_zero_budget_is_vacuum(self):
        for lam in (0.0, 0.3, 0.95):
            state = probe_from_budget(ProbeBudget(0.0, lam))
            assert_allclose(state.mu, 0.0)
            assert_allclose(state.sigma, np.eye(2))

    def test_displacement_phase(self):
        state = probe_from_budget(ProbeBudget(8.0, 0.0, displacement_phase=math.pi / 2))
        assert_allclose(state.mu, [0.0, 4.0], atol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(n_tot=-1.0, lam=0.5),
        dict(n_tot=10.0, lam=-0.1),
        dict(n_tot=10.0, lam=1.01),
        dict(n_tot=math.nan, lam=0.2),
        dict(n_tot=True, lam=0.2),
        dict(n_tot="10", lam=0.2),
        dict(n_tot=10.0, lam=0.2, displacement_phase=None),
    ])
    def test_budget_rejects(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ProbeBudget(**kwargs)

    def test_budget_bound(self):
        assert ProbeBudget(N_TOT_MAX, 0.5).n_tot == N_TOT_MAX
        with pytest.raises(InvalidParameterError, match="^n_tot must be in"):
            ProbeBudget(np.nextafter(N_TOT_MAX, math.inf), 0.5)

    def test_budget_stores_numpy_scalars_as_floats(self):
        budget = ProbeBudget(np.int64(10), np.float32(0.5))
        assert budget == ProbeBudget(10.0, 0.5)
        assert all(type(v) is float for v in vars(budget).values())


class TestValidate:
    def test_vacuum_ok(self):
        assert validate(GaussianState([0, 0], np.eye(2))) is None

    def test_squeezed_ok(self):
        state = GaussianState([0, 0], np.diag([0.36787944117144233, 2.718281828459045]))
        assert validate(state) is None

    def test_uncertainty_violation(self):
        with pytest.raises(InvalidParameterError, match="^state is unphysical: det"):
            validate(GaussianState([0, 0], np.diag([0.5, 0.5])))

    def test_not_positive_definite(self):
        with pytest.raises(InvalidParameterError, match="^probe is unphysical: .*positive definite"):
            validate(GaussianState([0, 0], [[1.0, 2.0], [2.0, 1.0]]), "probe")

    def test_tolerance_band(self):
        # slight float undershoot of det = 1 must still validate
        state = GaussianState([0, 0], (1.0 - 1e-13) * np.eye(2))
        assert validate(state) is None
        with pytest.raises(InvalidParameterError, match="uncertainty bound"):
            validate(GaussianState([0, 0], np.diag([1.0 - 1e-10, 1.0])))

    def test_rotated_squeezed_vacua_are_valid_and_pure(self):
        # at r = 4 the rounding of sqq spp - sqp^2 reaches 1e-12, past DET_TOLERANCE;
        # validate and the kernel's purity rule both allow it 4 eps (sqq spp + sqp^2)
        rng = np.random.default_rng(31)
        for _ in range(2000):
            state = rotate(squeezed_vacuum(rng.uniform(0.0, 4.0)), rng.uniform(0.0, 2 * math.pi))
            assert validate(state) is None
            assert kernel._nu(state.moments[2:]) == 1.0


class TestGaussianState:
    def test_symmetrizes_sigma(self):
        state = GaussianState([0, 0], [[1.0, 1e-17], [0.0, 1.0]])
        assert state.sigma[0, 1] == state.sigma[1, 0]
        # beyond 1e-12 of the largest entry the asymmetry is an input error
        with pytest.raises(InvalidParameterError, match="symmetric"):
            GaussianState([0, 0], [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidParameterError, match="symmetric"):
            GaussianState([0, 0], [[1e6, 1e-5], [0.0, 1e6]])

    def test_immutable(self):
        state = thermal_state(1.0)
        with pytest.raises(ValueError):
            state.sigma[0, 0] = 3.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidParameterError):
            GaussianState([0, 0, 0], np.eye(2))
        with pytest.raises(InvalidParameterError):
            GaussianState([0, 0], np.eye(3))
        with pytest.raises(InvalidParameterError):
            GaussianState([0, math.inf], np.eye(2))

    def test_photon_number(self):
        assert abs(thermal_state(2.0).photon_number - 2.0) < 1e-15
        assert abs(probe_from_budget(ProbeBudget(7.0, 0.4)).photon_number - 7.0) < 1e-12


def test_rotate_preserves_validity_and_det():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        state = rotate(squeezed_vacuum(r), theta)
        assert validate(state) is None
        assert abs(np.linalg.det(state.sigma) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, "0.5"])
def test_rotate_rejects_non_real_angle(bad):
    with pytest.raises(InvalidParameterError, match="^theta must be a finite real"):
        rotate(squeezed_vacuum(0.5), bad)
