import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import load_oracle_cases, random_physical_state, squeezed_thermal_state
from qlidar import fock, kernel, metrics
from qlidar.errors import CutoffTooSmallError, InvalidParameterError
from qlidar.states import GaussianState, rotate, rotation_matrix, squeezed_vacuum, thermal_state


def extract_moments(rho: fock.FockDensity) -> tuple[np.ndarray, np.ndarray]:
    """Read (mu, sigma) back from a density matrix via the calibrated operators."""
    a = fock.lowering_operator(rho.probs.size)
    q = a + a.T
    p = -1j * (a - a.T)
    m = rho.matrix
    a_mean = complex(np.trace(m @ a))
    q_mean = float(np.trace(m @ q).real)
    p_mean = float(np.trace(m @ p).real)
    var_q = float(np.trace(m @ q @ q).real) - q_mean**2
    var_p = float(np.trace(m @ p @ p).real) - p_mean**2
    cov_qp = 0.5 * float(np.trace(m @ (q @ p + p @ q)).real) - q_mean * p_mean
    mu = math.sqrt(2.0) * np.array([a_mean.real, a_mean.imag])
    sigma = np.array([[var_q, cov_qp], [cov_qp, var_p]])
    return mu, sigma


def _expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G from the eigendecomposition of the Hermitian iG."""
    w, u = np.linalg.eigh(1j * g)
    return (u * np.exp(-1j * w)) @ u.conj().T


def _dense_reference_rho(state: GaussianState, cutoff: int) -> np.ndarray:
    """rho = D S rho_thermal S^dag D^dag, exponentiating each state's full generators."""
    nbar, r, phi = fock._decompose(state.sigma)
    levels = np.arange(cutoff)
    probs = (nbar / (nbar + 1.0)) ** levels / (nbar + 1.0)
    a = fock.lowering_operator(cutoff)
    squeeze = _expm_antihermitian(0.5 * r * (a @ a - a.T @ a.T)).real
    phase = np.exp(1j * phi * levels)
    rho = phase[:, None] * ((squeeze * probs) @ squeeze.T) * np.conj(phase)[None, :]
    beta = (state.mu[0] + 1j * state.mu[1]) / math.sqrt(2.0)
    displace = _expm_antihermitian(beta * a.T - np.conj(beta) * a)
    rho = displace @ rho @ displace.conj().T
    return 0.5 * (rho + rho.conj().T)


class TestBuildState:
    def test_vacuum(self):
        rho = fock.build_state(thermal_state(0.0), 10)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert_allclose(rho.matrix, expected, atol=1e-15)
        assert rho.trace_deficit == 0.0
        assert fock.build_state(thermal_state(0.0), np.int64(10)).probs.size == 10

    def test_squeezed_vacuum_moments(self):
        rho = fock.build_state(squeezed_vacuum(0.5), 60)
        mu, sigma = extract_moments(rho)
        assert np.max(np.abs(mu)) < 1e-8
        assert abs(sigma[0, 0] - math.exp(-1.0)) < 1e-8
        assert abs(sigma[1, 1] - math.exp(1.0)) < 1e-8
        assert abs(sigma[0, 1]) < 1e-8

    def test_thermal_geometric_populations(self):
        rho = fock.build_state(thermal_state(2.0), 200)
        n = np.arange(200)
        expected = 2.0**n / 3.0 ** (n + 1)
        assert_allclose(np.diag(rho.matrix).real, expected, rtol=1e-12)
        assert np.max(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))) < 1e-15
        assert rho.trace_deficit < 1e-8

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError) as exc_info:
            fock.build_state(thermal_state(2.0), 20)
        assert exc_info.value.suggested_cutoff == 30
        assert exc_info.value.trace_deficit > 1e-8

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidParameterError, match="^state is unphysical: det"):
            fock.build_state(GaussianState([0, 0], np.diag([0.5, 0.5])), 40)

    @pytest.mark.parametrize("cutoff", [1, 2.5, True, np.float64(40.0)])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(InvalidParameterError, match="cutoff"):
            fock.build_state(thermal_state(0.0), cutoff)

    def test_hermitian_and_psd(self):
        # rho = U diag(p) U^dag is Hermitian PSD because p >= 0 and U is unitary;
        # those two facts stand in for a PSD guard on every built state
        rng = np.random.default_rng(71)
        for _ in range(10):
            state = random_physical_state(rng, mu_scale=1.5, nbar_max=0.8, r_max=0.8)
            rho = fock.build_state(state, 80)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert float(np.linalg.eigvalsh(rho.matrix)[0]) > -1e-10
            assert rho.trace_deficit <= 1e-8
            for cutoff in (60, 90, 135, 203):
                factors = fock.build_state(state, cutoff)
                assert np.all(factors.probs >= 0.0)
                gram = factors.unitary.conj().T @ factors.unitary
                assert np.max(np.abs(gram - np.eye(cutoff))) <= 1e-12

    def test_matches_per_state_dense_exponentials(self):
        # cached unit-generator spectra scaled by r and |beta|, with arg(beta)
        # as diagonal phases, against each state's own generator exponentials;
        # the fixed states cover theta = pi and pi/2 and the r = 0 and beta = 0 branches
        core = GaussianState([0.0, 0.0], 1.6 * rotate(squeezed_vacuum(0.6), 0.4).sigma)
        fixed = [
            GaussianState([-1.3, 0.0], core.sigma),
            GaussianState([0.0, 1.1], core.sigma),
            GaussianState([0.0, -0.9], np.eye(2)),
            GaussianState([0.8, -0.5], 2.2 * np.eye(2)),
            core,
        ]
        rng = np.random.default_rng(83)
        for cutoff in (60, 90, 135):
            states = fixed + [random_physical_state(rng, 1.5, 0.8, 0.8) for _ in range(20)]
            for state in states:
                rho = fock.build_state(state, cutoff).matrix
                assert np.max(np.abs(rho - _dense_reference_rho(state, cutoff))) <= 1e-13

    def test_pair_takes_no_density_eigh(self, monkeypatch):
        # both states squeezed and displaced, with the rotation factors of this cutoff cached;
        # the densities come factorised, so only the fidelity's svd is cutoff-sized
        cutoff = 90
        fock._rotation_factors(cutoff)
        s0 = GaussianState([0.7, -0.4], rotate(squeezed_vacuum(0.5), 0.3).sigma)
        s1 = GaussianState([-0.2, 0.9], 1.4 * rotate(squeezed_vacuum(0.3), 1.1).sigma)
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}

        def counted(name):
            solver = getattr(np.linalg, name)

            def wrapper(m, *args, **kwargs):
                if m.shape[-1] == cutoff:
                    calls[name] += 1
                return solver(m, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
        monkeypatch.setattr(np.linalg, "svd", counted("svd"))
        rho0, rho1 = fock.build_state(s0, cutoff), fock.build_state(s1, cutoff)
        fock.oracle_fidelity(rho0, rho1)
        fock.oracle_s_overlap(rho0, rho1, 0.5)
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 1}
        factors = fock._rotation_factors(cutoff)
        assert not any(array.flags.writeable for triple in factors for array in triple)

    def test_pair_forms_one_overlap_matrix(self):
        # W = U0^dag U1 is kept for the last pair: the fidelity forms it, the s-overlap reuses it
        s0 = GaussianState([0.7, -0.4], rotate(squeezed_vacuum(0.5), 0.3).sigma)
        s1 = GaussianState([-0.2, 0.9], 1.4 * rotate(squeezed_vacuum(0.3), 1.1).sigma)
        rho0, rho1 = fock.build_state(s0, 60), fock.build_state(s1, 60)
        fock._overlap_matrix.cache_clear()
        fock.oracle_fidelity(rho0, rho1)
        fock.oracle_s_overlap(rho0, rho1, 0.5)
        info = fock._overlap_matrix.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # keyed by identity, and nothing it is formed from or returns can be written to
        assert not fock._overlap_matrix(rho0, rho1).flags.writeable
        for array in (rho0.unitary, rho0.probs):
            with pytest.raises(ValueError):
                array[0] = 0.0
        fock.oracle_s_overlap(rho1, rho0, 0.5)
        assert fock._overlap_matrix.cache_info().misses == 2


def _generators(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_sq on the even levels, K_sq on the odd levels and K_d, as dense matrices."""
    a = fock.lowering_operator(cutoff)
    squeeze = 0.5 * (a @ a - a.T @ a.T)
    return squeeze[0::2, 0::2], squeeze[1::2, 1::2], a.T - a


@pytest.mark.parametrize("cutoff", [60, 61, 90, 135])
def test_rotations_match_dense_exponentials(cutoff):
    # 61, 90 and 135 give generators of odd size, whose odd x even block has a null space
    for generator, factors in zip(_generators(cutoff), fock._rotation_factors(cutoff)):
        for x in (0.3, 1.5, -0.8):
            rotation = fock._exp_generator(factors, x)
            reference = _expm_antihermitian(x * generator).real
            assert np.max(np.abs(rotation - reference)) <= 1e-13
            assert np.max(np.abs(rotation.T @ rotation - np.eye(len(generator)))) <= 1e-13
        assert np.array_equal(fock._exp_generator(factors, 0.0), np.eye(len(generator)))


@pytest.mark.parametrize("sigma", [
    np.eye(2),
    2.2 * np.eye(2),
    1.5 * np.diag([math.exp(0.6), math.exp(-0.6)]),
    np.diag([math.exp(-0.8), math.exp(0.8)]),
    1.6 * rotate(squeezed_vacuum(0.6), 0.4).sigma,
    rotate(squeezed_vacuum(1.2), 2.5).sigma,
    2.0 * rotate(squeezed_vacuum(0.7), -1.3).sigma,
    1.3 * rotate(squeezed_vacuum(1e-9), 0.7).sigma,
    3.0 * np.eye(2) + np.array([[2e-13, 1e-13], [1e-13, -1e-13]]),
], ids=["vacuum", "thermal", "qq-above-pp", "qq-below-pp", "rotated-mixed", "rotated-pure",
        "rotated-negative-angle", "near-isotropic-squeezed", "near-isotropic-thermal"])
def test_decompose_rebuilds_sigma(sigma):
    nbar, r, phi = fock._decompose(sigma)
    rot = rotation_matrix(phi)
    rebuilt = (2.0 * nbar + 1.0) * rot @ np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]) @ rot.T
    assert np.max(np.abs(rebuilt - sigma)) <= 1e-13
    assert r >= 0.0


def test_moment_round_trip_random():
    # 50 random low-energy states, including rotated covariances; second
    # moments converge slower than the trace, hence the roomier cutoff
    rng = np.random.default_rng(73)
    for _ in range(50):
        state = random_physical_state(rng, mu_scale=1.5, nbar_max=0.8, r_max=0.8)
        rho = fock.build_state(state, 150)
        mu, sigma = extract_moments(rho)
        assert np.max(np.abs(mu - state.mu)) < 1e-8
        assert np.max(np.abs(sigma - state.sigma)) < 1e-8


class TestOracleFidelity:
    def test_identical(self):
        rho = fock.build_state(thermal_state(1.0), 80)
        assert abs(fock.oracle_fidelity(rho, rho) - 1.0) < 1e-10

    def test_vacuum_vs_coherent(self):
        vac = fock.build_state(thermal_state(0.0), 60)
        coh = fock.build_state(GaussianState([math.sqrt(2.0), 0.0], np.eye(2)), 60)
        assert abs(fock.oracle_fidelity(vac, coh) - math.exp(-1.0)) < 1e-7

    def test_orthogonal_fock_states(self):
        dim = 10
        basis = np.eye(dim)
        rho0 = fock.FockDensity(basis.astype(complex), basis[0], 0.0)
        rho1 = fock.FockDensity(basis.astype(complex), basis[1], 0.0)
        assert fock.oracle_fidelity(rho0, rho1) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            a = fock.build_state(random_physical_state(rng, 1.0, 0.5, 0.5), 60)
            b = fock.build_state(random_physical_state(rng, 1.0, 0.5, 0.5), 60)
            assert abs(fock.oracle_fidelity(a, b) - fock.oracle_fidelity(b, a)) < 1e-10

    def test_dimension_mismatch(self):
        a = fock.build_state(thermal_state(0.0), 20)
        b = fock.build_state(thermal_state(0.0), 30)
        with pytest.raises(InvalidParameterError):
            fock.oracle_fidelity(a, b)


class TestOracleSOverlap:
    def test_identical_any_s(self):
        rho = fock.build_state(thermal_state(0.5), 80)
        for s in (0.1, 0.5, 0.9):
            assert abs(fock.oracle_s_overlap(rho, rho, s) - 1.0) < 1e-10

    def test_power_zero_identity(self):
        # 0^0 = 1: rho^0 acts as the identity, so the trace of the other
        # state comes back
        rho0 = fock.build_state(thermal_state(0.0), 60)
        rho1 = fock.build_state(thermal_state(1.0), 60)
        assert abs(fock.oracle_s_overlap(rho0, rho1, 0.0) - 1.0) < 1e-8

    def test_half_matches_frozen_reference(self):
        case = load_oracle_cases()[1]  # vacuum vs thermal(2)
        _, s0, s1, cutoff, _, overlap = case
        rho0 = fock.build_state(s0, cutoff)
        rho1 = fock.build_state(s1, cutoff)
        assert abs(fock.oracle_s_overlap(rho0, rho1, 0.5) - overlap) < 1e-8

    def test_half_of_near_pure_pair_is_cutoff_stable(self):
        # oracle-workload seed 1, pair 36: nbar 0.13 and 0.45, overlap 9.3e-4.
        # Fractional powers of a clipped eigensolver spectrum left this pair
        # 2.5e-8 off the closed form at every cutoff from 90 to 203
        s0 = squeezed_thermal_state(
            0.1292204448402001, 0.6585653488304386, 1.2742157787105073,
            [0.22377496884255454, -1.4698883455445215],
        )
        s1 = squeezed_thermal_state(
            0.44864589210598527, 0.7851891633928064, 1.331694675205377,
            [1.3250208984212746, 1.3296255446201668],
        )
        closed = math.exp(-metrics.xi_qbb(s0, s1))
        for cutoff in (90, 135, 203):
            rho0, rho1 = fock.build_state(s0, cutoff), fock.build_state(s1, cutoff)
            assert abs(closed - fock.oracle_s_overlap(rho0, rho1, 0.5)) <= 1e-12

    def test_rejects_bad_s(self):
        rho = fock.build_state(thermal_state(0.0), 20)
        for bad in (1.5, "0.5", math.nan):
            with pytest.raises(InvalidParameterError):
                fock.oracle_s_overlap(rho, rho, bad)


def test_oracle_regression_against_frozen_table():
    # the committed table is the contract; recomputing must reproduce it
    for case_id, s0, s1, cutoff, fid, overlap in load_oracle_cases():
        rho0 = fock.build_state(s0, cutoff)
        rho1 = fock.build_state(s1, cutoff)
        assert abs(fock.oracle_fidelity(rho0, rho1) - fid) < 1e-8, f"case {case_id}"
        assert abs(fock.oracle_s_overlap(rho0, rho1, 0.5) - overlap) < 1e-8, f"case {case_id}"


def test_edge_s_overlap_against_closed_form_on_frozen_pairs():
    # p^0.05 lifts the thermal tail that the trace budget sized the table's
    # cutoffs for: at those cutoffs truncation alone leaves errors up to 1e-4,
    # so each pair is built two 1.5x escalations higher
    for case_id, s0, s1, cutoff, _, _ in load_oracle_cases():
        dim = int(math.ceil(1.5 * math.ceil(1.5 * cutoff)))
        rho0, rho1 = fock.build_state(s0, dim), fock.build_state(s1, dim)
        for s in (0.05, 0.95):
            closed = math.exp(kernel.log_s_overlap(s0.moments, s1.moments, s))
            oracle = fock.oracle_s_overlap(rho0, rho1, s)
            assert abs(closed - oracle) <= 1e-8, f"case {case_id}, s = {s}"
