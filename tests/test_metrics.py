import math

import numpy as np
import pytest

from conftest import (
    load_oracle_cases,
    random_physical_state,
    rotate,
    rotation_matrix,
    squeezed_vacuum,
)
from qlidar import fock, kernel, metrics
from qlidar.channel import ChannelParams, apply_loss
from qlidar.errors import InvalidParameterError
from qlidar.states import (
    MOMENT_MAX,
    GaussianState,
    ProbeBudget,
    probe_from_budget,
    thermal_state,
)

VACUUM = thermal_state(0.0)
COHERENT_1 = GaussianState([math.sqrt(2.0), 0.0], np.eye(2))  # |alpha|^2 = 1
THERMAL_1 = thermal_state(1.0)
THERMAL_2 = thermal_state(2.0)


def snr_at_angles(h1: GaussianState, h0: GaussianState, thetas) -> np.ndarray:
    """Squared homodyne SNR (u.d)^2 / (u.sigma1.u) at each LO angle, u = (cos, sin)
    and d = mu1 - mu0 (independent reference: a brute-force scan, no library calls)."""
    u = np.stack([np.cos(thetas), np.sin(thetas)])
    return ((h1.mu - h0.mu) @ u) ** 2 / np.einsum("ij,ik,kj->j", u, h1.sigma, u)


def _bures_sq_eig(sigma0: np.ndarray, sigma1: np.ndarray) -> float:
    """Eigendecomposition route for the Bures distance (independent reference)."""
    w, v = np.linalg.eigh(sigma0)
    root0 = (v * np.sqrt(w)) @ v.T
    inner = np.linalg.eigvalsh(root0 @ sigma1 @ root0)
    b2 = float(np.trace(sigma0) + np.trace(sigma1)) - 2.0 * float(np.sum(np.sqrt(np.clip(inner, 0.0, None))))
    return max(b2, 0.0)


class TestBures:
    def test_identical(self):
        m = np.array([[1.4, 0.3], [0.3, 1.1]])
        assert metrics.bures_sq(m, m) < 1e-14

    def test_commuting_scalar(self):
        # commuting closed form: sum of (sqrt differences)^2
        assert abs(metrics.bures_sq(np.eye(2), 4.0 * np.eye(2)) - 2.0) < 1e-14

    def test_commuting_diag(self):
        got = metrics.bures_sq(np.eye(2), np.diag([0.25, 4.0]))
        assert abs(got - 1.25) < 1e-14

    def test_symmetry_and_eig_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = random_physical_state(rng).sigma
            b = random_physical_state(rng).sigma
            ab = metrics.bures_sq(a, b)
            assert abs(ab - metrics.bures_sq(b, a)) < 1e-10
            assert abs(ab - _bures_sq_eig(a, b)) < 1e-10

    def test_rejects_non_spd(self):
        # each error names the covariance it is about
        for bad, reason in ((np.diag([1.0, -1.0]), " must be positive definite"),
                            (np.array([[1.0, 0.5], [0.0, 1.0]]), ": sigma must be symmetric"),
                            (np.eye(3), ": sigma must be 2x2"),
                            (np.diag([math.inf, 1.0]), ": state moments must be finite")):
            for name, args in (("sigma0", (bad, np.eye(2))), ("sigma1", (np.eye(2), bad))):
                with pytest.raises(InvalidParameterError, match=f"^{name}{reason}"):
                    metrics.bures_sq(*args)


def test_scalar_api_names_the_unphysical_state():
    bad = GaussianState([0, 0], np.diag([0.5, 0.5]))
    with pytest.raises(InvalidParameterError, match="^state1 is unphysical: det"):
        metrics.w2_sq(VACUUM, bad)
    with pytest.raises(InvalidParameterError, match="^state0 is unphysical: det"):
        metrics.metric_report(VACUUM, bad)


class TestW2:
    def test_identical_states(self):
        state = probe_from_budget(ProbeBudget(4.0, 0.3))
        w2, disp, b2 = metrics.w2_sq(state, state)
        assert w2 < 1e-12 and disp < 1e-12 and b2 < 1e-12

    def test_vacuum_vs_coherent(self):
        w2, disp, b2 = metrics.w2_sq(VACUUM, COHERENT_1)
        assert abs(w2 - 2.0) < 1e-12
        assert abs(disp - 2.0) < 1e-12
        assert b2 == 0.0

    def test_vacuum_vs_squeezed(self):
        # commuting closed form with sqrt(sigma) entries e^{-r}, e^{r}
        expected = (math.exp(-0.5) - 1.0) ** 2 + (math.exp(0.5) - 1.0) ** 2
        w2, disp, b2 = metrics.w2_sq(VACUUM, squeezed_vacuum(0.5))
        assert abs(w2 - expected) < 1e-12
        assert disp == 0.0
        assert abs(b2 - expected) < 1e-12

    def test_decomposition_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = random_physical_state(rng), random_physical_state(rng)
            w2, disp, b2 = metrics.w2_sq(a, b)
            assert abs(w2 - (disp + b2)) < 1e-12

    def test_metric_axioms_sample(self):
        rng = np.random.default_rng(37)
        for _ in range(2000):
            a, b, c = (random_physical_state(rng) for _ in range(3))
            dab = math.sqrt(metrics.w2_sq(a, b)[0])
            dba = math.sqrt(metrics.w2_sq(b, a)[0])
            dac = math.sqrt(metrics.w2_sq(a, c)[0])
            dbc = math.sqrt(metrics.w2_sq(b, c)[0])
            assert dab >= 0.0
            assert abs(dab - dba) < 1e-10
            assert dac <= dab + dbc + 1e-9

    def test_mean_scaling_exactness(self):
        # equal covariances: the channel contracts w2_sq by exactly eta_eff
        rng = np.random.default_rng(41)
        for _ in range(100):
            sigma = random_physical_state(rng).sigma
            a = GaussianState(rng.uniform(-3, 3, 2), sigma)
            b = GaussianState(rng.uniform(-3, 3, 2), sigma)
            params = ChannelParams(eta=float(rng.uniform(0, 1)), n_th=float(rng.uniform(0, 2)))
            before = metrics.w2_sq(a, b)[0]
            after = metrics.w2_sq(apply_loss(a, params), apply_loss(b, params))[0]
            assert abs(after - params.eta_eff * before) < 1e-12 * max(1.0, before)


class TestFidelity:
    def test_identical(self):
        state = probe_from_budget(ProbeBudget(3.0, 0.6))
        assert abs(metrics.gaussian_fidelity(state, state) - 1.0) < 1e-12

    def test_coherent_pair(self):
        # |<alpha|beta>|^2 with |alpha - beta|^2 = 1
        got = metrics.gaussian_fidelity(VACUUM, COHERENT_1)
        assert abs(got - math.exp(-1.0)) < 1e-12

    def test_vacuum_vs_thermal(self):
        # ground-state population of a thermal state: 1 / (n + 1)
        got = metrics.gaussian_fidelity(VACUUM, THERMAL_2)
        assert abs(got - 1.0 / 3.0) < 1e-12
        rho0 = fock.build_state(VACUUM, 200)
        rho1 = fock.build_state(THERMAL_2, 200)
        assert abs(got - fock.oracle_fidelity(rho0, rho1)) < 1e-6

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            a, b = random_physical_state(rng), random_physical_state(rng)
            f = metrics.gaussian_fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-12
            assert abs(f - metrics.gaussian_fidelity(b, a)) < 1e-12


class TestXiQbb:
    def test_identical(self):
        state = probe_from_budget(ProbeBudget(2.0, 0.2))
        assert metrics.xi_qbb(state, state) < 1e-10
        assert metrics.metric_report(state, state).xi_qbb_proxy < 1e-10

    def test_coherent_pair_modes(self):
        # proxy: -(1/2) ln F = 0.5.  For pure states the s = 1/2 overlap equals
        # the fidelity itself, so the overlap exponent is exactly twice that.
        proxy = metrics.metric_report(COHERENT_1, VACUUM).xi_qbb_proxy
        overlap = metrics.xi_qbb(VACUUM, COHERENT_1)
        assert abs(proxy - 0.5) < 1e-12
        assert abs(overlap - 1.0) < 1e-12
        assert abs(overlap - 2.0 * proxy) < 1e-8

    def test_pure_pairs_overlap_doubles_proxy(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a = rotate(squeezed_vacuum(float(rng.uniform(0, 1))), float(rng.uniform(0, math.pi)))
            b = GaussianState(rng.uniform(-2, 2, 2), squeezed_vacuum(float(rng.uniform(0, 1))).sigma)
            overlap = metrics.xi_qbb(a, b)
            proxy = metrics.metric_report(b, a).xi_qbb_proxy
            assert abs(overlap - 2.0 * proxy) < 1e-8

    def test_vacuum_thermal_overlap_vs_oracle(self):
        got = metrics.xi_qbb(VACUUM, THERMAL_2)
        rho0 = fock.build_state(VACUUM, 200)
        rho1 = fock.build_state(THERMAL_2, 200)
        oracle = -math.log(fock.oracle_s_overlap(rho0, rho1, 0.5))
        assert abs(got - oracle) < 1e-6

    def test_saturation_cap(self):
        # |mu|^2 = 6400: every exponent is 1600 or 3200 before the cap
        far = GaussianState([80.0, 0.0], np.eye(2))
        assert metrics.XI_SATURATION_CAP == 700.0
        for exponent in (metrics.xi_qbb(VACUUM, far), metrics.xi_qcb(VACUUM, far),
                         metrics.metric_report(far, VACUUM).xi_qbb_proxy):
            assert exponent == metrics.XI_SATURATION_CAP


class TestXiQcb:
    def test_identical(self):
        state = probe_from_budget(ProbeBudget(2.0, 0.5))
        assert metrics.xi_qcb(state, state) < 1e-10

    def test_symmetric_pair_minimizer(self):
        other = GaussianState([0.0, math.sqrt(2.0)], np.eye(2))
        s_star, _ = metrics.s_overlap_minimum(COHERENT_1, other)
        assert abs(s_star - 0.5) < 1e-4
        assert abs(metrics.xi_qcb(COHERENT_1, other) - metrics.xi_qbb(COHERENT_1, other)) < 1e-8

    def test_dominates_qbb(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a, b = random_physical_state(rng), random_physical_state(rng)
            assert metrics.xi_qcb(a, b) >= metrics.xi_qbb(a, b) - 1e-10

    def test_vacuum_thermal_s_grid_vs_oracle(self):
        # boundary minimiser case; closed form checked on an interior s grid
        rho0 = fock.build_state(VACUUM, 200)
        rho1 = fock.build_state(THERMAL_2, 200)
        for s in np.arange(0.05, 0.96, 0.05):
            closed = math.exp(kernel.log_s_overlap(VACUUM.moments, THERMAL_2.moments, float(s)))
            oracle = fock.oracle_s_overlap(rho0, rho1, float(s))
            assert abs(closed - oracle) < 1e-6
        xi_cb = metrics.xi_qcb(VACUUM, THERMAL_2)
        assert xi_cb >= metrics.xi_qbb(VACUUM, THERMAL_2) - 1e-10
        # the vacuum is pure, so the minimum is the s -> 0 edge value Q = 1/3
        assert abs(xi_cb - math.log(3.0)) < 1e-12
        assert metrics.s_overlap_minimum(VACUUM, THERMAL_2)[0] == 0.0

    def test_rotated_pure_states_take_the_pure_edge(self):
        # the det of a rotated squeezed vacuum rounds off 1 by up to a few
        # eps (sqq spp + sqp^2); within 4 of those the state is pure, so its
        # minimum is ln F at s* = 1, not an interior value up to 12% off
        rng = np.random.default_rng(29)
        for _ in range(500):
            sigma = rotate(squeezed_vacuum(rng.uniform(0.0, 4.0)), rng.uniform(0.0, 6.3)).sigma
            state = GaussianState(rng.uniform(-2.0, 2.0, 2), sigma)
            s_star, best = metrics.s_overlap_minimum(THERMAL_1, state)
            assert s_star == 1.0
            assert best == kernel.log_fidelity(THERMAL_1.moments, state.moments)

    def test_chernoff_takes_16_overlap_evaluations(self, monkeypatch):
        # 12 bisection slopes, one stacked slope call at both ends of the last bracket,
        # one secant slope, then one stacked call of ln Q_s at s_star and at s = 1/2; each
        # on the pair's own shape but the two stacked calls
        calls = []
        closures = kernel._log_overlap

        def counted(m0, m1):
            def wrap(name, f):
                def wrapper(s):
                    calls.append((name, np.shape(s)))
                    return f(s)
                return wrapper

            value, slope, mixed = closures(m0, m1)
            return wrap("value", value), wrap("slope", slope), mixed

        monkeypatch.setattr(kernel, "_log_overlap", counted)
        metrics.s_overlap_minimum(THERMAL_1, GaussianState([0.5, -0.3], np.diag([2.0, 4.0])))
        assert calls == ([("slope", ())] * 12 + [("slope", (2,)), ("slope", ())]
                         + [("value", (2,))])

    def test_scalar_minimum_is_the_batched_one(self):
        # a general pair whose slope cancels near s*, so a 1-ulp difference between the
        # scalar and the batched route (numpy scalar ** is C pow(), not the array square)
        # grows to a flipped bisection branch; both routes must give the same bits.  The
        # minimum is 6.0e-16 above the 50-digit one, -0.709586026856685413 at s* = 0.649556
        h0 = GaussianState.from_moments((2.456266685841861, 0.30994626445227585, 5.28197410538129,
                                         0.023740030776651856, 2.767994128416328))
        h1 = GaussianState.from_moments((-0.06789540783267793, 0.6775493330735691, 9.097762478514328,
                                         -4.813503497055847, 2.8701387331574346))
        batched = [tuple(np.array([x]) for x in state.moments) for state in (h0, h1)]
        s_star, best = kernel.chernoff(*batched)[:2]
        assert metrics.s_overlap_minimum(h0, h1) == (s_star[0], best[0]) == (
            0.6495558267175077, -0.7095860268566848)
        rep = metrics.metric_report(h1, h0)
        for key, values in kernel.report(*batched).items():
            assert getattr(rep, key) == values[0], key

    def test_near_pure_state_stays_mixed(self):
        state = GaussianState([0.5, 0.0], np.diag([1.0 + 1e-10, 1.0]))
        assert kernel._nu(state.moments[2:]) > 1.0
        assert 0.0 < metrics.s_overlap_minimum(THERMAL_1, state)[0] < 1.0


class TestHomodyneSnr:
    """The test-local scan at fixed angles against ``metric_report``'s optimum."""

    def test_aligned(self):
        h1 = GaussianState([2.0, 0.0], np.eye(2))
        rep = metrics.metric_report(h1, VACUUM)
        assert abs(snr_at_angles(h1, VACUUM, [0.0])[0] - 4.0) < 1e-12
        assert abs(rep.snr_sq_opt - 4.0) < 1e-12 and rep.theta_opt == 0.0

    def test_orthogonal(self):
        h1 = GaussianState([2.0, 0.0], np.eye(2))
        rep = metrics.metric_report(h1, VACUUM)
        assert snr_at_angles(h1, VACUUM, [rep.theta_opt + math.pi / 2])[0] < 1e-12

    def test_squeezing_boost(self):
        h1 = GaussianState([2.0, 0.0], np.diag([0.25, 4.0]))
        rep = metrics.metric_report(h1, VACUUM)
        assert abs(snr_at_angles(h1, VACUUM, [0.0])[0] - 16.0) < 1e-12
        assert abs(rep.snr_sq_opt - 16.0) < 1e-12 and rep.theta_opt == 0.0


class TestOptimalAngle:
    def test_aligned_case(self):
        # a tiny negative mu_p puts atan2 just below 0, which mod pi rounds to pi
        for mu, variances, snr in (([2.0, 0.0], [0.25, 4.0], 16.0),
                                   ([1.0, -1e-20], [2.0, 3.0], 0.5),
                                   ([1.0, 1e-20], [2.0, 3.0], 0.5)):
            rep = metrics.metric_report(GaussianState(mu, np.diag(variances)), VACUUM)
            assert 0.0 <= rep.theta_opt < math.pi
            assert abs(rep.theta_opt - 0.0) < 1e-15
            assert abs(rep.snr_sq_opt - snr) < 1e-9
            assert rep.displacement_term > 0.0

    def test_no_displacement_degenerate(self):
        tilted = [GaussianState([0.0, 0.0], [[1.0, b], [b, 4.0]]) for b in (-1e-12, 1e-12)]
        for h1 in [squeezed_vacuum(0.7), *tilted]:
            rep = metrics.metric_report(h1, VACUUM)
            assert rep.displacement_term == 0.0
            assert rep.snr_sq_opt == 0.0
            assert 0.0 <= rep.theta_opt < math.pi
            # variance-minimising direction is the squeezed (first) axis
            assert min(rep.theta_opt, math.pi - rep.theta_opt) < 1e-9

    def test_rotated_vs_grid(self):
        rot = rotation_matrix(math.pi / 6)
        h1 = GaussianState([2.0, 0.0], rot @ np.diag([0.25, 4.0]) @ rot.T)
        rep = metrics.metric_report(h1, VACUUM)
        thetas = np.linspace(0.0, math.pi, 100_000, endpoint=False)
        grid_max = float(np.max(snr_at_angles(h1, VACUUM, thetas)))
        assert rep.snr_sq_opt >= grid_max - 1e-6 * grid_max
        assert abs(rep.snr_sq_opt - grid_max) < 1e-6 * grid_max

    def test_dominates_sampled_angles(self):
        rng = np.random.default_rng(59)
        thetas = np.linspace(0, math.pi, 360, endpoint=False)
        for _ in range(20):
            h1 = random_physical_state(rng)
            h0 = random_physical_state(rng)
            rep = metrics.metric_report(h1, h0)
            at_opt = snr_at_angles(h1, h0, [rep.theta_opt])[0]
            assert abs(at_opt - rep.snr_sq_opt) <= 1e-12 * rep.snr_sq_opt
            assert np.all(rep.snr_sq_opt >= snr_at_angles(h1, h0, thetas) - 1e-9)


class TestRotationInvariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            a, b = random_physical_state(rng), random_physical_state(rng)
            theta = float(rng.uniform(0, 2 * math.pi))
            ar, br = rotate(a, theta), rotate(b, theta)
            assert abs(metrics.w2_sq(a, b)[0] - metrics.w2_sq(ar, br)[0]) < 1e-10
            assert abs(metrics.bures_sq(a.sigma, b.sigma) - metrics.bures_sq(ar.sigma, br.sigma)) < 1e-10
            assert abs(metrics.gaussian_fidelity(a, b) - metrics.gaussian_fidelity(ar, br)) < 1e-10
            assert abs(metrics.xi_qbb(a, b) - metrics.xi_qbb(ar, br)) < 1e-10
            assert abs(metrics.xi_qcb(a, b) - metrics.xi_qcb(ar, br)) < 1e-10


class TestOracleGrid:
    def test_closed_forms_match_frozen_oracle(self):
        for case_id, s0, s1, _, fid, overlap in load_oracle_cases():
            got_f = metrics.gaussian_fidelity(s0, s1)
            got_q = math.exp(kernel.log_s_overlap(s0.moments, s1.moments, 0.5))
            assert abs(got_f - fid) < 1e-6, f"fidelity mismatch on case {case_id}"
            assert abs(got_q - overlap) < 1e-6, f"overlap mismatch on case {case_id}"


def test_metric_report_consistency():
    probe = probe_from_budget(ProbeBudget(5.0, 0.5))
    out = apply_loss(probe, ChannelParams(eta=0.6, n_th=1.0))
    env = thermal_state(1.0)
    rep = metrics.metric_report(out, env)
    assert abs(rep.w2_sq - (rep.displacement_term + rep.bures_sq)) < 1e-12
    assert rep.xi_qcb >= rep.xi_qbb - 1e-10
    assert 0.0 <= rep.fidelity <= 1.0 + 1e-12
    assert abs(rep.w2_sq - metrics.w2_sq(env, out)[0]) < 1e-12
    assert abs(rep.xi_qbb - metrics.xi_qbb(env, out)) < 1e-12


def test_report_takes_one_overlap_setup_per_call(monkeypatch):
    # ln F, ln Q_1/2 and the Chernoff minimum of every pair come from one chernoff
    # call: one set of ln Q_s closures and one ln F, each with nu once per state
    calls = []

    def count(name):
        f = getattr(kernel, name)

        def wrapper(*args):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(kernel, name, wrapper)

    for name in ("_log_overlap", "log_fidelity", "_nu"):
        count(name)
    kernel.report(*kernel.lidar_pair(np.linspace(0.0, 1.0, 5), 5.0, 0.6, 1.0))
    assert {name: calls.count(name) for name in set(calls)} == {
        "_log_overlap": 1, "log_fidelity": 1, "_nu": 4}


def test_plain_float_moments_score_as_numpy_scalars():
    # kernel forms take Python floats as well as numpy scalars and arrays: a mixed
    # pair with s* near 0.65, a pure state against a mixed one, a self-pair and a
    # pair with no displacement give the same bits either way
    general = ((2.456266685841861, 0.30994626445227585, 5.28197410538129,
                0.023740030776651856, 2.767994128416328),
               (-0.06789540783267793, 0.6775493330735691, 9.097762478514328,
                -4.813503497055847, 2.8701387331574346))
    still = (THERMAL_2.moments, (0.0, 0.0, 0.5, 0.2, 3.0))
    pairs = [general, (VACUUM.moments, THERMAL_1.moments), (general[0], general[0]), still]
    for m0, m1 in pairs:
        plain = tuple(tuple(float(x) for x in m) for m in (m0, m1))
        scalar = tuple(tuple(np.float64(x) for x in m) for m in plain)
        assert all(type(x) is float for m in plain for x in m)
        got, want = kernel.chernoff(*plain), kernel.chernoff(*scalar)
        assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]
        got, want = kernel.report(*plain), kernel.report(*scalar)
        assert {k: repr(float(v)) for k, v in got.items()} == {
            k: repr(float(v)) for k, v in want.items()}


def _state_up_to_the_bound(rng, at_bound: bool) -> GaussianState:
    """A physical state with entries log-uniform up to ``MOMENT_MAX``; ``at_bound`` puts
    one sigma diagonal and one mu entry at the bound, of either sign for mu."""
    big = 30.0 if at_bound else rng.uniform(-30.0, 30.0)
    sqq, spp = 10.0 ** big, 10.0 ** rng.uniform(-big, 30.0)
    # sqq spp >= 1, and |sqp| at most 0.99 of its det >= 1 limit keeps det away from cancellation
    sqp = rng.uniform(-0.99, 0.99) * math.sqrt(max(0.0, sqq * spp - 1.0))
    mu = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-30.0, 30.0, 2)
    if at_bound:
        mu[rng.integers(2)] = rng.choice([-1.0, 1.0]) * MOMENT_MAX
    sigma = [[sqq, sqp], [sqp, spp]] if rng.random() < 0.5 else [[spp, sqp], [sqp, sqq]]
    return GaussianState(mu, sigma)


def test_every_score_is_finite_up_to_the_moment_bound():
    # no overflow, NaN or RuntimeWarning anywhere a state may reach
    rng = np.random.default_rng(34)
    for i in range(600):
        h1, h0 = _state_up_to_the_bound(rng, i % 2 == 0), _state_up_to_the_bound(rng, i % 3 == 0)
        rep = metrics.metric_report(h1, h0)
        assert all(math.isfinite(v) for v in vars(rep).values()), (h1.moments, h0.moments)
