import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from qlidar import allocation, kernel, metrics
from qlidar.channel import ChannelParams, apply_loss, effective_noise
from qlidar.errors import InvalidParameterError, SingularityError, UndefinedThresholdError
from qlidar.states import N_TOT_MAX, GaussianState, ProbeBudget, thermal_state


def straight_line_w2(lam, n_tot, eta, n_th):
    """Independent re-derivation of the score: moment map + Gelbrich, no library calls."""
    r = math.asinh(math.sqrt(lam * n_tot))
    t = 2.0 * n_th + 1.0
    s00 = eta * math.exp(-2.0 * r) + (1.0 - eta) * t
    s11 = eta * math.exp(2.0 * r) + (1.0 - eta) * t
    disp = eta * 2.0 * (1.0 - lam) * n_tot
    bures = (math.sqrt(s00) - math.sqrt(t)) ** 2 + (math.sqrt(s11) - math.sqrt(t)) ** 2
    return disp + bures


class TestW2Score:
    def test_pure_displacement_exact(self):
        for eta in np.linspace(0.0, 1.0, 11):
            rep = metrics.w2_score(ProbeBudget(7.0, 0.0),
                                   ChannelParams(eta=float(eta), n_th=0.0))
            assert abs(rep.w2_sq - 2.0 * eta * 7.0) <= 1e-12 * max(1.0, 2 * eta * 7)
            assert rep.bures_sq == 0.0

    def test_full_loss_is_zero(self):
        for lam in (0.0, 0.5, 0.95):
            rep = metrics.w2_score(ProbeBudget(10.0, lam), ChannelParams(eta=0.0, n_th=0.7))
            assert rep.w2_sq < 1e-12

    def test_frozen_independent_path(self):
        # value recorded from the straight-line reimplementation above
        rep = metrics.w2_score(ProbeBudget(10.0, 0.5), ChannelParams(eta=0.4, n_th=0.1))
        assert abs(rep.w2_sq - 8.004183647811217) < 1e-12
        assert abs(rep.w2_sq - straight_line_w2(0.5, 10.0, 0.4, 0.1)) < 1e-12

    def test_matches_straight_line_randomized(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            lam = float(rng.uniform(0, 0.95))
            n_tot = float(rng.uniform(0.1, 20))
            eta = float(rng.uniform(0, 1))
            n_th = float(rng.uniform(0, 2))
            rep = metrics.w2_score(ProbeBudget(n_tot, lam), ChannelParams(eta=eta, n_th=n_th))
            assert abs(rep.w2_sq - straight_line_w2(lam, n_tot, eta, n_th)) < 1e-10

    def test_finite_at_the_budget_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam, eta, phase, n_th in itertools.product(
                    np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6), (0.0, math.pi / 2),
                    (0.0, 2.0, 1e8)):
                rep = metrics.w2_score(ProbeBudget(N_TOT_MAX, lam, phase),
                                       ChannelParams(eta=eta, n_th=n_th))
                assert all(math.isfinite(v) for v in vars(rep).values())

    def test_folds_electronic_noise(self):
        # v_el is scored as the channel with n_th -> n_eff, every field bit for bit
        rng = np.random.default_rng(907)
        for _ in range(8):
            budget = ProbeBudget(float(10.0 ** rng.uniform(-2, 4)), float(rng.uniform(0, 1)),
                                 float(rng.uniform(0.1, 2.0 * math.pi)))
            params = ChannelParams(eta=float(rng.uniform(0, 1)), n_th=float(rng.uniform(0, 3)),
                                   eta_det=float(rng.uniform(0.3, 1)),
                                   v_el=float(rng.uniform(0.01, 1)))
            folded = ChannelParams(eta=params.eta, n_th=effective_noise(params),
                                   eta_det=params.eta_det)
            want = vars(metrics.w2_score(budget, folded))
            for key, value in vars(metrics.w2_score(budget, params)).items():
                assert value == want[key], key

    def test_is_metric_report_of_its_pair_bit_for_bit(self):
        # w2_score scores the kernel pair unchecked; metric_report checks the same
        # pair as states first: the two agree on every field, bit for bit
        rng = np.random.default_rng(4411)
        for i in range(300):
            n_tot = N_TOT_MAX if i % 50 == 0 else float(10.0 ** rng.uniform(-3, 20))
            budget = ProbeBudget(n_tot, float(rng.choice([0.0, 1.0, rng.uniform()])),
                                 float(rng.uniform(0.0, 2.0 * math.pi)) if i % 3 else 0.0)
            params = ChannelParams(eta=float(rng.uniform()), n_th=float(10.0 ** rng.uniform(-3, 3)),
                                   eta_det=float(rng.uniform(0.5, 1.0)),
                                   v_el=float(rng.uniform(0.0, 0.5)) if i % 2 else 0.0)
            h0, h1 = (GaussianState.from_moments(m) for m in kernel.lidar_pair(
                budget.lam, budget.n_tot, params.eta_eff, params.n_th, params.v_el,
                budget.displacement_phase))
            got = dataclasses.astuple(metrics.w2_score(budget, params))
            want = dataclasses.astuple(metrics.metric_report(h1, h0))
            assert np.array(got).tobytes() == np.array(want).tobytes(), (budget, params)

    def test_electronic_noise_at_unit_transmissivity_is_singular(self):
        with pytest.raises(SingularityError):
            metrics.w2_score(ProbeBudget(10.0, 0.5), ChannelParams(eta=1.0, n_th=0.1, v_el=0.2))


def row_optimum(n_tot, params, lambda_grid):
    """(lambda_opt, score) of the one-eta-row allocation grid at ``params.eta``."""
    grid = allocation.allocation_grid(n_tot, params.n_th, [params.eta], lambda_grid)
    return float(grid.lambda_opt[0]), float(grid.scores[0].max())


class TestOptimizeLambda:
    """The optimal squeezing fraction of one eta row of ``allocation_grid``."""

    def test_deep_loss_collapses_classical(self):
        lam_opt, _ = row_optimum(
            10.0, ChannelParams(eta=0.05, n_th=0.1), allocation.default_lambda_grid(0.01)
        )
        assert lam_opt == 0.0

    def test_lossless_prefers_squeezing(self):
        lam_opt, _ = row_optimum(
            10.0, ChannelParams(eta=1.0, n_th=0.1), allocation.default_lambda_grid(0.01)
        )
        assert lam_opt > 0.0

    def test_frozen_brute_force_case(self):
        grid = allocation.default_lambda_grid(0.01)
        lam_opt, score = row_optimum(10.0, ChannelParams(eta=0.3, n_th=0.1), grid)
        # brute-force oracle over the same grid, independent formulas
        scores = [straight_line_w2(float(l), 10.0, 0.3, 0.1) for l in grid]
        best = int(np.argmax(scores))
        assert lam_opt == float(grid[best]) == 0.95
        assert abs(score - 6.514755572376544) < 1e-12

    def test_tie_break_determinism(self):
        grid = allocation.default_lambda_grid(0.01)
        params = ChannelParams(eta=0.2, n_th=0.5)
        results = {row_optimum(5.0, params, grid) for _ in range(3)}
        assert len(results) == 1


class TestAllocationGrid:
    def test_shapes_and_row_optimum(self):
        grid = allocation.allocation_grid(10.0, 0.1,
                                          allocation.default_eta_grid(0.05),
                                          allocation.default_lambda_grid(0.05))
        assert grid.scores.shape == (grid.eta_grid.size, grid.lambda_grid.size)
        for i in range(grid.eta_grid.size):
            assert grid.lambda_opt[i] in grid.lambda_grid
            row_max = grid.scores[i].max()
            j = np.where(grid.lambda_grid == grid.lambda_opt[i])[0][0]
            assert grid.scores[i, j] == row_max

    def test_cells_match_scalar_score(self):
        etas = allocation.default_eta_grid(0.1)
        lams = allocation.default_lambda_grid(0.1)
        # every batched cell is bit-identical to the scalar score of its allocation
        rng = np.random.default_rng(97)
        for _ in range(3):
            n_tot, n_th = float(rng.uniform(0.5, 40.0)), float(rng.uniform(0.0, 3.0))
            eta_det = float(rng.uniform(0.3, 1.0))
            grid = allocation.allocation_grid(n_tot, n_th, etas, lams, eta_det=eta_det)
            for i, eta in enumerate(etas):
                params = ChannelParams(eta=float(eta), n_th=n_th, eta_det=eta_det)
                for j, lam in enumerate(lams):
                    score = metrics.w2_score(ProbeBudget(n_tot, lam), params).w2_sq
                    assert grid.scores[i, j] == score

    def test_row_blocks_leave_the_scores_unchanged(self, monkeypatch):
        """Row blocks that do and do not divide the eta count, with the grid below, at
        and above one block, give the scores of a one-block grid bit for bit."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings, strategies as st

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(n_eta=st.integers(1, 90), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
        @example(n_eta=60, rows=20, seed=3)  # blocks divide the eta count
        @example(n_eta=61, rows=20, seed=3)  # the last block is partial
        @example(n_eta=20, rows=20, seed=3)  # one block exactly
        @example(n_eta=7, rows=20, seed=3)  # below one block
        def check(n_eta, rows, seed):
            rng = np.random.default_rng(seed)
            n_tot, n_th = float(rng.uniform(0.5, 40.0)), float(rng.uniform(0.0, 3.0))
            eta_det = float(rng.uniform(0.3, 1.0))
            etas = np.linspace(0.0, 1.0, n_eta)
            lams = np.linspace(0.0, 0.95, int(rng.integers(1, 30)))
            monkeypatch.setattr(allocation, "_ROWS", n_eta)
            whole = allocation.allocation_grid(n_tot, n_th, etas, lams, eta_det=eta_det)
            monkeypatch.setattr(allocation, "_ROWS", rows)
            blocked = allocation.allocation_grid(n_tot, n_th, etas, lams, eta_det=eta_det)
            assert blocked.scores.tobytes() == whole.scores.tobytes()
            assert blocked.lambda_opt.tobytes() == whole.lambda_opt.tobytes()

        check()

    def test_monotone_in_eta_at_lambda_zero(self):
        etas = np.linspace(0.0, 1.0, 100)
        grid = allocation.allocation_grid(8.0, 0.3, etas, np.array([0.0]))
        assert np.all(np.diff(grid.scores[:, 0]) >= 0)

    def test_displacement_term_linearity(self):
        # displacement component is exactly 2 eta (1 - lam) n_tot everywhere
        for eta in (0.1, 0.45, 0.9):
            for lam in (0.0, 0.3, 0.9):
                rep = metrics.w2_score(ProbeBudget(12.0, lam), ChannelParams(eta=eta, n_th=0.8))
                expected = 2.0 * eta * (1.0 - lam) * 12.0
                assert abs(rep.displacement_term - expected) < 1e-12 * max(1.0, expected)

    def test_transition_orderings(self):
        step = 0.02  # coarse but preserves the orderings
        etas = allocation.default_eta_grid(step)
        lams = allocation.default_lambda_grid(step)

        def transition(n, t):
            return allocation.transition_eta(allocation.allocation_grid(n, t, etas, lams))

        low_noise = transition(10.0, 0.1)
        high_noise = transition(10.0, 2.0)
        assert low_noise is not None
        assert high_noise is None or high_noise > low_noise
        strong = transition(20.0, 0.1)
        weak = transition(5.0, 0.1)
        assert strong is not None and weak is not None and strong < weak


NAN = float("nan")
ETAS = allocation.default_eta_grid(0.25)
LAMS = allocation.default_lambda_grid(0.25)


@pytest.mark.parametrize("call", [
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([0.0, 1.2]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([-0.1, 0.5]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, np.array([0.0, 1.2])),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, np.array([-0.1, 0.5])),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([0.2, NAN]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, np.array([0.2, NAN])),
    lambda: allocation.allocation_grid(-1.0, 0.1, ETAS, LAMS),
    lambda: allocation.allocation_grid(10.0, -0.1, ETAS, LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, LAMS, eta_det=0.0),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, LAMS, eta_det=1.5),
    lambda: allocation.allocation_grid(2.0 * N_TOT_MAX, 0.1, ETAS, LAMS),
    lambda: allocation.allocation_grid(math.inf, 0.1, ETAS, LAMS),
    lambda: allocation.allocation_grid(10.0, NAN, ETAS, LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, LAMS[::-1]),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS[::-1], LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, np.array([])),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([0.5, 0.5]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, LAMS, eta_det=NAN),
    lambda: allocation.gradient_diagnostics(2.0 * N_TOT_MAX, ChannelParams(eta=0.5, n_th=0.1)),
    lambda: allocation.default_eta_grid(0.0),
    lambda: allocation.default_eta_grid(-0.1),
    lambda: allocation.default_lambda_grid(NAN),
    lambda: allocation.default_lambda_grid(math.inf),
    lambda: allocation.eta_critical(10.0, NAN),
    lambda: allocation.eta_critical(10.0, -0.1),
    lambda: allocation.eta_critical(10.0, "0.1"),
    lambda: allocation.default_eta_grid("0.1"),
    lambda: allocation.allocation_grid(10.0, 0.1, ETAS, np.array([0.5, 0.5])),
    lambda: allocation.allocation_grid(10.0, "0.1", ETAS, LAMS),
    lambda: allocation.gradient_diagnostics(0.0, ChannelParams(eta=0.5, n_th=0.1)),
    lambda: allocation.default_eta_grid(1.0 / allocation.MAX_GRID_POINTS),
    lambda: allocation.default_lambda_grid(0.95 / allocation.MAX_GRID_POINTS),
    lambda: allocation.default_eta_grid(1e-300),
    lambda: allocation.default_lambda_grid(5e-324),
    lambda: allocation.eta_critical(1e21, 0.1),
    lambda: allocation.eta_critical(10.0, 1e9),
    lambda: allocation.allocation_grid(5.0, 0.1, 0.3, np.array([0.0, 0.5])),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([[0.1, 0.2], [0.3, 0.4]]), LAMS),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([0.1, 0.9]), np.array([[0.0, 0.5]])),
    lambda: allocation.allocation_grid(10.0, 0.1, np.array([0.1, 0.2]), np.array([[0.0, 0.5]])),
])
def test_array_inputs_are_validated(call):
    # the grid drivers check their parameters once per call, not per cell
    with pytest.raises(InvalidParameterError):
        call()


NOISY = ChannelParams(eta=0.5, n_th=0.1, v_el=0.2)


@pytest.mark.parametrize("call", [
    lambda: apply_loss(thermal_state(0.1), NOISY),
    lambda: allocation.gradient_diagnostics(10.0, NOISY),
])
def test_electronic_noise_is_rejected_not_ignored(call):
    # a single-state map has no detector, and the analytic slopes are in n_th
    with pytest.raises(InvalidParameterError, match="effective_noise"):
        call()


class TestEtaCritical:
    def test_low_noise_case(self):
        got = allocation.eta_critical(10.0, 0.1)
        assert abs(got - 1.2 / (1.0 + 10.0 / 1.2)) < 1e-15
        assert allocation.eta_critical(np.int64(10), np.float64(0.1)) == got

    def test_unreachable_case(self):
        got = allocation.eta_critical(5.0, 2.0)
        assert abs(got - 2.5) < 1e-15
        assert got > 1.0  # no quantum regime at any transmissivity

    def test_large_power_limit(self):
        assert allocation.eta_critical(1e6, 0.0) < 1e-5

    def test_monotonicity_lattice(self):
        n_ths = (0.0, 0.1, 0.5, 1.0, 2.0)
        n_tots = (1.0, 5.0, 10.0, 20.0)
        for n in n_tots:
            vals = [allocation.eta_critical(n, t) for t in n_ths]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for t in n_ths:
            vals = [allocation.eta_critical(n, t) for n in n_tots]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_undefined_at_zero_power(self):
        with pytest.raises(UndefinedThresholdError):
            allocation.eta_critical(0.0, 0.5)

    def test_effective_substitution(self):
        params = ChannelParams(eta=0.5, n_th=2.0, v_el=0.1)
        got = allocation.eta_critical_effective(10.0, params)
        assert abs(got - allocation.eta_critical(10.0, 2.1)) < 1e-15


class TestGradientDiagnostics:
    def test_lossless_displacement_slope(self):
        d = allocation.gradient_diagnostics(10.0, ChannelParams(eta=1.0, n_th=0.0))
        assert d.d_disp_dlambda == -20.0
        assert abs(d.d_disp_fd - (-20.0)) < 1e-8 * 20.0

    def test_dark_channel_all_zero(self):
        d = allocation.gradient_diagnostics(10.0, ChannelParams(eta=0.0, n_th=0.5))
        assert d.d_disp_dlambda == 0.0
        assert d.d_disp_fd == 0.0
        assert d.d_cov_fd == 0.0

    def test_cov_ratio_is_nan_on_a_dark_channel(self):
        # at eta = 0 both covariance slopes vanish, so their ratio is undefined
        d = allocation.gradient_diagnostics(10.0, ChannelParams(eta=0.0, n_th=0.5))
        assert d.d_cov_dlambda_paper == d.d_cov_fd == 0.0
        assert math.isnan(d.cov_ratio)

    def test_perturbative_estimate_value(self):
        d = allocation.gradient_diagnostics(10.0, ChannelParams(eta=0.5, n_th=0.1))
        assert abs(d.d_cov_dlambda_paper - 38.88888888888889) < 1e-12
        # the estimate is not gated against the finite difference, only reported
        assert d.d_cov_fd > 0.0
        assert math.isfinite(d.cov_ratio)

    def test_covariance_fd_matches_closed_form_slope(self):
        # the Bures slope at lambda -> 0+ in closed form: with t = 2 n_th + 1 and
        # m = eta + (1 - eta) t, 4 eta N [1 - sqrt(t/m) + eta sqrt(t) / (2 m^1.5)]
        rng = np.random.default_rng(89)
        h, eps = allocation.FD_STEP, np.finfo(float).eps
        for _ in range(200):
            eta = float(rng.uniform(0.05, 1.0))
            n_tot = float(rng.uniform(0.5, 25.0))
            n_th = float(rng.uniform(0.0, 2.5))
            d = allocation.gradient_diagnostics(n_tot, ChannelParams(eta=eta, n_th=n_th))
            f0, f1, f2 = kernel.w2_terms(*kernel.lidar_pair(np.array([0.0, h, 2.0 * h]), n_tot,
                                                            eta, n_th))[1].tolist()
            d1, d2 = (f2 - f0) / (2.0 * h), (f1 - f0) / h
            assert d.d_cov_fd == 2.0 * d2 - d1
            t = 2.0 * n_th + 1.0
            m = eta + (1.0 - eta) * t
            closed = 4.0 * eta * n_tot * (1.0 - math.sqrt(t / m)
                                          + eta * math.sqrt(t) / (2.0 * m**1.5))
            # truncation: Richardson's own estimate |d2 - d1|; rounding: each f is a
            # difference of terms no larger than 4t + 4N, off by under an ulp of that,
            # and (4 f1 - 3 f0 - f2) / (2h) weighs those errors by 4/h in all. Over 4000
            # such draws the error reached 0.25 of this bound
            bound = abs(d2 - d1) + 3.0 * eps * (4.0 * t + 4.0 * n_tot) / h
            assert abs(d.d_cov_fd - closed) <= bound, (eta, n_tot, n_th)

    def test_displacement_fd_randomized(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            eta = float(rng.uniform(0.05, 1.0))
            n_tot = float(rng.uniform(0.5, 25.0))
            n_th = float(rng.uniform(0.0, 2.5))
            d = allocation.gradient_diagnostics(n_tot, ChannelParams(eta=eta, n_th=n_th))
            assert abs(d.d_disp_fd - d.d_disp_dlambda) < 1e-8 * abs(d.d_disp_dlambda)

    def test_empirical_transition_present(self):
        grid = allocation.allocation_grid(10.0, 0.1, allocation.default_eta_grid(0.02),
                                          allocation.default_lambda_grid(0.02))
        assert 0.1 < allocation.transition_eta(grid) < 0.5



def test_grid_steps_up_to_the_point_cap_are_accepted():
    cap = allocation.MAX_GRID_POINTS  # one step finer is rejected in test_array_inputs_are_validated
    assert allocation.default_eta_grid(0.001).size == 1001
    assert allocation.default_eta_grid(1.0 / (cap - 1)).size == cap
    assert allocation.default_lambda_grid(0.95 / (cap - 1)).size == cap
