"""The Chernoff minimum of ``kernel.chernoff`` against a 50-digit mpmath reference.

The reference evaluates ln Q_s = ln Tr[rho0^s rho1^(1-s)] from the exact binary
values of the float moments the kernel sees, so it measures the kernel's
arithmetic and search, not the rounding of its inputs.  Its minimum over s comes
from golden section at 50 digits, which needs no derivative.  A state flagged
pure enters as a projector: the infimum is then the edge value
Tr[rho0 rho1] = 2 / sqrt(det(sigma0 + sigma1)) exp(-d^T (sigma0 + sigma1)^-1 d).
The LO angle ``theta_opt`` of ``metric_report`` is pinned the same way, to the
50-digit angle of sigma1^-1 d or, with no displacement, of the minor eigenvector
of sigma1.  mpmath is used only here; it is not a dependency of qlidar.
"""

import math

import numpy as np
import pytest

from conftest import squeezed_thermal_state
from qlidar import kernel, metrics
from qlidar.states import GaussianState

mpmath = pytest.importorskip("mpmath")

MP = mpmath.MPContext()
MP.dps = 50
GOLDEN = (MP.sqrt(5) - 1) / 2
# the defaults of `qlidar benchmark`
N_TOT, N_TH, LAM = 5.0, 2.0, 0.5


def _bound(log_q):
    return 1e-12 * max(1.0, abs(float(log_q)))


def _det(sqq, sqp, spp):
    return sqq * spp - sqp * sqp


def _quad(d, s):
    """d^T s^-1 d for the symmetric 2x2 matrix s = (sqq, sqp, spp)."""
    dq, dp = d
    return (s[2] * dq * dq - 2 * s[1] * dq * dp + s[0] * dp * dp) / _det(*s)


def _mp(m):
    return [MP.mpf(float(x)) for x in m]


def mp_log_q(m0, m1, s, pure0=False, pure1=False):
    """ln Q_s at 50 digits: rho^p of a state with symplectic eigenvalue nu is
    Gaussian with covariance Lambda_p(nu) sigma / nu and trace G_p(nu), both 1
    for a projector (Pirandola & Lloyd, PRA 78, 012331 (2008))."""
    m0, m1 = _mp(m0), _mp(m1)
    log_q, ssum = MP.log(2), [0, 0, 0]
    for m, p, pure in ((m0, s, pure0), (m1, 1 - s, pure1)):
        nu = MP.sqrt(_det(*m[2:]))
        big = 1
        if not pure:
            up, dn = (nu + 1) ** p, (nu - 1) ** p
            big = (up + dn) / (up - dn)
            log_q += p * MP.log(2) - MP.log(up - dn)
        else:
            nu = 1
        ssum = [acc + big * x / nu for acc, x in zip(ssum, m[2:])]
    d = (m1[0] - m0[0], m1[1] - m0[1])
    return log_q - MP.log(_det(*ssum)) / 2 - _quad(d, ssum)


def mp_chernoff(m0, m1, pure0=False, pure1=False):
    """(min over s in (0, 1) of ln Q_s, its argmin) at 50 digits; with a pure state
    the edge value and the kernel's edge s."""
    if pure0 or pure1:
        a, b = _mp(m0), _mp(m1)
        ssum = [x + y for x, y in zip(a[2:], b[2:])]
        d = (b[0] - a[0], b[1] - a[1])
        edge = 0.5 if pure0 and pure1 else float(pure1)
        return MP.log(2) - MP.log(_det(*ssum)) / 2 - _quad(d, ssum), edge
    f = lambda s: mp_log_q(m0, m1, s)
    a, b = MP.mpf("1e-30"), 1 - MP.mpf("1e-30")
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > MP.mpf("1e-20"):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (fc, c) if fc < fd else (fd, d)


def _mixed_state(rng, nbar):
    return squeezed_thermal_state(nbar, rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi),
                                  rng.uniform(-2.0, 2.0, 2))


def _probe(lam, n_tot, phase=0.0):
    """Pure displaced squeezed vacuum; its float det rounds to at most 1 + 1 ulp."""
    return GaussianState.from_moments(kernel.probe(lam, n_tot, phase))


def _cases():
    """(state0, state1, pure0, pure1) of every regime the reference covers."""
    rng = np.random.default_rng(20260)
    cases = []
    for _ in range(12):  # random mixed pairs
        cases.append((_mixed_state(rng, rng.uniform(0.05, 2.0)),
                      _mixed_state(rng, rng.uniform(0.05, 2.0)), False, False))
    for nbar in (1e-2, 1e-4, 1e-6):  # near-pure against mixed, in both orders
        near, other = _mixed_state(rng, nbar), _mixed_state(rng, rng.uniform(0.1, 2.0))
        cases += [(near, other, False, False), (other, near, False, False)]
    for _ in range(6):  # pure against mixed, in both orders
        pure = _probe(rng.uniform(0.0, 1.0), rng.uniform(0.1, 20.0), rng.uniform(0.0, 6.3))
        mixed = _mixed_state(rng, rng.uniform(0.05, 3.0))
        cases += [(pure, mixed, True, False), (mixed, pure, False, True)]
    for _ in range(4):  # pure against pure
        a = _probe(rng.uniform(0.0, 1.0), rng.uniform(0.1, 5.0), rng.uniform(0.0, 6.3))
        b = _probe(rng.uniform(0.0, 1.0), rng.uniform(0.1, 5.0), rng.uniform(0.0, 6.3))
        cases.append((a, b, True, True))
    # two commuting thermal states, with s_star near 0.1 and near 0.9
    cold, hot = (GaussianState.from_moments(kernel.thermal(n)) for n in (1e-7, 50.0))
    cases += [(cold, hot, False, False), (hot, cold, False, False)]
    same = _mixed_state(rng, 0.7)  # identical: ln Q_s = 0, its float slope is rounding noise
    cases.append((same, same, False, False))
    # far displaced: ln Q near -126
    cases.append((squeezed_thermal_state(0.05, 0.4, 0.7, [0.0, 0.0]),
                  squeezed_thermal_state(3.0, 0.2, 2.0, [37.2, -18.6]), False, False))
    return cases


def _near_pure_cases():
    """Mixed states with nbar 1e-5 to 1e-7 against mixed ones, in both orders."""
    rng = np.random.default_rng(20262)
    cases = []
    for nbar in (1e-5, 1e-6, 1e-7):
        near, other = _mixed_state(rng, nbar), _mixed_state(rng, rng.uniform(0.1, 2.0))
        cases += [(near, other, False, False), (other, near, False, False)]
    return cases


def _ulp_move(m0, m1, s):
    """Largest move of the 50-digit ln Q_s when one of the ten float moments moves by 1 ulp."""
    m = [float(x) for x in (*m0, *m1)]
    base, moves = mp_log_q(m[:5], m[5:], s), []
    for k, x in enumerate(m):
        for toward in (-math.inf, math.inf):
            moved = m[:k] + [math.nextafter(x, toward)] + m[k + 1:]
            moves.append(abs(mp_log_q(moved[:5], moved[5:], s) - base))
    return max(moves)


CASES = _cases()
# near a pure state ln Q_s is ill-conditioned in the moments: at nbar = 1e-7 a 1-ulp
# move of one input moves it by 6e-12 here (4e-11 in other draws), beyond the 1e-12 bound
NEAR_PURE = _near_pure_cases()
# s values where (nu+1)^s - (nu-1)^s cancels (s -> 0) or nears a power of 0 (s -> 1)
EDGE_S = (1e-8, 1e-6, 1e-4, 0.01, 0.05, 0.5, 0.95, 1 - 1e-6)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_minimum_matches_50_digit_reference(case):
    state0, state1, pure0, pure1 = CASES[case]
    s_star, log_q = metrics.s_overlap_minimum(state0, state1)
    ref, s_ref = mp_chernoff(state0.moments, state1.moments, pure0, pure1)
    assert abs(log_q - ref) <= _bound(ref), (log_q, float(ref))
    if pure0 or pure1:
        assert s_star == s_ref
    else:
        assert 0.0 < s_star < 1.0


@pytest.mark.parametrize("case", range(len(NEAR_PURE)))
def test_near_pure_minimum_within_input_conditioning(case):
    # the kernel is backward stable there: within the 1e-12 bound plus c = 2 times the
    # largest move of ln Q_s at the reference argmin under a 1-ulp input change (the
    # worst measured ratio of error to that move is 1.4, at nbar = 1e-7)
    state0, state1, _, _ = NEAR_PURE[case]
    s_star, log_q = metrics.s_overlap_minimum(state0, state1)
    ref, s_ref = mp_chernoff(state0.moments, state1.moments)
    bound = _bound(ref) + 2.0 * _ulp_move(state0.moments, state1.moments, s_ref)
    assert abs(log_q - ref) <= bound, (log_q, float(ref), float(bound))
    assert 0.0 < s_star < 1.0


MIXED = [c for c in CASES + NEAR_PURE if not (c[2] or c[3])]


@pytest.mark.parametrize("case", range(len(MIXED)))
def test_search_reaches_the_float_value_at_the_reference_argmin(case):
    # both sides evaluate the same float closure, so this measures the search alone,
    # not the conditioning of ln Q_s in its inputs
    state0, state1, _, _ = MIXED[case]
    ref, s_ref = mp_chernoff(state0.moments, state1.moments)
    log_q = metrics.s_overlap_minimum(state0, state1)[1]
    at_ref = float(kernel.log_s_overlap(state0.moments, state1.moments, float(s_ref)))
    assert log_q <= at_ref + 1e-14 * max(1.0, abs(float(ref))), (log_q, at_ref, float(s_ref))


def test_log_s_overlap_matches_50_digit_reference_at_every_s():
    # the cancellation in G_s is undone by the matching Lambda_s term of
    # 1/2 ln det, so the closed form needs no rewrite near s = 0
    rng = np.random.default_rng(20261)
    for _ in range(60):
        m0 = _mixed_state(rng, rng.uniform(0.05, 2.0)).moments
        m1 = _mixed_state(rng, rng.uniform(0.05, 2.0)).moments
        for s in EDGE_S:
            got = float(kernel.log_s_overlap(m0, m1, s))
            ref = mp_log_q(m0, m1, MP.mpf(s))
            assert abs(got - ref) <= _bound(ref), (s, got, float(ref))


@pytest.mark.parametrize("n_tot", [1e4, 1e8, 1e12, 1e16, 1e20])
def test_log_s_overlap_matches_50_digit_reference_at_large_nu(n_tot):
    # a lambda = 1 probe at eta = 0.5 has nu of about 1.1 sqrt(n_tot), up to 1.1e10;
    # (nu + 1)^s - (nu - 1)^s cancelled there (2.8e-8 at n_tot = 1e20), its thermal
    # exponent form does not (at most 3e-16 on these cases)
    h1, h0 = kernel.channel(kernel.probe(1.0, n_tot), 0.5, 0.1), kernel.thermal(0.1)
    for s in (0.5, 0.1, 0.01):
        got = float(kernel.log_s_overlap(h0, h1, s))
        ref = mp_log_q(h0, h1, MP.mpf(s))
        assert abs(got - ref) <= _bound(ref), (s, got, float(ref))


# s from 1e-6 to 1 - 1e-6; the slope's terms near 1/s and 1/(1 - s) cancel, so at
# s = 1e-8 its absolute rounding reaches 4e-8, and the search needs only its sign there
SLOPE_S = (1e-6, 1e-4, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-4, 1 - 1e-6)
DISTINCT = [c for c in MIXED if c[0] is not c[1]]


@pytest.mark.parametrize("case", range(len(DISTINCT)))
def test_closed_form_slope_matches_50_digit_derivative(case):
    # twice the worst error, 5.9e-10 max(1, |slope|) at s = 1 - 1e-6, over these
    # 27 pairs and 10 values of s
    state0, state1, _, _ = DISTINCT[case]
    m0, m1 = state0.moments, state1.moments
    slope = kernel._log_overlap_in_s(m0, m1)[1]
    for s in SLOPE_S:
        ref = MP.diff(lambda x: mp_log_q(m0, m1, x), MP.mpf(s))
        got = float(slope(s))
        assert abs(got - ref) <= 1.2e-9 * max(1.0, abs(float(ref))), (s, got, float(ref))


def test_batched_equals_scalar_bit_for_bit():
    cases = CASES + NEAR_PURE
    stacked = [np.array(col) for col in zip(*(s0.moments + s1.moments for s0, s1, _, _ in cases))]
    s_batch, q_batch = kernel.chernoff(stacked[:5], stacked[5:])[:2]
    scalar = np.array([metrics.s_overlap_minimum(s0, s1) for s0, s1, _, _ in cases])
    assert np.array_equal(s_batch, scalar[:, 0]) and np.array_equal(q_batch, scalar[:, 1])


def test_reference_overlap_matches_commuting_thermal_sum():
    # two thermal states commute: Q_s = sum_k p_k^s q_k^(1-s) in closed form
    m0, m1 = kernel.thermal(0.3), kernel.thermal(1.7)
    # p_k = (1 - x) x^k with x = n / (n + 1) = (nu - 1) / (nu + 1)
    x, y = ((MP.mpf(m[2]) - 1) / (MP.mpf(m[2]) + 1) for m in (m0, m1))
    for s in (MP.mpf("1e-6"), MP.mpf("0.3"), MP.mpf("0.5"), 1 - MP.mpf("1e-6")):
        exact = (1 - x) ** s * (1 - y) ** (1 - s) / (1 - x ** s * y ** (1 - s))
        got = mp_log_q(m0, m1, s)
        assert abs(got - MP.log(exact)) < MP.mpf("1e-45")


def test_unit_transmissivity_lambda_grid_is_the_pure_edge_value():
    # every probe of the 2001-point grid is pure, 91 of them with det = 1 + 1 ulp
    lams = np.linspace(0.0, 1.0, 2001)
    h1 = np.broadcast_arrays(*kernel.channel(kernel.probe(lams, N_TOT), 1.0, N_TH))
    h0 = kernel.thermal(N_TH)
    assert np.sum(kernel.det(*h1[2:]) > 1.0) == 91
    s_star, log_q = kernel.chernoff(h0, h1)[:2]
    assert np.all(s_star == 1.0)
    for i, lam in enumerate(lams):
        ref = mp_chernoff(h0, [x[i] for x in h1], pure1=True)[0]
        assert abs(log_q[i] - ref) <= _bound(ref), (lam, log_q[i], float(ref))


def test_default_unit_transmissivity_row():
    h1 = kernel.channel(kernel.probe(LAM, N_TOT), 1.0, N_TH)
    xi = float(kernel.exponent(kernel.chernoff(kernel.thermal(N_TH), h1)[1]))
    ref = -mp_chernoff(kernel.thermal(N_TH), h1, pure1=True)[0]
    assert abs(xi - ref) <= _bound(ref)
    assert format(xi, ".12g") == "2.51751947821"


def mp_theta(state_h1, state_h0, degenerate):
    """theta_opt at 50 digits: the angle in [0, pi) of sigma1^-1 (mu1 - mu0) or, when
    ``degenerate``, of the eigenvector of sigma1's smaller eigenvalue."""
    m1, m0 = _mp(state_h1.moments), _mp(state_h0.moments)
    if degenerate:
        _, vectors = MP.eigsy(MP.matrix([[m1[2], m1[3]], [m1[3], m1[4]]]))  # ascending
        g0, g1 = vectors[0, 0], vectors[1, 0]
    else:
        dq, dp = m1[0] - m0[0], m1[1] - m0[1]
        g0, g1 = m1[4] * dq - m1[3] * dp, m1[2] * dp - m1[3] * dq  # det(sigma1) sigma1^-1 d
    return MP.atan2(g1, g0) % MP.pi


def _theta_pairs(degenerate):
    """200 seeded (H1, H0) pairs, equal means when ``degenerate``; H1's squeezing
    r runs log-uniformly down to 1e-6, where sigma1 is nearly isotropic."""
    rng = np.random.default_rng(20263 + degenerate)
    pairs = []
    for _ in range(200):
        mu = rng.uniform(-2.0, 2.0, 2)
        h1 = squeezed_thermal_state(rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-6.0, 0.0),
                                    rng.uniform(0.0, math.pi), mu)
        h0 = squeezed_thermal_state(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                                    rng.uniform(0.0, math.pi),
                                    mu if degenerate else rng.uniform(-2.0, 2.0, 2))
        pairs.append((h1, h0))
    return pairs


# twice the worst error, rounded up, over 3,400 pairs of this draw (17 seeds) taken
# with the closed-form minor axis and with the eigh it replaced: 4.4e-16 and 5.1e-16
# with no displacement, 1.7e-15 for both with one (the conditioning of sigma1^-1 d)
@pytest.mark.parametrize("degenerate,bound", [(True, 2 * 5.2e-16), (False, 2 * 1.7e-15)])
def test_theta_opt_matches_50_digit_angle(degenerate, bound):
    for h1, h0 in _theta_pairs(degenerate):
        rep = metrics.metric_report(h1, h0)
        assert (rep.displacement_term == 0.0) == degenerate
        assert 0.0 <= rep.theta_opt < math.pi
        ref = mp_theta(h1, h0, degenerate)
        gap = abs(MP.mpf(rep.theta_opt) - ref)
        assert min(gap, MP.pi - gap) <= bound, (rep.theta_opt, float(ref))
