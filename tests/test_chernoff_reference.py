"""The Chernoff minimum of ``kernel.chernoff`` against a 50-digit mpmath reference.

The reference evaluates ln Q_s = ln Tr[rho0^s rho1^(1-s)] from the exact binary
values of the float moments the kernel sees, so it measures the kernel's
arithmetic and search, not the rounding of its inputs.  Its minimum over s comes
from golden section at 50 digits, which needs no derivative.  A state flagged
pure enters as a projector: the infimum is then the edge value
Tr[rho0 rho1] = 2 / sqrt(det(sigma0 + sigma1)) exp(-d^T (sigma0 + sigma1)^-1 d).
mpmath is used only here; it is not a dependency of qlidar.
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
    """min over s in (0, 1) of ln Q_s at 50 digits."""
    if pure0 or pure1:
        a, b = _mp(m0), _mp(m1)
        ssum = [x + y for x, y in zip(a[2:], b[2:])]
        d = (b[0] - a[0], b[1] - a[1])
        return MP.log(2) - MP.log(_det(*ssum)) / 2 - _quad(d, ssum)
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
    return min(fc, fd)


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
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_minimum_matches_50_digit_reference(case):
    state0, state1, pure0, pure1 = CASES[case]
    s_star, log_q = metrics.s_overlap_minimum(state0, state1)
    ref = mp_chernoff(state0.moments, state1.moments, pure0, pure1)
    assert abs(log_q - ref) <= _bound(ref), (log_q, float(ref))
    if pure0 or pure1:
        assert s_star == {(True, False): 0.0, (False, True): 1.0, (True, True): 0.5}[
            (pure0, pure1)]
    else:
        assert 0.0 < s_star < 1.0


def test_batched_equals_scalar_bit_for_bit():
    stacked = [np.array(col) for col in zip(*(s0.moments + s1.moments for s0, s1, _, _ in CASES))]
    s_batch, q_batch = kernel.chernoff(stacked[:5], stacked[5:])
    scalar = np.array([metrics.s_overlap_minimum(s0, s1) for s0, s1, _, _ in CASES])
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
    s_star, log_q = kernel.chernoff(h0, h1)
    assert np.all(s_star == 1.0)
    for i, lam in enumerate(lams):
        ref = mp_chernoff(h0, [x[i] for x in h1], pure1=True)
        assert abs(log_q[i] - ref) <= _bound(ref), (lam, log_q[i], float(ref))


def test_default_unit_transmissivity_row():
    h1 = kernel.channel(kernel.probe(LAM, N_TOT), 1.0, N_TH)
    xi = float(kernel.exponent(kernel.chernoff(kernel.thermal(N_TH), h1)[1]))
    ref = -mp_chernoff(kernel.thermal(N_TH), h1, pure1=True)
    assert abs(xi - ref) <= _bound(ref)
    assert format(xi, ".12g") == "2.51751947821"
