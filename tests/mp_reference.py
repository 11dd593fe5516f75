"""50-digit mpmath references for the closed forms of ``qlidar.kernel``.

Each reference takes the float moments the kernel sees and evaluates them from
their exact binary values, so a comparison measures the kernel's arithmetic, not
the rounding of its inputs.  The references are written from the textbook forms,
not from the kernel's rearrangements: every matrix square root is taken by 2x2
eigendecomposition.  Moments are ``(mu_q, mu_p, sigma_qq, sigma_qp, sigma_pp)``,
a covariance alone the last three, with the vacuum covariance the identity.
mpmath is a test extra, never a dependency of qlidar.
"""

import pytest

mpmath = pytest.importorskip("mpmath")

MP = mpmath.MPContext()
MP.dps = 50
GOLDEN = (MP.sqrt(5) - 1) / 2
OMEGA = MP.matrix([[0, 1], [-1, 0]])


def _det(sqq, sqp, spp):
    return sqq * spp - sqp * sqp


def _quad(d, s):
    """d^T s^-1 d for the symmetric 2x2 matrix s = (sqq, sqp, spp)."""
    dq, dp = d
    return (s[2] * dq * dq - 2 * s[1] * dq * dp + s[0] * dp * dp) / _det(*s)


def _mp(m):
    return [MP.mpf(float(x)) for x in m]


def _matrix(cov):
    sqq, sqp, spp = _mp(cov)
    return MP.matrix([[sqq, sqp], [sqp, spp]])


def _sqrtm(m):
    """Square root of a symmetric positive semidefinite 2x2 matrix: Q diag(sqrt(e)) Q^T
    from its eigendecomposition, eigenvalues that rounding took below 0 taken as 0."""
    values, vectors = MP.eigsy((m + m.T) / 2)
    return vectors * MP.diag([MP.sqrt(max(e, 0)) for e in values]) * vectors.T


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


def mp_bures(s0, s1):
    """Squared Bures distance tr s0 + tr s1 - 2 tr sqrt(sqrt(s0) s1 sqrt(s0)) of two
    covariances at 50 digits, both square roots by eigendecomposition."""
    a, b = _matrix(s0), _matrix(s1)
    root = _sqrtm(a)
    cross = _sqrtm(root * b * root)
    return a[0, 0] + a[1, 1] + b[0, 0] + b[1, 1] - 2 * (cross[0, 0] + cross[1, 1])


def mp_w2_terms(m0, m1):
    """Gelbrich W2^2 split into (|mu1 - mu0|^2, Bures^2(sigma0, sigma1)) at 50 digits."""
    a, b = _mp(m0[:2]), _mp(m1[:2])
    return (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2, mp_bures(m0[2:], m1[2:])


def mp_log_fidelity(m0, m1):
    """ln F, F = (Tr sqrt(sqrt(rho0) rho1 sqrt(rho0)))^2, at 50 digits from the
    general Gaussian form of Banchi, Braunstein & Pirandola, PRL 115, 260501 (2015),
    with V = sigma / 2 in their vacuum-1/2 units: sqrt(F) = F_tot exp(-d^T (V0 + V1)^-1 d / 4),
    F_tot^4 = det[2 (sqrt(1 + (V_aux Omega)^-2 / 4) + 1) V_aux] / det(V0 + V1) and
    V_aux = Omega^T (V0 + V1)^-1 (Omega / 4 + V1 Omega V0).  The matrix under the
    square root is a multiple of the identity for one mode, and 0 when both states are
    pure, where its eigenvalues are rounding: they are taken at 100 digits."""
    with MP.workdps(2 * MP.dps):
        v0, v1 = _matrix(m0[2:]) / 2, _matrix(m1[2:]) / 2
        vsum = v0 + v1
        aux = OMEGA.T * MP.inverse(vsum) * (OMEGA / 4 + v1 * OMEGA * v0)
        w = aux * OMEGA
        root = _sqrtm(MP.eye(2) + MP.inverse(w * w) / 4)
        f_tot4 = MP.det(2 * (root + MP.eye(2)) * aux) / MP.det(vsum)
        a, b = _mp(m0[:2]), _mp(m1[:2])
        d = MP.matrix([b[0] - a[0], b[1] - a[1]])
        log_f = MP.log(f_tot4) / 2 - (d.T * MP.inverse(vsum) * d)[0] / 2
    return +log_f
