"""Array-valued closed forms of the 2x2 Gaussian algebra, used by every caller.

Moments are tuples of broadcastable components ``(mu_q, mu_p, sigma_qq,
sigma_qp, sigma_pp)``; a covariance alone is the last three.  Every two-state
form takes its pair as (H0, H1): the thermal background (no target) first, the
probe after the channel second, as :func:`lidar_pair` returns it.  Every form is
elementwise, so one call scores one pair, such as the :func:`lidar_pair` of
every driver, or a whole map, and block boundaries never change a result, so
each driver scores its domain in fixed blocks (fading's over processes too)
and keeps every temporary at one block's size.  Nothing is validated here.
2x2 products are spelled out by component and transcendentals are numpy
ufuncs (only the probe's squeezing comes from :mod:`math`); every form is real
and runs on the broadcast shape of its arguments, so scalar and array calls
agree bit for bit, the Chernoff search included: ln Q_s and its slope share one
setup per state, and no ``**`` squares (C pow()).
"""

from __future__ import annotations

import math

import numpy as np

XI_SATURATION_CAP = 700.0

_LOG2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
_S_EDGE = 1e-9


def det(sqq, sqp, spp):
    """Determinant of the symmetric 2x2 matrix [[sqq, sqp], [sqp, spp]]."""
    return sqq * spp - sqp * sqp


def det_rounding(sqq, sqp, spp):
    """4 eps (sqq spp + sqp^2), a bound on the rounding error of det(sqq, sqp, spp)
    for a covariance whose entries are themselves rounded (rotated states included)."""
    return 4.0 * _EPS * (sqq * spp + sqp * sqp)


def _nu(cov):
    """Symplectic eigenvalue max(1, sqrt(det sigma)), and exactly 1, pure, when
    det sigma is within its rounding bound of 1."""
    d = det(*cov)
    pure = np.abs(d - 1.0) <= det_rounding(*cov)
    return np.where(pure, 1.0, np.maximum(1.0, np.sqrt(d)))


def probe(lam, n_tot, phase=0.0):
    """Displaced squeezed vacuum with sinh^2(r) = lam * n_tot and |mu|^2 / 2 = (1 - lam) * n_tot."""
    lam = np.asarray(lam, dtype=float)
    r = [math.asinh(math.sqrt(x * n_tot)) for x in lam.flat]
    low, high = np.empty_like(lam), np.empty_like(lam)
    low.flat, high.flat = [math.exp(-2.0 * x) for x in r], [math.exp(2.0 * x) for x in r]
    amp = np.sqrt(2.0 * ((1.0 - lam) * n_tot))
    return amp * math.cos(phase), amp * math.sin(phase), low, 0.0, high


def thermal(n_th):
    """Thermal state, sigma = (2 n_th + 1) I."""
    t = 2.0 * n_th + 1.0
    return 0.0, 0.0, t, 0.0, t


def channel(m, eta_eff, n_th):
    """Lossy thermal channel: sqrt(e) mu and e sigma + (1 - e)(2 n_th + 1) I."""
    mq, mp, sqq, sqp, spp = m
    root = np.sqrt(eta_eff)
    noise = (1.0 - eta_eff) * thermal(n_th)[2]
    return root * mq, root * mp, eta_eff * sqq + noise, eta_eff * sqp, eta_eff * spp + noise


def effective_noise(n_th, v_el, eta_eff):
    """n_th + v_el / (2 (1 - eta_eff)), exactly n_th when v_el = 0."""
    return n_th if v_el == 0.0 else n_th + v_el / (2.0 * (1.0 - eta_eff))


def lidar_pair(lam, n_tot, eta_eff, n_th, v_el=0.0, phase=0.0):
    """(H0, H1): the thermal background and the probe after the channel, v_el folded into n_th."""
    n_eff = effective_noise(n_th, v_el, eta_eff)
    return thermal(n_eff), channel(probe(lam, n_tot, phase), eta_eff, n_eff)


def bures(s0, s1):
    """Squared Bures distance, with tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)); clamped at 0."""
    a0, b0, c0 = s0
    a1, b1, c1 = s1
    cross = (a0 * a1 + b0 * b1) + (b0 * b1 + c0 * c1) + 2.0 * np.sqrt(det(*s0) * det(*s1))
    return np.maximum((a0 + c0) + (a1 + c1) - 2.0 * np.sqrt(cross), 0.0)


def w2_terms(m0, m1):
    """Gelbrich W2^2 split into (|mu1 - mu0|^2, Bures^2(sigma0, sigma1))."""
    dq, dp = m1[0] - m0[0], m1[1] - m0[1]
    return dq * dq + dp * dp, bures(m0[2:], m1[2:])


def solve(dq, dp, sqq, sqp, spp, d):
    """(g_q, g_p) = sigma^-1 (dq, dp), given d = det sigma."""
    off = -sqp / d
    return (spp / d) * dq + off * dp, off * dq + (sqq / d) * dp


def log_fidelity(m0, m1):
    """ln F of two single-mode Gaussian states (Scutaru-type closed form); clamped at 0."""
    dq, dp, s = m1[0] - m0[0], m1[1] - m0[1], (m0[2] + m1[2], m0[3] + m1[3], m0[4] + m1[4])
    mixed = (_nu(m0[2:]) > 1.0) & (_nu(m1[2:]) > 1.0)
    lam = np.where(mixed, (det(*m0[2:]) - 1.0) * (det(*m1[2:]) - 1.0), 0.0)
    g0, g1 = solve(dq, dp, *s, delta := det(*s))
    # ln of sqrt(delta + lam) - sqrt(lam), rationalised for stability
    log_denom = np.log(delta) - np.log(np.sqrt(delta + lam) + np.sqrt(lam))
    return np.minimum(_LOG2 + -(dq * g0 + dp * g1) - log_denom, 0.0)


def log_s_overlap(m0, m1, s):
    """ln Tr[rho0^s rho1^(1-s)] for s in (0, 1): rho^s is Gaussian up to its
    trace G_s, with symplectic eigenvalue Lambda_s, times an overlap integral."""
    return _log_overlap(m0, m1)[0](np.minimum(np.maximum(s, _S_EDGE), 1.0 - _S_EDGE))


def _log_overlap(m0, m1):
    """(value, slope, (nu0 > 1, nu1 > 1)): log_s_overlap and its s-derivative on
    [_S_EDGE, 1 - _S_EDGE], set up once per state.  ln Q_s = ln 2 + ln G0(s) + ln G1(1 - s)
    - ln(det S) / 2 - d^T S^-1 d, S = c0 A + c1 B, A = sigma0 / nu0, B = sigma1 / nu1 (det
    1), c0 = Lambda_s = coth(s beta0 / 2), c1 = Lambda_(1-s), in the thermal exponent beta =
    ln((nu + 1) / (nu - 1)) (Pirandola & Lloyd 2008), where nothing cancels: ln G_s = s ln(2
    / (nu + 1)) - ln(1 - e^(-s beta)), 0 with Lambda_s = 1 for a pure state.  The slope takes
    c = 1 + r, r = 2 / expm1(p beta), p = s or 1 - s; det S = c0^2 + c1^2 + c0 c1 X and d^T
    adj(S) d = c0 q_A + c1 q_B, X and q_A = d^T adj(A) d taken once, give it by Jacobi's
    formula, with c0' = -w0 (c0 + 1), c1' = w1 (c1 + 1), w = beta r / 2."""
    dq, dp = m1[0] - m0[0], m1[1] - m0[1]
    nu0, nu1 = _nu(m0[2:]), _nu(m1[2:])
    mixed0, mixed1 = nu0 > 1.0, nu1 > 1.0
    beta0, beta1 = (np.log1p(2.0 / np.where(nu > 1.0, nu - 1.0, 2.0)) for nu in (nu0, nu1))
    (qq0, qp0, pp0), (qq1, qp1, pp1) = (x / nu0 for x in m0[2:]), (x / nu1 for x in m1[2:])
    log_h0, log_h1 = np.log(2.0 / (nu0 + 1.0)), np.log(2.0 / (nu1 + 1.0))
    half0, half1 = 0.5 * beta0, 0.5 * beta1
    rate0, rate1 = np.where(mixed0, beta0, np.inf), np.where(mixed1, beta1, np.inf)

    def value(s):
        # s is never 0 or 1 here, so a pure state's x = inf (no 0 * inf) gives Lambda = 1, ln G = 0
        x0, x1 = 0.5 * s * rate0, 0.5 * (1.0 - s) * rate1
        c0, c1 = 1.0 / np.tanh(x0), 1.0 / np.tanh(x1)
        t = c0 * qq0 + c1 * qq1, c0 * qp0 + c1 * qp1, c0 * pp0 + c1 * pp1
        g0, g1 = solve(dq, dp, *t, d := det(*t))
        del t, c0, c1  # frees S for the temporaries of ln G_s: 20% faster on 5000 draws
        log_g0 = s * log_h0 - np.log(-np.expm1(-2.0 * x0))
        log_g1 = (1.0 - s) * log_h1 - np.log(-np.expm1(-2.0 * x1))
        return _LOG2 + log_g0 + log_g1 - 0.5 * np.log(d) + -(dq * g0 + dp * g1)

    dlog_h = log_h0 - log_h1
    x_ab = qq0 * pp1 + pp0 * qq1 - 2.0 * (qp0 * qp1)
    dqq, dqp, dpp = dq * dq, 2.0 * (dq * dp), dp * dp
    q0, q1 = pp0 * dqq - qp0 * dqp + qq0 * dpp, pp1 * dqq - qp1 * dqp + qq1 * dpp

    def slope(s):
        r0, r1 = 2.0 / np.expm1(s * rate0), 2.0 / np.expm1((1.0 - s) * rate1)
        w0, w1 = half0 * r0, half1 * r1
        c0, c1 = 1.0 + r0, 1.0 + r1
        e0, e1 = w0 * (c0 + 1.0), w1 * (c1 + 1.0)
        d = c0 * c0 + c1 * c1 + (c0 * c1) * x_ab
        dd = 2.0 * (c1 * e1 - c0 * e0) + (c0 * e1 - c1 * e0) * x_ab
        n, dn = c0 * q0 + c1 * q1, e1 * q1 - e0 * q0
        return dlog_h + (w1 - w0) + (dd * (n / d - 0.5) - dn) / d

    return value, slope, (mixed0, mixed1)


def chernoff(m0, m1):
    """(s_star, min over s of log_s_overlap, log_fidelity, log_s_overlap at s = 1/2).
    ln Q_s is convex in s, so its closed-form slope g(s) brackets s_star.  12 bisections
    of [_S_EDGE, 1 - _S_EDGE] halve one width w for every pair, so only the lower end a
    is kept; one slope call at a and b = a + w feeds two secant steps c = (a g_b - b g_a)
    / (g_b - g_a), clipped to [a, b] (the midpoint when g_b <= g_a), the first of which
    narrows the bracket: 14 slopes, then ln Q_s at s_star and at 1/2 in one call.  On
    the 28 mixed pairs of the 50-digit reference test the minimum is at most 6e-16
    max(1, |ln Q|) above ln Q_s at the reference argmin.  With a pure state the minimum
    is the edge ln Tr[rho0 rho1] = log_fidelity, at s = 1 for a pure rho1, 0 for a pure
    rho0, 1/2 for two.  Last, s = 1/2 wins whenever it is lower."""
    value, slope, (mixed0, mixed1) = _log_overlap(m0, m1)

    def secant(a, b, ga, gb):
        c = (a * gb - b * ga) / np.where(up := gb > ga, gb - ga, 1.0)
        return np.where(up, np.minimum(np.maximum(c, a), b), 0.5 * (a + b))

    a = np.full(np.broadcast(*m0, *m1).shape, _S_EDGE)
    for w in (1.0 - 2.0 * _S_EDGE) * 0.5 ** np.arange(1.0, 13.0):
        a = np.where(slope(c := a + w) > 0.0, a, c)
    a, b = ends = np.stack((a, a + w))
    ga, gb = slope(ends)
    rising = (g := slope(c := secant(a, b, ga, gb))) > 0.0
    s_star = secant(np.where(rising, a, c), np.where(rising, c, b),
                    np.where(rising, ga, g), np.where(rising, g, gb))
    log_f, edge = log_fidelity(m0, m1), ~(mixed0 & mixed1)
    at_star, half = value(np.stack((s_star, np.full_like(a, 0.5))))
    best = np.where(edge, log_f, at_star)
    s_star = np.where(edge, np.where(mixed0, 1.0, 0.5 * ~mixed1), s_star)
    lower = half < best
    return np.where(lower, 0.5, s_star), np.where(lower, half, best), log_f, half


def exponent(log_overlap):
    """Error exponent -ln(overlap), clipped to [0, XI_SATURATION_CAP]."""
    return np.minimum(np.maximum(-log_overlap, 0.0), XI_SATURATION_CAP)


def report(h0, h1):
    """Every score of the pairs (H0, H1), keyed and ordered as the fields of
    MetricReport.  The LO angle theta_opt is that of g = sigma1^-1 (mu1 - mu0) or,
    with no displacement, of the minor axis of sigma1 in closed form,
    0.5 arctan2(-2 sigma_qp, sigma_pp - sigma_qq); either is taken mod pi, pi folded to 0."""
    disp, b2 = w2_terms(h0, h1)
    _, log_qcb, log_f, log_half = chernoff(h0, h1)
    dq, dp = h1[0] - h0[0], h1[1] - h0[1]
    g0, g1 = solve(dq, dp, *h1[2:], det(*h1[2:]))
    still = disp == 0.0
    minor_axis = 0.5 * np.arctan2(-2.0 * h1[3], h1[4] - h1[2])
    theta = np.where(still, minor_axis, np.arctan2(g1, g0)) % np.pi
    return {
        "w2_sq": disp + b2,
        "displacement_term": disp,
        "bures_sq": b2,
        "fidelity": np.exp(log_f),
        "xi_qbb": exponent(log_half),
        "xi_qbb_proxy": exponent(0.5 * log_f),
        "xi_qcb": exponent(log_qcb),
        "snr_sq_opt": np.where(still, 0.0, dq * g0 + dp * g1),
        "theta_opt": np.where(theta == np.pi, 0.0, theta),
    }
