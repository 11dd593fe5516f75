"""Array-valued closed forms of the 2x2 Gaussian algebra, used by every caller.

Moments are tuples of broadcastable components ``(mu_q, mu_p, sigma_qq,
sigma_qp, sigma_pp)``; a covariance alone is the last three.  Every form is
elementwise, so one call scores one pair, such as the :func:`lidar_pair` of
every driver, or a whole map, and block boundaries never change a result, so
fading may spread its draws over processes in blocks.  Nothing is validated
here.  2x2 products are spelled out by component and transcendentals are numpy
ufuncs (only the probe's squeezing comes from :mod:`math`); every form is real
and runs on the broadcast shape of its arguments, so scalar and array calls
agree bit for bit, the Chernoff search included: its ln Q_s terms hold a pair's
two states on a last axis and square with np.square (scalar ``**`` is C pow()).
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
    """(H1, H0): the probe after the channel and the thermal background, v_el folded into n_th."""
    n_eff = effective_noise(n_th, v_el, eta_eff)
    return channel(probe(lam, n_tot, phase), eta_eff, n_eff), thermal(n_eff)


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
    return _log_overlap_in_s(m0, m1)[0](np.minimum(np.maximum(s, _S_EDGE), 1.0 - _S_EDGE))


def _log_overlap_in_s(m0, m1):
    """(value, slope, mixed): log_s_overlap, its s-derivative on [_S_EDGE, 1 - _S_EDGE]
    and (nu0 > 1, nu1 > 1), with the s-independent terms taken once.  In the thermal
    exponent beta = ln((nu + 1) / (nu - 1)) (Pirandola & Lloyd 2008) nothing cancels:
    ln G_s = s ln(2 / (nu + 1)) - ln(1 - e^(-s beta)) and Lambda_s = coth(s beta / 2);
    a pure state (beta = inf, given a finite stand-in) has ln G_s = 0, Lambda_s = 1.
    With S = Lambda_s sigma0 / nu0 + Lambda_(1-s) sigma1 / nu1 and g = S^-1 d, the
    slope is (ln G0)'(s) - (ln G1)'(1 - s) - tr(S^-1 S') / 2 + g.S'g, states on a last axis."""
    dq, dp = m1[0] - m0[0], m1[1] - m0[1]
    cov = np.empty((3,) + np.broadcast(*m0[2:], *m1[2:]).shape + (2,))
    for k in range(3):
        cov[k, ..., 0], cov[k, ..., 1] = m0[2 + k], m1[2 + k]
    nu = _nu(cov)
    mixed, scaled = nu > 1.0, cov / nu
    beta = np.log1p(2.0 / np.where(mixed, nu - 1.0, 2.0))
    half_beta, neg_half_beta, log_h = 0.5 * beta, -0.5 * beta, np.log(2.0 / (nu + 1.0))

    def powers(s):
        """p = (s, 1 - s) and x = p beta / 2 per state, sigma / nu on x's axes, S, det S, g."""
        p = np.empty(np.shape(s) + (2,))
        p[..., 0], p[..., 1] = s, 1.0 - s
        x = p * half_beta
        sig = scaled[(slice(None),) + (None,) * (x.ndim - scaled.ndim + 1)]
        t = np.where(mixed, 1.0 / np.tanh(x), 1.0) * sig
        ssum = t[..., 0] + t[..., 1]
        d = det(*ssum)
        return p, x, sig, ssum, d, solve(dq, dp, *ssum, d)

    def value(s):
        p, x, _, _, d, (g0, g1) = powers(s)
        log_g = np.where(mixed, p * log_h - np.log(-np.expm1(-2.0 * x)), 0.0)
        return _LOG2 + log_g[..., 0] + log_g[..., 1] - 0.5 * np.log(d) + -(dq * g0 + dp * g1)

    def slope(s):
        _, x, sig, (a, b, c), d, (g0, g1) = powers(s)
        dlog = np.where(mixed, log_h - beta / np.expm1(2.0 * x), 0.0)
        t = np.where(mixed, neg_half_beta / np.square(np.sinh(x)), 0.0) * sig
        da, db, dc = t[..., 0] - t[..., 1]
        return (dlog[..., 0] - dlog[..., 1] - 0.5 * ((c * da - 2.0 * b * db + a * dc) / d)
                + (da * g0 * g0 + 2.0 * db * g0 * g1 + dc * g1 * g1))

    return value, slope, (mixed[..., 0], mixed[..., 1])


def chernoff(m0, m1):
    """(s_star, min over s of log_s_overlap, log_fidelity, log_s_overlap at s = 1/2).
    ln Q_s is convex in s, so its closed-form slope g(s) brackets s_star: 12
    bisections of [_S_EDGE, 1 - _S_EDGE] keep g at both ends, then two secant steps
    c = (a g_b - b g_a) / (g_b - g_a), clipped to [a, b] (the midpoint when
    g_b <= g_a), the first of which narrows the bracket.  That is 14 slopes and 2
    values of ln Q_s, all real and on the broadcast shape of the moments.  On the 28
    mixed pairs of the 50-digit reference test (near-pure, far displaced and s_star
    near 0.1 and 0.9 among them) the minimum is at most 8e-16 max(1, |ln Q|) above
    ln Q_s at the reference argmin.  With a pure state the minimum is the edge
    ln Tr[rho0 rho1] = log_fidelity, at s = 1 for a pure rho1, 0 for a pure rho0,
    1/2 for two.  Last, s = 1/2 wins whenever it is lower."""
    value, slope, (mixed0, mixed1) = _log_overlap_in_s(m0, m1)

    def secant(a, b, ga, gb):
        up = gb > ga
        c = (a * gb - b * ga) / np.where(up, gb - ga, 1.0)
        return np.where(up, np.minimum(np.maximum(c, a), b), 0.5 * (a + b))

    def narrow(a, b, ga, gb, c):
        g = slope(c)
        rising = g > 0.0
        return (np.where(rising, a, c), np.where(rising, c, b),
                np.where(rising, ga, g), np.where(rising, g, gb))

    a, b = ends = np.multiply.outer((_S_EDGE, 1.0 - _S_EDGE), np.ones(np.broadcast(*m0, *m1).shape))
    ga, gb = slope(ends)
    for _ in range(12):
        a, b, ga, gb = narrow(a, b, ga, gb, 0.5 * (a + b))
    s_star = secant(*narrow(a, b, ga, gb, secant(a, b, ga, gb)))
    log_f, edge = log_fidelity(m0, m1), ~(mixed0 & mixed1)
    best = np.where(edge, log_f, value(s_star))
    s_star = np.where(edge, np.where(mixed0, 1.0, 0.5 * ~mixed1), s_star)
    half = value(np.full_like(a, 0.5))
    lower = half < best
    return np.where(lower, 0.5, s_star), np.where(lower, half, best), log_f, half


def exponent(log_overlap):
    """Error exponent -ln(overlap), clipped to [0, XI_SATURATION_CAP]."""
    return np.minimum(np.maximum(-log_overlap, 0.0), XI_SATURATION_CAP)


def report(h1, h0):
    """Every score of the pairs (H1, H0), keyed and ordered as the fields of
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
