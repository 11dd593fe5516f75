"""Array-valued closed forms of the 2x2 Gaussian algebra, used by every caller.

Moments are tuples of broadcastable components ``(mu_q, mu_p, sigma_qq,
sigma_qp, sigma_pp)``; a covariance alone is the last three.  Every form is
elementwise, so one call scores one pair or a whole map, and block
boundaries never change a result; :func:`map_blocks` spreads such blocks over
threads (the grids, whose ufuncs release the GIL) or processes (the fading
draws), as its caller chooses.  Nothing is validated here.  2x2 products are
spelled out by component and transcendentals are numpy ufuncs (only the
probe's squeezing comes from :mod:`math`), so scalar and array calls agree
bit for bit.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

XI_SATURATION_CAP = 700.0
S_TOLERANCE = 1e-8

_LOG2 = math.log(2.0)
_S_EDGE = 1e-9


def det(sqq, sqp, spp):
    """Determinant of the symmetric 2x2 matrix [[sqq, sqp], [sqp, spp]]."""
    return sqq * spp - sqp * sqp


def _nu(cov):
    """Symplectic eigenvalue max(1, sqrt(det sigma)); 1 exactly when the state is pure."""
    return np.maximum(1.0, np.sqrt(det(*cov)))


def probe(lam, n_tot, phase=0.0):
    """Displaced squeezed vacuum with sinh^2(r) = lam * n_tot and |mu|^2 / 2 = (1 - lam) * n_tot."""
    lam = np.asarray(lam, dtype=float)
    r = [math.asinh(math.sqrt(x * n_tot)) for x in lam.flat]
    low = np.reshape([math.exp(-2.0 * x) for x in r], lam.shape)
    high = np.reshape([math.exp(2.0 * x) for x in r], lam.shape)
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


def solve(dq, dp, sqq, sqp, spp):
    """(g_q, g_p, d . g) with g = sigma^-1 d."""
    d = det(sqq, sqp, spp)
    off = -sqp / d
    g0, g1 = (spp / d) * dq + off * dp, off * dq + (sqq / d) * dp
    return g0, g1, dq * g0 + dp * g1


def homodyne(m1, m0):
    """Optimal homodyne direction g = sigma1^-1 (mu1 - mu0) and its squared SNR d . g."""
    return solve(m1[0] - m0[0], m1[1] - m0[1], *m1[2:])


def log_fidelity(m0, m1):
    """ln F of two single-mode Gaussian states (Scutaru-type closed form)."""
    s = (m0[2] + m1[2], m0[3] + m1[3], m0[4] + m1[4])
    delta = det(*s)
    mixed = (_nu(m0[2:]) > 1.0) & (_nu(m1[2:]) > 1.0)
    lam = np.where(mixed, (det(*m0[2:]) - 1.0) * (det(*m1[2:]) - 1.0), 0.0)
    quad = solve(m1[0] - m0[0], m1[1] - m0[1], *s)[2]
    # ln of sqrt(delta + lam) - sqrt(lam), rationalised for stability
    log_denom = np.log(delta) - np.log(np.sqrt(delta + lam) + np.sqrt(lam))
    return _LOG2 + -quad - log_denom


def log_s_overlap(m0, m1, s):
    """ln Tr[rho0^s rho1^(1-s)] for s in (0, 1): rho^s is Gaussian up to its
    trace G_s, with symplectic eigenvalue Lambda_s, times an overlap integral."""
    return _log_overlap_in_s(m0, m1)(np.minimum(np.maximum(s, _S_EDGE), 1.0 - _S_EDGE))


def _log_overlap_in_s(m0, m1):
    """log_s_overlap as a function of s in [_S_EDGE, 1 - _S_EDGE], with the
    s-independent terms taken once.  With up = (nu+1)^s and dn = (nu-1)^s,
    Lambda_s = (up + dn) / (up - dn), which is 1 for a pure state (dn = 0), and
    G_s = 2^s / (up - dn), set to 1 for a pure state."""
    dq, dp = m1[0] - m0[0], m1[1] - m0[1]
    terms = []
    for cov in (m0[2:], m1[2:]):
        nu = _nu(cov)
        terms.append((nu + 1.0, nu - 1.0, nu > 1.0, [x / nu for x in cov]))

    def power(plus, minus, mixed, s):
        up = np.power(plus, s)
        dn = np.power(minus, s, out=np.zeros_like(up), where=mixed)  # no 0**complex
        return (up + dn) / (up - dn), np.where(mixed, s * _LOG2 - np.log(up - dn), 0.0)

    def f(s):
        (big0, log_g0), (big1, log_g1) = (power(*t[:3], x) for t, x in zip(terms, (s, 1.0 - s)))
        ssum = tuple(big0 * x0 + big1 * x1 for x0, x1 in zip(terms[0][3], terms[1][3]))
        return _LOG2 + log_g0 + log_g1 - 0.5 * np.log(det(*ssum)) + -solve(dq, dp, *ssum)[2]

    return f


def chernoff(m0, m1):
    """(s_star, min over s of log_s_overlap).  ln Q_s is convex in s, so bisection on
    the sign of its complex-step slope Im f(s + 1e-30 i) brackets s_star.  With a pure
    state the minimum is the edge ln Tr[rho0 rho1] = log_fidelity, at s = 1 for a pure
    rho1, 0 for a pure rho0, 1/2 for two.  Last, s = 1/2 wins whenever it is lower."""
    f = _log_overlap_in_s(m0, m1)
    a = np.full(np.broadcast(*m0, *m1).shape, _S_EDGE)
    b = np.full_like(a, 1.0 - _S_EDGE)
    for _ in range(27):  # (1 - 2 _S_EDGE) / 2**27 < S_TOLERANCE
        mid = 0.5 * (a + b)
        rising = f(mid + 1e-30j).imag > 0.0
        a, b = np.where(rising, a, mid), np.where(rising, mid, b)
    s_star = 0.5 * (a + b)
    pure0, pure1 = _nu(m0[2:]) == 1.0, _nu(m1[2:]) == 1.0
    best = np.where(pure0 | pure1, log_fidelity(m0, m1), f(s_star))
    s_star = np.where(pure0 | pure1, np.where(pure0, 0.5 * pure1, 1.0), s_star)
    half = f(np.full_like(a, 0.5))
    lower = half < best
    return np.where(lower, 0.5, s_star), np.where(lower, half, best)


def exponent(log_overlap):
    """Error exponent -ln(overlap), clipped to [0, XI_SATURATION_CAP]."""
    return np.minimum(np.maximum(-log_overlap, 0.0), XI_SATURATION_CAP)


def report(h1, h0):
    """Every score of the pairs (H1, H0), keyed as the fields of MetricReport,
    and the optimal homodyne direction g as ``direction``."""
    disp, b2 = w2_terms(h0, h1)
    log_f = log_fidelity(h0, h1)
    g0, g1, snr = homodyne(h1, h0)
    return {
        "w2_sq": disp + b2,
        "displacement_term": disp,
        "bures_sq": b2,
        "fidelity": np.exp(log_f),
        "xi_qbb": exponent(log_s_overlap(h0, h1, 0.5)),
        "xi_qbb_proxy": exponent(0.5 * log_f),
        "xi_qcb": exponent(chernoff(h0, h1)[1]),
        "snr_sq_opt": np.where(disp == 0.0, 0.0, snr),
        "direction": (g0, g1),
    }


def map_blocks(fn, items, workers, executor, *args):
    """Apply ``fn(block, *args)`` to contiguous blocks of ``items`` and join the
    tuples of arrays it returns in index order; one call if ``workers`` <= 1,
    else the blocks go to a pool of the ``concurrent.futures`` class
    ``executor``, with no more workers than blocks."""
    if workers <= 1:
        return fn(items, *args)
    blocks = [b for b in np.array_split(items, 4 * workers) if b.size]
    with executor(max_workers=min(workers, len(blocks))) as pool:
        parts = list(pool.map(fn, blocks, *(repeat(a) for a in args)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))
