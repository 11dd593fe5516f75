"""Independent references for the benchmark's correctness checks.

Nothing here imports qlidar.  Probe states and the lossy channel are rebuilt
from their definitions, and the squared Wasserstein-2 distance is evaluated
in 50-digit decimal arithmetic through the eigenvalues of sigma0 sigma1
(tr sqrt(sigma0^1/2 sigma1 sigma0^1/2) = sum of sqrt of those eigenvalues),
so rounding in the reference sits far below any tolerance the checks use.
The fading transmissivity is redrawn from the documented per-index Philox
contract.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

PRECISION = 50

# A 2x2 symmetric matrix as (a, b, c) = [[a, b], [b, c]]; a mean as (q, p).
Sym = tuple[Decimal, Decimal, Decimal]
Vec = tuple[Decimal, Decimal]


def _dec(x: float) -> Decimal:
    # Decimal(float) is the exact binary value, so the reference sees the
    # same inputs as the program
    return Decimal(float(x))


def probe_pair(n_tot: float, lam: float, n_th: float, eta: float,
               eta_det: float = 1.0) -> tuple[Vec, Sym, Vec, Sym]:
    """(mu0, sigma0, mu1, sigma1) for background vs probe after the channel.

    The probe is a squeezed vacuum with sinh^2 r = lam n_tot, squeezed along
    q, displaced along q by |mu|^2 / 2 = (1 - lam) n_tot photons.  The
    channel maps mu -> sqrt(e) mu and sigma -> e sigma + (1 - e)(2 n_th + 1) I
    with e = eta eta_det; the background is the thermal state (2 n_th + 1) I.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        n, lam_d, e = _dec(n_tot), _dec(lam), _dec(eta) * _dec(eta_det)
        n_sq = lam_d * n
        # e^r = sqrt(N) + sqrt(N + 1) when sinh^2 r = N
        g2 = (n_sq.sqrt() + (n_sq + 1).sqrt()) ** 2
        t = 2 * _dec(n_th) + 1
        mu1 = ((e * 2 * (1 - lam_d) * n).sqrt(), Decimal(0))
        sigma1 = (e / g2 + (1 - e) * t, Decimal(0), e * g2 + (1 - e) * t)
        return (Decimal(0), Decimal(0)), (t, Decimal(0), t), mu1, sigma1


def trace_sum(s0: Sym, s1: Sym) -> float:
    """tr sigma0 + tr sigma1, the scale of the absolute W2 tolerance."""
    return float(s0[0] + s0[2] + s1[0] + s1[2])


def w2_sq(mu0: Vec, s0: Sym, mu1: Vec, s1: Sym) -> float:
    """|mu1 - mu0|^2 + tr s0 + tr s1 - 2 tr sqrt(s0^1/2 s1 s0^1/2)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a0, b0, c0 = s0
        a1, b1, c1 = s1
        tr_p = a0 * a1 + 2 * b0 * b1 + c0 * c1
        det_p = (a0 * c0 - b0 * b0) * (a1 * c1 - b1 * b1)
        disc = max(tr_p * tr_p - 4 * det_p, Decimal(0))
        hi = (tr_p + disc.sqrt()) / 2
        lo = max(det_p / hi, Decimal(0))
        root_trace = hi.sqrt() + lo.sqrt()
        dq, dp = mu1[0] - mu0[0], mu1[1] - mu0[1]
        return float(dq * dq + dp * dp + a0 + c0 + a1 + c1 - 2 * root_trace)


def snr_sq(mu0: Vec, mu1: Vec, s1: Sym) -> float:
    """Optimal homodyne deflection d . sigma1^-1 . d (Cauchy-Schwarz bound)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a, b, c = s1
        dq, dp = mu1[0] - mu0[0], mu1[1] - mu0[1]
        return float((c * dq * dq - 2 * b * dq * dp + a * dp * dp) / (a * c - b * b))


def philox_eta(seed: int, index: int, alpha: float, beta: float) -> float:
    """Beta(alpha, beta) draw of realization ``index`` under the Philox contract.

    One Philox stream per index, keyed by SeedSequence(seed, spawn_key=(index,));
    eta = X / (X + Y) with X ~ Gamma(alpha), Y ~ Gamma(beta), boundary hits
    redrawn from the same stream.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))
    while True:
        x = rng.gamma(alpha)
        y = rng.gamma(beta)
        eta = x / (x + y)
        if 0.0 < eta < 1.0:
            return float(eta)
