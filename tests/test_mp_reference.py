"""Known values of the 50-digit references in ``mp_reference``."""

import pytest

from mp_reference import MP, mp_bures, mp_log_fidelity, mp_w2_terms


def test_thermal_pair_bures_and_w2_in_closed_form():
    # sigma_i = t_i I: sqrt(sqrt(s0) s1 sqrt(s0)) = sqrt(t0 t1) I, so
    # Bures^2 = 2 (sqrt(t0) - sqrt(t1))^2; the displacement term is |mu1 - mu0|^2
    t0, t1 = 1.6, 4.4
    exact = 2 * (MP.sqrt(MP.mpf(t0)) - MP.sqrt(MP.mpf(t1))) ** 2
    assert abs(mp_bures((t0, 0.0, t0), (t1, 0.0, t1)) - exact) < MP.mpf("1e-48")
    disp, bures = mp_w2_terms((0.5, -1.0, t0, 0.0, t0), (2.0, 1.0, t1, 0.0, t1))
    assert disp == MP.mpf("6.25") and abs(bures - exact) < MP.mpf("1e-48")


@pytest.mark.parametrize("m0,m1,fidelity", [
    # vacuum and D(alpha) S(r)|0> with e^(2r) = 4 and alpha = 1 / sqrt(2) along the
    # squeezed axis: |<psi|phi>|^2 = sech(r) exp(-alpha^2 (1 + tanh r)) = 0.8 e^-0.8
    ((0.0, 0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 0.25, 0.0, 4.0), MP.mpf("0.8") * MP.exp(MP.mpf("-0.8"))),
    # S(r)|0> and the same state turned by pi / 2: |<psi|phi>|^2 = 1 / cosh(2r) = 8 / 17
    ((0.0, 0.0, 4.0, 0.0, 0.25), (0.0, 0.0, 0.25, 0.0, 4.0), MP.mpf(8) / 17),
    # thermal states with n = 1/4 and 1 commute: F = (sum_k sqrt(p_k q_k))^2
    # = 1 / (sqrt((n0 + 1) (n1 + 1)) - sqrt(n0 n1))^2 = 1 / (sqrt(2.5) - sqrt(0.25))^2
    ((0.0, 0.0, 1.5, 0.0, 1.5), (0.0, 0.0, 3.0, 0.0, 3.0), 1 / (MP.sqrt(2.5) - 0.5) ** 2),
], ids=["pure-displaced-squeezed", "pure-orthogonal-squeezing", "thermal"])
def test_fidelity_known_values(m0, m1, fidelity):
    for a, b in ((m0, m1), (m1, m0)):
        assert abs(mp_log_fidelity(a, b) - MP.log(fidelity)) < MP.mpf("1e-48")
