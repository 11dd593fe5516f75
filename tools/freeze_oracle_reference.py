"""Regenerate the frozen Fock-oracle reference table.

Writes tests/data/oracle_reference.csv: 50 state pairs with the oracle
fidelity and s = 1/2 overlap evaluated at a cutoff sized so that truncation
stays inside the trace budget.  The table is committed; the test suite
regression-checks the oracle against it and gates the Gaussian closed forms
on it.  Run from the repository root:

    python tools/freeze_oracle_reference.py
"""

import math
from pathlib import Path

import numpy as np

from qlidar import fock
from qlidar.errors import CutoffTooSmallError
from qlidar.states import GaussianState

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "oracle_reference.csv"
SEED = 20250601


GATE_TOL = 1e-8


def random_state(rng) -> GaussianState:
    nbar = rng.uniform(0.0, 0.8)
    r = rng.uniform(0.0, 0.8)
    phi = rng.uniform(0.0, math.pi)
    mu = rng.uniform(-1.5, 1.5, size=2)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    core = (2.0 * nbar + 1.0) * np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)])
    return GaussianState(mu, rot @ core @ rot.T)


def eval_pair(s0: GaussianState, s1: GaussianState, cutoff: int):
    rho0 = fock.build_state(s0, cutoff)
    rho1 = fock.build_state(s1, cutoff)
    return fock.oracle_fidelity(rho0, rho1), fock.oracle_s_overlap(rho0, rho1, 0.5)


def converged_values(s0: GaussianState, s1: GaussianState, cutoff: int):
    """Escalate the cutoff until a 1.5x increase moves both values < GATE_TOL.

    After a non-converged step the larger cutoff's values are carried forward,
    so each cutoff is evaluated once.
    """
    carried = None
    while True:
        try:
            fid, half = carried or eval_pair(s0, s1, cutoff)
            bigger = int(math.ceil(1.5 * cutoff))
            fid2, half2 = eval_pair(s0, s1, bigger)
        except CutoffTooSmallError as exc:
            cutoff, carried = exc.suggested_cutoff, None
            continue
        if abs(fid - fid2) < GATE_TOL and abs(half - half2) < GATE_TOL:
            return fid, half, cutoff
        cutoff, carried = bigger, (fid2, half2)


def main() -> None:
    rng = np.random.default_rng(SEED)
    pairs: list[tuple[GaussianState, GaussianState, int]] = []

    vacuum = GaussianState([0.0, 0.0], np.eye(2))
    coherent = GaussianState([math.sqrt(2.0), 0.0], np.eye(2))
    thermal2 = GaussianState([0.0, 0.0], 5.0 * np.eye(2))
    squeezed = GaussianState([0.0, 0.0], np.diag([math.exp(-1.0), math.exp(1.0)]))
    pairs.append((vacuum, coherent, 60))
    pairs.append((vacuum, thermal2, 200))
    pairs.append((squeezed, vacuum, 60))
    pairs.append((coherent, GaussianState([0.0, math.sqrt(2.0)], np.eye(2)), 60))

    while len(pairs) < 50:
        pairs.append((random_state(rng), random_state(rng), 60))

    OUT.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "case_id,mu0_q,mu0_p,s0_qq,s0_qp,s0_pp,"
        "mu1_q,mu1_p,s1_qq,s1_qp,s1_pp,cutoff,fidelity,overlap_half"
    ]
    for case_id, (s0, s1, start_cutoff) in enumerate(pairs):
        fid, half, cutoff = converged_values(s0, s1, start_cutoff)
        nums = [*s0.mu, *s0.sigma[np.triu_indices(2)], *s1.mu, *s1.sigma[np.triu_indices(2)]]
        lines.append(
            f"{case_id}," + ",".join(format(v, ".17g") for v in nums)
            + f",{cutoff},{fid:.17g},{half:.17g}"
        )
        print(f"case {case_id:2d}: cutoff={cutoff:3d} F={fid:.12f} Q12={half:.12f}")
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(pairs)} cases)")


if __name__ == "__main__":
    main()
