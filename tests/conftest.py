import csv
import math
from pathlib import Path

import numpy as np

from qlidar.states import GaussianState, rotation_matrix

DATA_DIR = Path(__file__).parent / "data"


def squeezed_thermal_state(nbar, r, phi, mu) -> GaussianState:
    """sigma = R(phi) (2 nbar + 1) diag(e^-2r, e^2r) R(phi)^T, displaced to mu."""
    rot = rotation_matrix(phi)
    core = (2.0 * nbar + 1.0) * np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)])
    return GaussianState(mu, rot @ core @ rot.T)


def random_physical_state(rng, mu_scale=3.0, nbar_max=1.5, r_max=1.0) -> GaussianState:
    """Random valid state: rotated squeezed thermal core plus displacement."""
    nbar = rng.uniform(0.0, nbar_max)
    r = rng.uniform(0.0, r_max)
    phi = rng.uniform(0.0, math.pi)
    mu = rng.uniform(-mu_scale, mu_scale, size=2)
    return squeezed_thermal_state(nbar, r, phi, mu)


def load_oracle_cases():
    """Frozen oracle table rows as (case_id, state0, state1, cutoff, fidelity, overlap)."""
    cases = []
    with open(DATA_DIR / "oracle_reference.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            g = lambda key: float(row[key])
            s0 = GaussianState(
                [g("mu0_q"), g("mu0_p")],
                [[g("s0_qq"), g("s0_qp")], [g("s0_qp"), g("s0_pp")]],
            )
            s1 = GaussianState(
                [g("mu1_q"), g("mu1_p")],
                [[g("s1_qq"), g("s1_qp")], [g("s1_qp"), g("s1_pp")]],
            )
            cases.append(
                (int(row["case_id"]), s0, s1, int(row["cutoff"]), g("fidelity"), g("overlap_half"))
            )
    return cases
