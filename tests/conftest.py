import csv
import math
from pathlib import Path

import numpy as np

from qlidar.errors import InvalidParameterError, real
from qlidar.states import GaussianState

DATA_DIR = Path(__file__).parent / "data"


def squeezed_vacuum(r: float) -> GaussianState:
    """Squeezed vacuum with sigma = diag(exp(-2r), exp(2r)) and zero mean."""
    if (r := real("squeezing parameter", r)) < 0:
        raise InvalidParameterError(f"squeezing parameter must be >= 0, got {r}")
    return GaussianState(np.zeros(2), np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]))


def rotation_matrix(theta: float) -> np.ndarray:
    theta = real("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(state: GaussianState, theta: float) -> GaussianState:
    """Rotate a state in phase space: mu -> R mu, sigma -> R sigma R^T."""
    rot = rotation_matrix(theta)
    return GaussianState(rot @ state.mu, rot @ state.sigma @ rot.T)


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
