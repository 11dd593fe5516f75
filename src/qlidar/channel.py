"""Lossy thermal bosonic channel acting on Gaussian moments.

The channel is the beam-splitter mixing of the signal with a thermal
environment, expressed directly on the first and second moments:

    mu_out    = sqrt(eta_eff) * mu_in
    sigma_out = eta_eff * sigma_in + (1 - eta_eff) * (2*n_th + 1) * I

with eta_eff = eta * eta_det folding the detector efficiency into the line
transmissivity.  Electronic noise v_el of a homodyne detector is extra thermal
noise of the scored pair, folded in by :func:`effective_noise`; :func:`apply_loss`,
a single-state map with no detector, rejects v_el > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .errors import InvalidParameterError, SingularityError, real
from .states import GaussianState, _occupation, validate


@dataclass(frozen=True)
class ChannelParams:
    """Transmissivity, thermal occupation and detector imperfections."""

    eta: float
    n_th: float
    eta_det: float = 1.0
    v_el: float = 0.0

    def __post_init__(self):
        for name in ("eta", "n_th", "eta_det", "v_el"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidParameterError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 < self.eta_det <= 1.0:
            raise InvalidParameterError(f"eta_det must be in (0, 1], got {self.eta_det}")
        _occupation("n_th", self.n_th)
        if self.v_el < 0:
            raise InvalidParameterError(f"v_el must be >= 0, got {self.v_el}")

    @property
    def eta_eff(self) -> float:
        """Effective transmissivity eta * eta_det."""
        return self.eta * self.eta_det


def _no_electronic_noise(params: ChannelParams) -> None:
    if params.v_el > 0.0:  # rejected, not dropped: there is no detector here
        raise InvalidParameterError(f"v_el = {params.v_el} is not modelled here; fold it into "
                                    "n_th with effective_noise, or use eta_critical_effective")


def apply_loss(state: GaussianState, params: ChannelParams) -> GaussianState:
    """Propagate a state through the lossy thermal channel (no detector: v_el > 0 is rejected)."""
    _no_electronic_noise(params)
    validate(state, "input state")
    return GaussianState.from_moments(kernel.channel(state.moments, params.eta_eff, params.n_th))


def effective_noise(params: ChannelParams) -> float:
    """Thermal occupation with detector electronic noise folded in.

    n_eff = n_th + v_el / (2 * (1 - eta_eff)).  Equals n_th exactly when
    v_el = 0.  A lossless channel with v_el > 0 has no finite equivalent and
    raises :class:`SingularityError`; that case has to be treated on its own.
    n_eff is bounded by ``N_TH_MAX`` like any thermal occupation.
    """
    if params.v_el > 0.0 and params.eta_eff >= 1.0:
        raise SingularityError("effective noise diverges at unit transmissivity with v_el > 0")
    return _occupation("n_th with v_el folded in",
                       kernel.effective_noise(params.n_th, params.v_el, params.eta_eff))
