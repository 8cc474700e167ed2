"""Einstein A-coefficients, radiative lifetimes, and inverse extraction.

The A-coefficient convention divides by the statistical weight 2j+1 of the
UPPER state.  Rates are reported in MHz and lifetimes in ns.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .constants import RATE_AU_IN_PER_S, SPEED_OF_LIGHT_AU
from .dataset import (
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    Dataset,
    LevelLabel,
    Quantity,
    Record,
    _gap_au,
    _set,
    require_unit,
)


class DecayChannel(Record):
    """One spontaneous-emission channel of an upper state."""

    __slots__ = _fields = ("upper", "lower", "A")

    def __init__(self, upper: LevelLabel, lower: LevelLabel, A: Quantity) -> None:
        require_unit(A, MEGAHERTZ, "rate")
        if A.value <= 0:
            raise ValueError(f"decay rate must be positive: {A.value}")
        _set(self, "upper", upper)
        _set(self, "lower", lower)
        _set(self, "A", A)


def _rate_per_d_squared_mhz(delta_e_au: float, j2_upper: int) -> float:
    """A/d^2 in MHz per (e*a0)^2 for a transition of energy delta_e_au."""
    rate_au = (4.0 / 3.0) * delta_e_au**3 / SPEED_OF_LIGHT_AU**3 / (j2_upper + 1)
    return rate_au * RATE_AU_IN_PER_S / 1e6


def einstein_A(d: Quantity, delta_e_au: float, j2_upper: int) -> Quantity:
    """Spontaneous decay rate in MHz for a channel of energy delta_e_au.

    ``j2_upper`` is twice the upper state's j.
    """
    require_unit(d, E_A0, "matrix element")
    if delta_e_au <= 0:
        raise ValueError(f"transition energy must be positive: {delta_e_au}")
    if d.value == 0.0:
        return Quantity(0.0, 0.0, MEGAHERTZ)
    value = _rate_per_d_squared_mhz(delta_e_au, j2_upper) * d.value**2
    return Quantity(value, 2.0 * value * d.relative_unc(), MEGAHERTZ)


def decay_channels(ds: Dataset, upper: LevelLabel) -> list[DecayChannel]:
    """Every channel from `upper` down to a level it shares an E1 element with.

    Raises :class:`UnknownLevelError` when `upper` is not in the dataset; a
    state with no lower partner (the ground state) has no channels.
    """
    ds.level(upper)
    channels = []
    for el in ds.elements_coupling(upper):
        if el.upper == upper:
            delta_e = _gap_au(ds, el.lower, upper)
            channels.append(DecayChannel(upper, el.lower, einstein_A(el.d, delta_e, upper.j2)))
    return channels


def lifetime(channels: Sequence[DecayChannel]) -> Quantity:
    """Lifetime 1/sum(A) in ns of the common upper state of `channels`."""
    if not channels:
        raise ValueError("no decay channels")
    upper = channels[0].upper
    if any(ch.upper != upper for ch in channels):
        raise ValueError("decay channels have mixed upper states")
    total = sum(ch.A.value for ch in channels)
    tau = 1000.0 / total
    rate_unc = math.sqrt(sum(ch.A.unc**2 for ch in channels))
    return Quantity(tau, 1000.0 * rate_unc / total**2, NANOSECOND)


def extract_matrix_element(
    tau_expt: Quantity,
    other_channels: Iterable[DecayChannel],
    delta_e_au: float,
    j2_upper: int,
) -> Quantity:
    """Invert a measured lifetime for the remaining channel's matrix element.

    The residual rate 1/tau - sum(other A) is attributed to the channel of
    energy `delta_e_au` out of an upper state with twice-j `j2_upper`; the
    positive root is returned.  The uncertainty propagates the lifetime error
    together with the (usually negligible) other-channel uncertainties.
    """
    require_unit(tau_expt, NANOSECOND, "lifetime")
    if tau_expt.value <= 0:
        raise ValueError(f"lifetime must be positive: {tau_expt.value}")
    others = list(other_channels)
    total_rate = 1000.0 / tau_expt.value
    residual = total_rate - sum(ch.A.value for ch in others)
    if residual <= 0:
        raise ValueError(
            "measured lifetime is inconsistent with the other decay channels "
            f"(residual rate {residual:.6g} MHz)"
        )
    per_d2 = _rate_per_d_squared_mhz(delta_e_au, j2_upper)
    d = math.sqrt(residual / per_d2)
    rate_unc = math.hypot(
        total_rate * tau_expt.unc / tau_expt.value,
        math.sqrt(sum(ch.A.unc**2 for ch in others)),
    )
    return Quantity(d, d * rate_unc / (2.0 * residual), E_A0)
