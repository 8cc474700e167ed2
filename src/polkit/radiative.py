"""Einstein A-coefficients, radiative lifetimes, and inverse extraction.

The A-coefficient convention divides by the statistical weight 2j+1 of the
UPPER state.  Rates are reported in MHz and lifetimes in ns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .constants import RATE_AU_IN_PER_S, SPEED_OF_LIGHT_AU
from .dataset import (
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    Dataset,
    LevelLabel,
    Quantity,
    _make,
    require_unit,
)


class DecayChannel(namedtuple("DecayChannel", "upper lower A")):
    """One spontaneous-emission channel of an upper state."""

    __slots__ = ()
    _make = _make

    def __new__(cls, upper: LevelLabel, lower: LevelLabel, A: Quantity) -> "DecayChannel":
        require_unit(A, MEGAHERTZ, "rate")
        if A.value <= 0:
            raise ValueError(f"decay rate must be positive: {A.value}")
        return tuple.__new__(cls, (upper, lower, A))


def _rate_per_d_squared_mhz(delta_e_au: float, j2_upper: int) -> float:
    """A/d^2 in MHz per (e*a0)^2 for a transition of energy delta_e_au."""
    try:
        rate_au = (4.0 / 3.0) * delta_e_au**3 / SPEED_OF_LIGHT_AU**3 / (j2_upper + 1)
    except OverflowError:
        raise ValueError(
            f"transition energy {delta_e_au!r} hartree is out of range: its cube overflows"
        ) from None
    per_d2 = rate_au * RATE_AU_IN_PER_S / 1e6
    if per_d2 == 0.0 or math.isinf(per_d2):
        problem = "underflows" if per_d2 == 0.0 else "overflows"
        raise ValueError(
            f"transition energy {delta_e_au!r} hartree is out of range: A/d^2 {problem}"
        )
    return per_d2


def einstein_A(d: Quantity, delta_e_au: float, j2_upper: int) -> Quantity:
    """Spontaneous decay rate in MHz for a channel of energy delta_e_au.

    ``j2_upper`` is twice the upper state's j.
    """
    require_unit(d, E_A0, "matrix element")
    if delta_e_au <= 0:
        raise ValueError(f"transition energy must be positive: {delta_e_au}")
    if d.value == 0.0:
        return Quantity(0.0, 0.0, MEGAHERTZ)
    try:
        value = _rate_per_d_squared_mhz(delta_e_au, j2_upper) * d.value**2
    except OverflowError:
        raise ValueError(
            f"matrix element {d.value!r} e*a0 is out of range: d^2 overflows"
        ) from None
    if value == 0.0:
        raise ValueError(f"matrix element {d.value!r} e*a0 is out of range: its rate underflows")
    # Doubled last: 2 * value overflows for a finite rate above half the largest float.
    return Quantity(value, value * d.relative_unc() * 2.0, MEGAHERTZ)


def decay_channels(ds: Dataset, upper: LevelLabel) -> list[DecayChannel]:
    """Every channel from `upper` down to a level it shares an E1 element with.

    Raises :class:`UnknownLevelError` when `upper` or a partner of it is not in
    the dataset; a state with no lower partner (the ground state) has no channels.
    """
    # 0.0 - gap, not -gap: a zero gap stays +0.0 in einstein_A's refusal.
    return [
        DecayChannel(upper, el.lower, einstein_A(el.d, 0.0 - gap, upper.j2))
        for _, el, gap in ds.couplings(upper)
        if el.upper == upper
    ]


def _rate_sums(channels: Sequence[DecayChannel]) -> tuple[float, float]:
    """The channels' summed rate and quadrature-summed uncertainty in MHz.

    A sum that overflows is refused, naming the channels' upper state.
    """
    total = sum(ch.A.value for ch in channels)
    if math.isinf(total):
        raise ValueError(
            f"decay rates of {channels[0].upper} are out of range: their sum overflows"
        )
    try:
        return total, math.sqrt(sum(ch.A.unc**2 for ch in channels))
    except OverflowError:
        raise ValueError(
            f"decay rates of {channels[0].upper} are out of range: their squares overflow"
        ) from None


def lifetime(channels: Sequence[DecayChannel]) -> Quantity:
    """Lifetime 1/sum(A) in ns of the common upper state of `channels`."""
    if not channels:
        raise ValueError("no decay channels")
    upper = channels[0].upper
    if any(ch.upper != upper for ch in channels):
        raise ValueError("decay channels have mixed upper states")
    total, rate_unc = _rate_sums(channels)
    tau = 1000.0 / total
    try:
        tau_unc = 1000.0 * rate_unc / total**2
    except OverflowError:  # the square of the sum
        raise ValueError(
            f"decay rates of {upper} are out of range: their squares overflow"
        ) from None
    except ZeroDivisionError:  # total**2 underflows to 0
        raise ValueError(
            f"decay rates of {upper} are out of range: the square of their sum underflows"
        ) from None
    return Quantity(tau, tau_unc, NANOSECOND)


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
    if math.isinf(total_rate):
        raise ValueError(
            f"lifetime {tau_expt.value!r} ns is out of range: its reciprocal overflows"
        )
    others_rate, others_unc = _rate_sums(others)
    residual = total_rate - others_rate
    if residual <= 0:
        raise ValueError(
            "measured lifetime is inconsistent with the other decay channels "
            f"(residual rate {residual:.6g} MHz)"
        )
    per_d2 = _rate_per_d_squared_mhz(delta_e_au, j2_upper)
    d = math.sqrt(residual / per_d2)
    if math.isinf(d):
        raise ValueError(
            f"transition energy {delta_e_au!r} hartree is out of range: "
            "the matrix element overflows"
        )
    if d == 0.0:
        raise ValueError(
            f"lifetime {tau_expt.value!r} ns and transition energy {delta_e_au!r} hartree "
            "are out of range: the matrix element underflows"
        )
    tau_term = total_rate * tau_expt.unc / tau_expt.value
    if math.isinf(tau_term):
        raise ValueError(
            f"lifetime uncertainty {tau_expt.unc!r} ns is out of range: "
            "the rate's uncertainty overflows"
        )
    d_unc = d * math.hypot(tau_term, others_unc) / (2.0 * residual)
    if math.isinf(d_unc):
        raise ValueError(
            f"lifetime uncertainty {tau_expt.unc!r} ns is out of range: "
            "the matrix element's uncertainty overflows"
        )
    return Quantity(d, d_unc, E_A0)
