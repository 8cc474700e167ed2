"""Einstein A-coefficients, radiative lifetimes, and inverse extraction.

The A-coefficient convention divides by the statistical weight 2j+1 of the
UPPER state.  Rates are in MHz and lifetimes in ns.  Rate uncertainties add in
quadrature by ``math.hypot``, and the relative uncertainty of a lifetime or an
extracted matrix element is formed from relative terms of the rates it sums,
so no rate, rate sum or uncertainty is squared.
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
    _tuple_new,
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
        return _tuple_new(cls, (upper, lower, A))


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
    unc = value * d.relative_unc() * 2.0
    if math.isinf(unc) and math.isfinite(value):
        raise ValueError(
            f"matrix element uncertainty {d.unc!r} e*a0 is out of range: "
            "the rate's uncertainty overflows"
        )
    return Quantity(value, unc, MEGAHERTZ)


def decay_channels(
    ds: Dataset, upper: LevelLabel, *, skip: LevelLabel | None = None
) -> list[DecayChannel]:
    """Every channel from `upper` down to an E1 partner below it, except to `skip`.

    Raises :class:`UnknownLevelError` when `upper` or a partner of it is not in
    the dataset; a state with no lower partner (the ground state) has no channels.
    """
    # 0.0 - gap, not -gap: a zero gap stays +0.0 in einstein_A's refusal.
    return [
        DecayChannel(upper, el.lower, einstein_A(el.d, 0.0 - gap, upper.j2))
        for _, el, gap in ds.couplings(upper)
        if el.upper == upper and el.lower != skip
    ]


def _rate_sums(channels: Sequence[DecayChannel]) -> tuple[float, float]:
    """The channels' summed rate and quadrature-summed uncertainty in MHz.

    A sum that overflows is refused, naming the channels' upper state.
    """
    total = sum([ch.A.value for ch in channels])
    unc = math.hypot(*[ch.A.unc for ch in channels])
    if math.isinf(total) or math.isinf(unc):
        what = "sum" if math.isinf(total) else "uncertainty"
        raise ValueError(
            f"decay rates of {channels[0].upper} are out of range: their {what} overflows"
        )
    return total, unc


def lifetime(channels: Sequence[DecayChannel]) -> Quantity:
    """Lifetime 1/sum(A) in ns of the common upper state of `channels`."""
    if not channels:
        raise ValueError("no decay channels")
    upper = channels[0].upper
    for ch in channels:
        if ch.upper != upper:
            raise ValueError("decay channels have mixed upper states")
    total, rate_unc = _rate_sums(channels)
    tau = 1000.0 / total
    tau_unc = tau * (rate_unc / total)
    if math.isinf(tau) or math.isinf(tau_unc):
        what = "lifetime" if math.isinf(tau) else "lifetime's uncertainty"
        raise ValueError(f"decay rates of {upper} are out of range: the {what} overflows")
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
    positive root is returned.  sigma_d / d is half the quadrature sum of the
    residual rate's relative terms from the lifetime and the other channels.
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
    # total/residual is at most 2**53: a positive residual is a float difference of at least
    # total * 2**-53.  Left to right, the product keeps the recorded golden extract outputs;
    # sigma_tau's power of two is applied last, exactly, so no intermediate overflows.
    mantissa, exponent = math.frexp(tau_expt.unc)
    try:
        tau_rel = math.ldexp(total_rate / residual * mantissa / tau_expt.value, exponent)
    except OverflowError:
        tau_rel = math.inf  # refused below, as an overflowing sigma_d
    others_rel = others_unc / residual
    d_unc = d * (math.hypot(tau_rel, others_rel) / 2.0)
    if math.isinf(d_unc):  # named after the larger of its two terms
        if others_rel > tau_rel:
            source = f"other decay rates of {others[0].upper} are"
        else:
            source = f"lifetime uncertainty {tau_expt.unc!r} ns is"
        raise ValueError(f"{source} out of range: the matrix element's uncertainty overflows")
    return Quantity(d, d_unc, E_A0)
