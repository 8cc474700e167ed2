"""Blackbody-radiation frequency shifts of states and clock transitions.

The shift of a state with static scalar polarizability alpha0 is

    dnu = -1/2 (831.9 V/m)^2 (T/300)^4 alpha0 (1 + eta)   [Hz]

with alpha0 converted from a0^3 to Hz/(V/m)^2; eta is a small dynamic
correction, negligible at this accuracy and zero by default.  The clock
shift is the difference of the two state shifts.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import BBR_FIELD_300K, POLARIZABILITY_AU_IN_SI
from .dataset import A0_CUBED, HERTZ, SI_POLARIZABILITY, Quantity, _make, require_unit


class BBRConditions(namedtuple("BBRConditions", "temperature eta")):
    """Ambient conditions for a blackbody shift evaluation.

    The reference field is the 300 K blackbody RMS field and is fixed;
    temperature scaling is the explicit (T/300)^4 factor.  T = 0 is allowed
    as the trivial zero-field limit.
    """

    __slots__ = ()
    _make = _make
    reference_field = BBR_FIELD_300K

    def __new__(cls, temperature: float = 300.0, eta: float = 0.0) -> "BBRConditions":
        if not math.isfinite(temperature):
            raise ValueError(f"non-finite temperature: {temperature!r}")
        if not math.isfinite(eta):
            raise ValueError(f"non-finite eta: {eta!r}")
        if temperature < 0:
            raise ValueError(f"negative temperature: {temperature}")
        return tuple.__new__(cls, (temperature, eta))

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, reference_field={self.reference_field!r})"


def au_to_si(alpha: Quantity) -> Quantity:
    """Convert a polarizability from a0^3 to Hz/(V/m)^2."""
    require_unit(alpha, A0_CUBED, "polarizability")
    return Quantity(
        alpha.value * POLARIZABILITY_AU_IN_SI,
        alpha.unc * POLARIZABILITY_AU_IN_SI,
        SI_POLARIZABILITY,
    )


def _shift_per_si_alpha(cond: BBRConditions) -> float:
    """Shift in Hz per unit of alpha/h [Hz/(V/m)^2]: -1/2 E^2 (T/300)^4 (1 + eta)."""
    try:
        factor = -0.5 * cond.reference_field**2 * (cond.temperature / 300.0) ** 4
    except OverflowError:
        factor = -math.inf
    if not math.isfinite(factor):
        raise ValueError(
            f"temperature {cond.temperature!r} K is out of range: the (T/300)^4 factor overflows"
        )
    factor *= 1.0 + cond.eta
    if not math.isfinite(factor):
        raise ValueError(f"eta {cond.eta!r} is out of range: the (1 + eta) factor overflows")
    return factor


def bbr_shift_state(alpha0: Quantity, cond: BBRConditions) -> Quantity:
    """BBR shift in Hz of a single state of scalar polarizability alpha0."""
    factor = _shift_per_si_alpha(cond)
    shifted = au_to_si(alpha0)
    return Quantity(factor * shifted.value, abs(factor) * shifted.unc, HERTZ)


def clock_bbr_shift(
    alpha_ground: Quantity,
    alpha_excited: Quantity,
    cond: BBRConditions,
    shared_core_unc: float = 0.0,
) -> Quantity:
    """BBR shift in Hz of a clock transition ground -> excited.

    Uncertainties of the two polarizabilities combine in quadrature.  When
    `shared_core_unc` is nonzero, that common (fully correlated) core
    contribution is removed from both before combining, since it cancels in
    the difference.
    """
    require_unit(alpha_ground, A0_CUBED, "ground polarizability")
    require_unit(alpha_excited, A0_CUBED, "excited polarizability")
    factor = _shift_per_si_alpha(cond) * POLARIZABILITY_AU_IN_SI
    diff = alpha_excited.value - alpha_ground.value
    try:
        var = alpha_ground.unc**2 + alpha_excited.unc**2 - 2.0 * shared_core_unc**2
    except OverflowError:
        unc = max(alpha_ground.unc, alpha_excited.unc, shared_core_unc)
        raise ValueError(
            f"polarizability uncertainty {unc!r} a0^3 is out of range: its square overflows"
        ) from None
    return Quantity(factor * diff, abs(factor) * math.sqrt(max(var, 0.0)), HERTZ)
