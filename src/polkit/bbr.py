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
from .dataset import A0_CUBED, HERTZ, MAX_ETA, MAX_TEMPERATURE_K, SI_POLARIZABILITY, Quantity
from .dataset import MAX_POLARIZABILITY, _make, _tuple_new, out_of_bounds, require_unit


class BBRConditions(namedtuple("BBRConditions", "temperature eta")):
    """Ambient conditions for a blackbody shift evaluation.

    The field is always the 300 K blackbody RMS field, ``BBR_FIELD_300K``;
    temperature scaling is the explicit (T/300)^4 factor.  T lies in [0, 1e5] K,
    T = 0 being the trivial zero-field limit, and |eta| is at most 1.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, temperature: float = 300.0, eta: float = 0.0) -> "BBRConditions":
        if not (0.0 <= temperature <= MAX_TEMPERATURE_K and -MAX_ETA <= eta <= MAX_ETA):
            raise ValueError(out_of_bounds(("temperature [K]", temperature, 0.0, MAX_TEMPERATURE_K),
                                           ("eta", eta, -MAX_ETA, MAX_ETA)))
        return _tuple_new(cls, (temperature, eta))


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
    return -0.5 * BBR_FIELD_300K**2 * (cond.temperature / 300.0) ** 4 * (1.0 + cond.eta)


def _check_polarizabilities(*named: tuple[str, Quantity]) -> None:
    """The one wording of a refusal of the polarizabilities a shift takes: each (what, alpha)
    must be in a0^3, with |value| and sigma at most MAX_POLARIZABILITY; a wrong unit is named
    first, then the first one outside.  A shift tests them in its one valid-path condition and
    calls this only when that fails."""
    for what, alpha in named:
        require_unit(alpha, A0_CUBED, what)
    top = MAX_POLARIZABILITY
    for what, alpha in named:
        if not (-top <= alpha.value <= top and alpha.unc <= top):
            raise ValueError(out_of_bounds((f"{what} [a0^3]", alpha.value, -top, top),
                                           (f"{what} uncertainty [a0^3]", alpha.unc, 0.0, top)))


def bbr_shift_state(alpha0: Quantity, cond: BBRConditions) -> Quantity:
    """BBR shift in Hz of a single state of scalar polarizability alpha0."""
    top = MAX_POLARIZABILITY
    if not (alpha0.unit == A0_CUBED and -top <= alpha0.value <= top and alpha0.unc <= top):
        _check_polarizabilities(("polarizability", alpha0))
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
    the difference; it must lie in [0, min(sigma_g, sigma_e)], as a part of each.
    """
    g, e = alpha_ground, alpha_excited
    top = MAX_POLARIZABILITY
    if not (g.unit == e.unit == A0_CUBED and -top <= g.value <= top and g.unc <= top
            and -top <= e.value <= top and e.unc <= top):
        _check_polarizabilities(("ground polarizability", g), ("excited polarizability", e))
    bound = min(g.unc, e.unc)
    if not 0.0 <= shared_core_unc <= bound:
        raise ValueError(
            f"shared_core_unc {shared_core_unc!r} a0^3 is out of range: it must lie in "
            f"[0, {bound!r}], the smaller polarizability uncertainty"
        )
    factor = _shift_per_si_alpha(cond) * POLARIZABILITY_AU_IN_SI
    diff = e.value - g.value
    var = g.unc**2 + e.unc**2 - 2.0 * shared_core_unc**2
    return Quantity(factor * diff, abs(factor) * math.sqrt(var), HERTZ)
