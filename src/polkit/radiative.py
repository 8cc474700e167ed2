"""Einstein A-coefficients, radiative lifetimes, and inverse extraction.

The A-coefficient convention divides by the statistical weight 2j+1 of the
UPPER state.  Rates are in MHz and lifetimes in ns.  Rates sum exactly, by ``math.fsum``,
in any order on every interpreter, and their uncertainties in quadrature by ``math.hypot``;
a lifetime's or extracted element's relative uncertainty is formed from the rates' terms.
``einstein_A``, ``DecayChannel``, ``measured_lifetime`` and ``extract_matrix_element``
check their inputs against the bounds of :mod:`polkit.dataset`, inside which no rate, sum
or uncertainty over- or underflows.  ``extract_pair`` checks the pair that an extraction
names in a dataset, then extracts its matrix element.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .constants import HARTREE_IN_CM, RATE_AU_IN_PER_S, SPEED_OF_LIGHT_AU
from .dataset import (
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    Dataset,
    LevelLabel,
    Quantity,
    _make,
    _sigma,
    _tuple_new,
    out_of_bounds,
    require_unit,
)
from .dataset import MAX_D, MAX_GAP_AU, MAX_RATE_MHZ, MAX_TAU_NS, MIN_D, MIN_GAP_AU, MIN_RATE_MHZ
from .dataset import MIN_TAU_NS, DatasetError, e1_selection_ok, gap_fault


class DecayChannel(namedtuple("DecayChannel", "upper lower A")):
    """One spontaneous-emission channel of an upper state."""

    __slots__ = ()
    _make = _make

    def __new__(cls, upper: LevelLabel, lower: LevelLabel, A: Quantity) -> "DecayChannel":
        if not (A.unit == MEGAHERTZ and MIN_RATE_MHZ <= A.value <= MAX_RATE_MHZ
                and A.unc <= MAX_RATE_MHZ):
            require_unit(A, MEGAHERTZ, "rate")
            raise ValueError(out_of_bounds(("A [MHz]", A.value, MIN_RATE_MHZ, MAX_RATE_MHZ),
                                           ("A uncertainty [MHz]", A.unc, 0.0, MAX_RATE_MHZ)))
        return _tuple_new(cls, (upper, lower, A))


def _rate_per_d_squared_mhz(delta_e_au: float, j2_upper: int) -> float:
    """A/d^2 in MHz per (e*a0)^2 for a transition of energy delta_e_au."""
    rate_au = (4.0 / 3.0) * delta_e_au**3 / SPEED_OF_LIGHT_AU**3 / (j2_upper + 1)
    return rate_au * RATE_AU_IN_PER_S / 1e6


def einstein_A(d: Quantity, delta_e_au: float, j2_upper: int) -> Quantity:
    """Spontaneous decay rate in MHz for a channel of energy delta_e_au.

    ``j2_upper`` is twice the upper state's j.
    """
    if not (d.unit == E_A0 and MIN_GAP_AU <= delta_e_au <= MAX_GAP_AU
            and MIN_D <= d.value <= MAX_D and d.unc <= MAX_D):
        require_unit(d, E_A0, "matrix element")
        raise ValueError(out_of_bounds(("gap [hartree]", delta_e_au, MIN_GAP_AU, MAX_GAP_AU),
                                       ("d [e*a0]", d.value, MIN_D, MAX_D),
                                       ("d uncertainty [e*a0]", d.unc, 0.0, MAX_D)))
    value = _rate_per_d_squared_mhz(delta_e_au, j2_upper) * d.value**2
    return Quantity(value, _sigma(value, d.unc / d.value), MEGAHERTZ)  # d >= MIN_D > 0


def decay_channels(ds: Dataset, upper: LevelLabel) -> list[DecayChannel]:
    """Every channel from `upper` down to an E1 partner below it.

    Raises :class:`UnknownLevelError` when `upper` is not in the dataset; a state
    with no lower partner (the ground state) has no channels.
    """
    return [
        DecayChannel(upper, el.lower, einstein_A(el.d, -gap, upper.j2))
        for _, el, gap in ds.couplings(upper)
        if el.upper == upper
    ]


def _rate_sums(channels: Sequence[DecayChannel]) -> tuple[float, float]:
    """The channels' exactly summed rate and quadrature-summed uncertainty in MHz."""
    return math.fsum([ch.A.value for ch in channels]), math.hypot(*[ch.A.unc for ch in channels])


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
    return Quantity(tau, tau * (rate_unc / total), NANOSECOND)


def measured_lifetime(tau_ns: float, unc_ns: float = 0.0) -> Quantity:
    """A measured lifetime in ns, with tau in [1e-6, 1e15] ns and sigma_tau in [0, 1e15] ns.
    The one wording of those bounds: :func:`extract_matrix_element` tests them in its one
    valid-path condition and calls this only to word a refusal."""
    if not (MIN_TAU_NS <= tau_ns <= MAX_TAU_NS and 0.0 <= unc_ns <= MAX_TAU_NS):
        raise ValueError(out_of_bounds(("lifetime [ns]", tau_ns, MIN_TAU_NS, MAX_TAU_NS),
                                       ("lifetime uncertainty [ns]", unc_ns, 0.0, MAX_TAU_NS)))
    return Quantity(tau_ns, unc_ns, NANOSECOND)


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
    tau, tau_unc = tau_expt.value, tau_expt.unc
    if not (tau_expt.unit == NANOSECOND and MIN_TAU_NS <= tau <= MAX_TAU_NS
            and 0.0 <= tau_unc <= MAX_TAU_NS and MIN_GAP_AU <= delta_e_au <= MAX_GAP_AU):
        require_unit(tau_expt, NANOSECOND, "lifetime")
        measured_lifetime(tau, tau_unc)
        raise ValueError(out_of_bounds(("gap [hartree]", delta_e_au, MIN_GAP_AU, MAX_GAP_AU)))
    total_rate = 1000.0 / tau
    others_rate, others_unc = _rate_sums(list(other_channels))
    residual = total_rate - others_rate
    if residual <= 0:
        raise ValueError(
            "measured lifetime is inconsistent with the other decay channels "
            f"(residual rate {residual:.6g} MHz)"
        )
    d = math.sqrt(residual / _rate_per_d_squared_mhz(delta_e_au, j2_upper))
    # Left to right, as the recorded golden extract outputs were computed.
    tau_rel = total_rate / residual * tau_unc / tau
    return Quantity(d, d * (math.hypot(tau_rel, others_unc / residual) / 2.0), E_A0)


def extract_pair(
    ds: Dataset, upper: LevelLabel, lower: LevelLabel, tau: Quantity
) -> tuple[Quantity, list[DecayChannel]]:
    """The matrix element of upper -> lower from `tau`, a measured lifetime of `upper` in ns,
    and `upper`'s other decay channels.  An unknown level is an UnknownLevelError, the upper
    named first; an upper not above the lower or an E1-forbidden pair, a ValueError; and a
    pair with no e1 line has a gap that the dataset's structure rules did not check, refused
    in an e1 pair's words as a :class:`DatasetError`."""
    gap = ds.energy_cm(upper) - ds.energy_cm(lower)
    if gap <= 0:
        raise ValueError(f"{upper} does not lie above {lower}")
    if not e1_selection_ok(upper, lower):
        raise ValueError(f"{upper} -> {lower} violates E1 selection rules")
    if fault := gap_fault(gap):
        raise DatasetError(f"{upper} -> {lower}: {fault}")
    # The replaced channel's gap was just checked and its d lies in the box, so its rate
    # does too: computing it and dropping it cannot fail.
    others = [ch for ch in decay_channels(ds, upper) if ch.lower != lower]
    return extract_matrix_element(tau, others, gap / HARTREE_IN_CM, upper.j2), others
