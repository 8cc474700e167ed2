"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor contributions are assembled into a
breakdown of main (explicitly summed) terms plus tail and core inputs,
with all uncertainties combined in quadrature.  Energies are treated as
exact, so each contribution's uncertainty is 2*alpha*(dd/d).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .angular import tensor_prefactor_C, wigner6j
from .dataset import (
    A0_CUBED,
    E_A0,
    SCALAR,
    TENSOR,
    ZERO_A0_CUBED,
    Dataset,
    LevelLabel,
    Quantity,
    energy_difference_au,
    require_unit,
)


class Contribution(NamedTuple):
    """One intermediate state's contribution to a polarizability sum."""

    state: LevelLabel
    partner: LevelLabel
    d: Quantity
    alpha0: Quantity
    alpha2: Optional[Quantity]

    @property
    def transition(self) -> str:
        return f"{self.state}-{self.partner}"

    def value(self, multipole: str) -> Quantity:
        if multipole == SCALAR:
            return self.alpha0
        if self.alpha2 is None:
            raise ValueError(f"no tensor contribution for {self.transition}")
        return self.alpha2


class PolarizabilityBreakdown(NamedTuple):
    """Main contributions plus tail and core, with the quadrature total."""

    state: LevelLabel
    multipole: str
    main: tuple[Contribution, ...]
    tail: Quantity
    core: Quantity
    total: Quantity


def _term(d: Quantity, delta_e_au: float, angular: Optional[Callable[[], float]]) -> Quantity:
    """One sum-over-states term angular * d^2/deltaE in a0^3.

    alpha is proportional to d^2, so d(alpha) = 2 |alpha| dd/d.  `angular` is
    None for a term that vanishes identically and is called only when d and
    deltaE are nonzero.
    """
    require_unit(d, E_A0, "matrix element")
    if angular is None or d.value == 0.0:
        return ZERO_A0_CUBED
    if delta_e_au == 0.0:
        raise ZeroDivisionError("zero energy denominator")
    value = angular() * d.value**2 / delta_e_au
    return Quantity(value, 2.0 * abs(value) * d.relative_unc(), A0_CUBED)


def scalar_contribution(d: Quantity, delta_e_au: float, j2_v: int) -> Quantity:
    """Scalar polarizability contribution 2/(3(2j_v+1)) * d^2/deltaE; j2_v = 2j_v."""
    return _term(d, delta_e_au, lambda: 2.0 / (3.0 * (j2_v + 1)))


def tensor_contribution(d: Quantity, delta_e_au: float, j2_v: int, j2_k: int) -> Quantity:
    """Tensor polarizability contribution for one intermediate state.

    -4 C(j_v) (-1)^(j_v+j_k+1) {j_v 1 j_k; 1 j_v 2} d^2/deltaE, with twice-j
    arguments j2_v = 2j_v and j2_k = 2j_k; identically zero for j_v < 1.
    """
    return _term(d, delta_e_au, None if j2_v < 2 else lambda: _tensor_angular(j2_v, j2_k))


def _tensor_angular(j2_v: int, j2_k: int) -> float:
    if (j2_v + j2_k) % 2 != 0:
        raise ValueError(f"j_v={j2_v}/2 and j_k={j2_k}/2 differ by a half-integer")
    phase = -1 if ((j2_v + j2_k) // 2 + 1) % 2 else 1
    return -4.0 * tensor_prefactor_C(j2_v) * phase * wigner6j(j2_v, 2, j2_k, 2, j2_v, 4)


def assemble_breakdown(
    ds: Dataset, state: LevelLabel, multipole: str
) -> PolarizabilityBreakdown:
    """Assemble the full polarizability breakdown for one state.

    Main contributions are the dataset elements coupled to `state`, ordered
    by (partner j, partner energy); the core term enters the scalar total
    only.  The total's uncertainty is the quadrature of all components.
    """
    if multipole not in (SCALAR, TENSOR):
        raise ValueError(f"bad multipole {multipole!r}")
    ds.level(state)  # raises UnknownLevelError
    j2_v = state.j2
    if multipole == TENSOR and j2_v < 2:
        raise ValueError(f"tensor polarizability vanishes for j={j2_v}/2")

    rows: list[Contribution] = []
    for el in ds.elements_coupling(state):
        partner = el.partner(state)
        delta_e = energy_difference_au(ds, state, partner).value
        alpha0 = scalar_contribution(el.d, delta_e, j2_v)
        alpha2 = tensor_contribution(el.d, delta_e, j2_v, partner.j2) if j2_v >= 2 else None
        rows.append(Contribution(state, partner, el.d, alpha0, alpha2))
    rows.sort(key=lambda c: (c.partner.j2, ds.energy_cm(c.partner), c.partner))

    tail = ds.tail(state, multipole)
    core = ds.core_alpha if multipole == SCALAR else ZERO_A0_CUBED

    total = ZERO_A0_CUBED
    for row in rows:
        total = total + row.value(multipole)
    total = total + tail + core

    return PolarizabilityBreakdown(state, multipole, tuple(rows), tail, core, total)
