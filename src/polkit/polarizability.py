"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor contributions are assembled into a
breakdown of main (explicitly summed) terms plus tail and core inputs,
with all uncertainties combined in quadrature.  Energies are treated as
exact, so each contribution's uncertainty is 2*alpha*(dd/d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .angular import tensor_prefactor_C, wigner6j
from .dataset import (
    A0_CUBED,
    E_A0,
    SCALAR,
    TENSOR,
    Dataset,
    LevelLabel,
    Quantity,
    energy_difference_au,
)


@dataclass(frozen=True)
class Contribution:
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


@dataclass(frozen=True)
class PolarizabilityBreakdown:
    """Main contributions plus tail and core, with the quadrature total."""

    state: LevelLabel
    multipole: str
    main: tuple[Contribution, ...]
    tail: Quantity
    core: Quantity
    total: Quantity


def _propagated(value: float, d: Quantity) -> Quantity:
    """alpha is proportional to d^2, so d(alpha) = 2 alpha dd/d."""
    return Quantity(value, 2.0 * abs(value) * d.relative_unc(), A0_CUBED)


def scalar_contribution(d: Quantity, delta_e_au: float, j2_v: int) -> Quantity:
    """Scalar polarizability contribution 2/(3(2j_v+1)) * d^2/deltaE; j2_v = 2j_v."""
    if d.unit != E_A0:
        raise ValueError(f"matrix element must be in {E_A0!r}, got {d.unit!r}")
    if d.value == 0.0:
        return Quantity(0.0, 0.0, A0_CUBED)
    if delta_e_au == 0.0:
        raise ZeroDivisionError("zero energy denominator")
    value = 2.0 / (3.0 * (j2_v + 1)) * d.value**2 / delta_e_au
    return _propagated(value, d)


def tensor_contribution(d: Quantity, delta_e_au: float, j2_v: int, j2_k: int) -> Quantity:
    """Tensor polarizability contribution for one intermediate state.

    -4 C(j_v) (-1)^(j_v+j_k+1) {j_v 1 j_k; 1 j_v 2} d^2/deltaE, with twice-j
    arguments j2_v = 2j_v and j2_k = 2j_k; identically zero for j_v < 1.
    """
    if d.unit != E_A0:
        raise ValueError(f"matrix element must be in {E_A0!r}, got {d.unit!r}")
    if j2_v < 2:
        return Quantity(0.0, 0.0, A0_CUBED)
    if d.value == 0.0:
        return Quantity(0.0, 0.0, A0_CUBED)
    if delta_e_au == 0.0:
        raise ZeroDivisionError("zero energy denominator")
    if (j2_v + j2_k) % 2 != 0:
        raise ValueError(f"j_v={j2_v}/2 and j_k={j2_k}/2 differ by a half-integer")
    phase = -1 if ((j2_v + j2_k) // 2 + 1) % 2 else 1
    sixj = wigner6j(j2_v, 2, j2_k, 2, j2_v, 4)
    value = (
        -4.0
        * tensor_prefactor_C(j2_v)
        * phase
        * sixj
        * d.value**2
        / delta_e_au
    )
    return _propagated(value, d)


def scale_tail(df_tail: Quantity, overestimate_factor: float) -> Quantity:
    """Rescale a mean-field tail estimate known to overestimate the sum.

    The scaled value is df_tail/factor; the difference between the raw and
    scaled values is taken as its uncertainty, combined in quadrature with
    the raw estimate's own (scaled) uncertainty.
    """
    if overestimate_factor <= 0:
        raise ValueError(f"overestimate factor must be positive: {overestimate_factor}")
    value = df_tail.value / overestimate_factor
    unc = math.hypot(df_tail.value - value, df_tail.unc / overestimate_factor)
    return Quantity(value, unc, df_tail.unit)


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
    core = ds.core_alpha if multipole == SCALAR else Quantity(0.0, 0.0, A0_CUBED)

    total = Quantity(0.0, 0.0, A0_CUBED)
    for row in rows:
        total = total + row.value(multipole)
    total = total + tail + core

    return PolarizabilityBreakdown(state, multipole, tuple(rows), tail, core, total)
