"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor contributions are assembled into a
breakdown of main (explicitly summed) terms plus tail and core inputs,
with all uncertainties combined in quadrature.  Energies are treated as
exact, so each contribution's uncertainty is 2*alpha*(dd/d).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

from .angular import tensor_prefactor_C, wigner6j
from .dataset import (
    A0_CUBED,
    SCALAR,
    TENSOR,
    ZERO_A0_CUBED,
    Dataset,
    LevelLabel,
    Quantity,
    _gap_au,
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


def _term(value: float, d: Quantity) -> Quantity:
    """A term proportional to d^2, in a0^3: its uncertainty is 2 |alpha| dd/d."""
    return Quantity(value, 2.0 * abs(value) * d.relative_unc(), A0_CUBED)


@functools.cache  # labels stop at l = 4, so at most 5 x 5 spin pairs
def _tensor_angular(j2_v: int, j2_k: int) -> float:
    """-4 C(j_v) (-1)^(j_v+j_k+1) {j_v 1 j_k; 1 j_v 2} of twice-j ints, j_v >= 1."""
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

    # Each term is an angular factor times d^2/deltaE: 2/(3(2j_v+1)) for the
    # scalar part; the tensor part vanishes identically for j_v < 1.
    scalar = 2.0 / (3.0 * (j2_v + 1))
    rows: list[Contribution] = []
    for el in ds.elements:
        if el.lower == state:
            partner = el.upper
        elif el.upper == state:
            partner = el.lower
        else:
            continue
        de = _gap_au(ds, state, partner)
        if de == 0.0:
            raise ZeroDivisionError("zero energy denominator")
        d2 = el.d.value**2
        alpha0 = _term(scalar * d2 / de, el.d)
        alpha2 = _term(_tensor_angular(j2_v, partner.j2) * d2 / de, el.d) if j2_v >= 2 else None
        rows.append(Contribution(state, partner, el.d, alpha0, alpha2))
    rows.sort(key=lambda c: (c.partner.j2, ds.energy_cm(c.partner), c.partner))

    tail = ds.tail(state, multipole)
    core = ds.core_alpha if multipole == SCALAR else ZERO_A0_CUBED

    # The sum of ZERO_A0_CUBED + row + ... + tail + core done in floats: the same
    # additions and hypot chain in the same order, each addend unit-checked,
    # stopping where a Quantity addition would have refused a non-finite sum.
    value = unc = 0.0
    for q in (*(row.value(multipole) for row in rows), tail, core):
        require_unit(q, A0_CUBED, "addend")
        value += q.value
        unc = math.hypot(unc, q.unc)
        if not (math.isfinite(value) and math.isfinite(unc)):
            break
    total = Quantity(value, unc, A0_CUBED)

    return PolarizabilityBreakdown(state, multipole, tuple(rows), tail, core, total)
