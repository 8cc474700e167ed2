"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor terms are summed as plain floats, with tail
and core inputs, into a breakdown whose uncertainties combine in quadrature.
Energies are treated as exact, so each term's uncertainty is 2*|alpha|*(dd/d);
a row builds its term as a :class:`Quantity` only when a report asks for it.
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
    require_unit,
)


def _sigma(alpha: float, rel_unc: float) -> float:
    """2 |alpha| dd/d of a term alpha in a0^3; a non-finite alpha or sigma raises as in Quantity."""
    sigma = abs(alpha) * rel_unc * 2.0  # doubled last: 2 |alpha| overflows above max/2
    if not math.isfinite(sigma):  # an infinite alpha makes sigma inf or nan too
        Quantity(alpha, sigma, A0_CUBED)  # raises, naming the value or the uncertainty
    return sigma


class Contribution(NamedTuple):
    """One intermediate state's terms in a0^3; alpha2 is None when j < 1 has no tensor part."""

    state: LevelLabel
    partner: LevelLabel
    d: Quantity
    alpha0: float
    alpha2: Optional[float]

    @property
    def transition(self) -> str:
        return f"{self.state}-{self.partner}"

    def quantity(self, multipole: str) -> Quantity:
        """The scalar or tensor term with its uncertainty 2 |alpha| dd/d."""
        if multipole == SCALAR:
            alpha = self.alpha0
        elif multipole == TENSOR:
            alpha = self.alpha2
        else:
            raise ValueError(f"bad multipole {multipole!r}")
        if alpha is None:
            raise ValueError(f"no tensor contribution for {self.transition}")
        return Quantity(alpha, _sigma(alpha, self.d.relative_unc()), A0_CUBED)


class PolarizabilityBreakdown(NamedTuple):
    """Main contributions plus tail and core, with the quadrature total."""

    state: LevelLabel
    multipole: str
    main: tuple[Contribution, ...]
    tail: Quantity
    core: Quantity
    total: Quantity


@functools.cache  # labels stop at l = 4, so at most 5 x 5 spin pairs
def _tensor_angular(j2_v: int, j2_k: int) -> float:
    """-4 C(j_v) (-1)^(j_v+j_k+1) {j_v 1 j_k; 1 j_v 2} of twice-j ints, j_v >= 1."""
    phase = -1 if ((j2_v + j2_k) // 2 + 1) % 2 else 1
    return -4.0 * tensor_prefactor_C(j2_v) * phase * wigner6j(j2_v, 2, j2_k, 2, j2_v, 4)


def assemble_breakdown(ds: Dataset, state: LevelLabel, multipole: str) -> PolarizabilityBreakdown:
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
    rows: list[tuple[tuple[int, float, LevelLabel], Contribution, tuple[float, float]]] = []
    for partner, el, de in ds.couplings(state):
        if de == 0.0:
            raise ZeroDivisionError("zero energy denominator")
        try:
            d2 = el.d.value**2
        except OverflowError:
            raise ValueError(
                f"e1 {el.lower}-{el.upper} value {el.d.value!r} e*a0 is out of range: d^2 overflows"
            ) from None
        rel = el.d.relative_unc()
        alpha0 = scalar * d2 / de
        alpha2 = _tensor_angular(j2_v, partner.j2) * d2 / de if j2_v >= 2 else None
        sigma0, sigma2 = _sigma(alpha0, rel), (_sigma(alpha2, rel) if j2_v >= 2 else None)
        term = (alpha0, sigma0) if multipole == SCALAR else (alpha2, sigma2)
        contrib = Contribution(state, partner, el.d, alpha0, alpha2)
        rows.append(((partner.j2, de, partner), contrib, term))
    rows.sort(key=lambda row: row[0])  # gap order is partner-energy order: no energies ulps apart
    main = tuple(row[1] for row in rows)

    tail = ds.tail(state, multipole)
    core = ds.core_alpha if multipole == SCALAR else ZERO_A0_CUBED

    # value += and a hypot chain over the rows, then tail and core, in that
    # order, stopping at the first non-finite sum, which Quantity then refuses.
    value = unc = 0.0
    for term in (*(row[2] for row in rows), tail, core):
        if isinstance(term, Quantity):  # tail and core are unit-checked when reached
            require_unit(term, A0_CUBED, "addend")
            term = term.value, term.unc
        value += term[0]
        unc = math.hypot(unc, term[1])
        if not (math.isfinite(value) and math.isfinite(unc)):
            break
    total = Quantity(value, unc, A0_CUBED)

    return PolarizabilityBreakdown(state, multipole, main, tail, core, total)
