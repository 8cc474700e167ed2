"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor terms are summed as plain floats, with tail
and core inputs, into a breakdown whose uncertainties combine in quadrature.
Energies are treated as exact, so each term's uncertainty is 2*|alpha|*(dd/d),
stated for a single term by :func:`polkit.dataset._sigma`, which the rows pass
inlines in the same operation order, with dd/d as d.unc / d.value: d is at least
MIN_D > 0, so the floats are those of ``Quantity.relative_unc``.  A state's rows are
built in one flat loop over its couplings in row order, (partner j, gap,
partner), which the dataset's structure stores with each gap, so no element is
scanned, no row sorted and no energy looked up; the same loop folds the scalar
and tensor sums, and both are memoized on the dataset, so the scalar and tensor
breakdowns of one state share them.  A row builds its term as a
:class:`Quantity` only when a report asks for it.  The input bounds of
:mod:`polkit.dataset`, which every Dataset meets, keep every term and sum finite.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from math import hypot

from .angular import tensor_prefactor_C, wigner6j
from .dataset import (
    A0_CUBED,
    MULTIPOLES,
    SCALAR,
    TENSOR,
    ZERO_A0_CUBED,
    Dataset,
    LevelLabel,
    Quantity,
    _sigma,
    _tuple_new,
)


def _field(multipole: str) -> int:
    """The Contribution field of `multipole`'s term; any other multipole is a ValueError."""
    if multipole not in MULTIPOLES:
        raise ValueError(f"bad multipole {multipole!r}")
    return 3 if multipole == SCALAR else 4  # alpha0, else alpha2


class Contribution(namedtuple("Contribution", "state partner d alpha0 alpha2")):
    """One intermediate state's terms in a0^3: LevelLabels state and partner, Quantity d,
    floats alpha0 and alpha2; alpha2 is None when j < 1 has no tensor part."""

    __slots__ = ()

    @property
    def transition(self) -> str:
        return f"{self.state}-{self.partner}"

    def quantity(self, multipole: str) -> Quantity:
        """The scalar or tensor term with its uncertainty 2 |alpha| dd/d."""
        index = _field(multipole)
        alpha = self[index]
        if alpha is None:
            raise ValueError(f"no tensor contribution for {self.transition}")
        return Quantity(alpha, _sigma(alpha, self.d.relative_unc()), A0_CUBED)


PolarizabilityBreakdown = namedtuple(
    "PolarizabilityBreakdown", "state multipole main tail core total"
)
PolarizabilityBreakdown.__doc__ = """Main contributions plus tail and core, with the quadrature
total: LevelLabel state, str multipole, Contribution tuple main, Quantities tail, core, total."""


@functools.cache  # labels stop at l = 4, so at most 5 x 5 spin pairs
def _tensor_angular(j2_v: int, j2_k: int) -> float:
    """-4 C(j_v) (-1)^(j_v+j_k+1) {j_v 1 j_k; 1 j_v 2} of twice-j ints, j_v >= 1."""
    phase = -1 if ((j2_v + j2_k) // 2 + 1) % 2 else 1
    return -4.0 * tensor_prefactor_C(j2_v) * phase * wigner6j(j2_v, 2, j2_k, 2, j2_v, 4)


def _main_rows(ds: Dataset, state: LevelLabel) -> tuple:
    """Build the rows of `state` in the dataset's row order, (partner j, gap, partner), fold
    each multipole's sum on the way, and return the entry memoized on `ds`: (rows, scalar
    (value, unc), tensor (value, unc))."""
    # Each term is an angular factor times d^2/deltaE: 2/(3(2j_v+1)) for the
    # scalar part; the tensor part vanishes identically for j_v < 1.
    j2_v = state.j2
    scalar = 2.0 / (3.0 * (j2_v + 1))
    elements, rows = ds.elements, []
    # Each multipole's (value, unc): terms summed by +=, their uncertainties chained by hypot.
    value0 = unc0 = value2 = unc2 = 0.0
    alpha2 = None
    for k, side, de in ds._couplings[state][1]:  # de: the structure's gap in hartree
        el = elements[k]
        partner, d = el[side], el.d
        # d.relative_unc() and _sigma, inlined bit for bit: d >= MIN_D > 0, so |d| is d
        rel, d2 = d.unc / d.value, d.value**2
        alpha0 = scalar * d2 / de
        value0 += alpha0
        unc0 = hypot(unc0, abs(alpha0) * rel * 2.0)
        if j2_v >= 2:
            alpha2 = _tensor_angular(j2_v, partner.j2) * d2 / de
            value2 += alpha2
            unc2 = hypot(unc2, abs(alpha2) * rel * 2.0)
        # _tuple_new: the generated __new__ of a plain namedtuple checks nothing
        rows.append(_tuple_new(Contribution, (state, partner, d, alpha0, alpha2)))
    # setdefault: concurrent first readers of one state all get the one stored entry
    return ds._rows.setdefault(state, (tuple(rows), (value0, unc0), (value2, unc2)))


def assemble_breakdown(ds: Dataset, state: LevelLabel, multipole: str) -> PolarizabilityBreakdown:
    """Assemble the full polarizability breakdown for one state.

    Main contributions are the dataset elements coupled to `state`, ordered
    by (partner j, partner energy), then partner label; the core term enters the
    scalar total only.  The total's uncertainty is the quadrature of all components.
    """
    index = _field(multipole)
    ds.level(state)  # raises UnknownLevelError
    if multipole == TENSOR and state.j2 < 2:
        raise ValueError(f"tensor polarizability vanishes for j={state.j2}/2")
    memo = ds._rows.get(state) or _main_rows(ds, state)

    tail = ds.tail(state, multipole)
    core = ds.core_alpha if multipole == SCALAR else ZERO_A0_CUBED

    # The requested multipole's row sum, then tail and core in that order.  memo is
    # (rows, scalar sum, tensor sum), and index is 3 or 4.
    value, unc = memo[index - 2]
    for term in (tail, core):
        value += term.value
        unc = hypot(unc, term.unc)
    total = Quantity(value, unc, A0_CUBED)

    return _tuple_new(PolarizabilityBreakdown, (state, multipole, memo[0], tail, core, total))
