"""Sum-over-states static polarizabilities with uncertainty propagation.

Per-transition scalar and tensor terms are summed as plain floats, with tail
and core inputs, into a breakdown whose uncertainties combine in quadrature.
Energies are treated as exact, so each term's uncertainty is 2*|alpha|*(dd/d).
A state's rows are built in one pass over :meth:`Dataset.couplings`, sorted by
(partner j, gap, partner) and memoized on the dataset, so the scalar and tensor
breakdowns of one state share them.  A total is one flat loop
over the rows (:func:`_fold`) that computes each row's term of the requested
multipole and its uncertainty inline, the one place of that rule, so a scalar
sum never looks at a tensor term's uncertainty; a row builds its term as a
:class:`Quantity` only when a report asks for it, from a one-row fold.  The
input bounds of :mod:`polkit.dataset`, which every Dataset meets, keep every term
and sum finite.
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
        return Quantity(alpha, _fold((self,), index)[1], A0_CUBED)  # hypot(0, s) is |s|


def _fold(rows: tuple[Contribution, ...], index: int) -> tuple[float, float]:
    """(value, unc): the rows' terms at field `index` summed by +=, and their
    uncertainties 2 |alpha| dd/d, the one place of that rule, chained by hypot."""
    value = unc = 0.0
    for row in rows:
        alpha = row[index]
        value += alpha
        unc = hypot(unc, abs(alpha) * row.d.relative_unc() * 2.0)
    return value, unc


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


def _main_rows(ds: Dataset, state: LevelLabel) -> tuple[Contribution, ...]:
    """Build the rows of `state`, ordered by (partner j, gap, partner), and memoize
    them on `ds`."""
    # Each term is an angular factor times d^2/deltaE: 2/(3(2j_v+1)) for the
    # scalar part; the tensor part vanishes identically for j_v < 1.
    j2_v = state.j2
    scalar = 2.0 / (3.0 * (j2_v + 1))
    keyed: list[tuple[int, float, LevelLabel, Contribution]] = []
    for partner, el, de in ds.couplings(state):
        d = el.d
        d2 = d.value**2
        alpha0 = scalar * d2 / de
        alpha2 = _tensor_angular(j2_v, partner.j2) * d2 / de if j2_v >= 2 else None
        # _tuple_new: the generated __new__ of a plain namedtuple checks nothing
        row = _tuple_new(Contribution, (state, partner, d, alpha0, alpha2))
        # A pair has one element, so the partner ends every key: no two keys tie and
        # rows are never compared.
        keyed.append((partner.j2, de, partner, row))
    keyed.sort()  # gap order is partner-energy order: no energies ulps apart
    # setdefault: concurrent first readers of one state all get the one stored tuple
    return ds._rows.setdefault(state, tuple([key[3] for key in keyed]))


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
    main = ds._rows.get(state)
    if main is None:
        main = _main_rows(ds, state)

    tail = ds.tail(state, multipole)
    core = ds.core_alpha if multipole == SCALAR else ZERO_A0_CUBED

    # The rows' fold, then tail and core in that order.  Only the requested multipole's
    # uncertainties are looked at.
    value, unc = _fold(main, index)
    for term in (tail, core):
        value += term.value
        unc = hypot(unc, term.unc)
    total = Quantity(value, unc, A0_CUBED)

    return _tuple_new(PolarizabilityBreakdown, (state, multipole, main, tail, core, total))
