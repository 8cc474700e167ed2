"""Atomic data model: levels, reduced E1 matrix elements, dataset files and parsing.

A dataset file, read by :func:`read_dataset_text`, is line-oriented UTF-8 text::

    # comment
    level <label> <energy_cm>
    e1 <lower-label> <upper-label> <value_ea0> <unc_ea0>
    core <value_a0^3> <unc_a0^3>
    tail <label> <scalar|tensor> <value_a0^3> <unc_a0^3>

Level labels use the spectroscopic form ``<n><letter><2j>/2``, e.g. ``4p3/2``; a valid
(n, l, j2) has one shared :class:`LevelLabel`, found by identity in every label lookup.
A parsed :class:`Dataset` is immutable and safe for unrestricted concurrent reads;
:func:`parse_dataset` keeps the outcome of each of the last 16 texts, accepted or
refused: one shared Dataset, or the message that each later call raises anew; and
:func:`builtin_dataset` is the packaged Ca+ dataset, parsed once per process.
Each dataset rule is stated once, by the check that words its refusal; a record that also
bounds its input tests the unit tag inside its one valid-path condition and calls
:func:`require_unit`, the one wording of a UnitMismatchError, only to word it, first.
:func:`_structure` states the rules on a dataset's structure, what depends only on its
levels and e1 label pairs, and checks and orders each of the last 16 structures once:
datasets that differ only in values, as Monte-Carlo draws do, check only their core and
tails, whose rules, units included, :func:`_term_faults` states.  A structure holds, by
label, each level's couplings as element indices, sides and gaps in hartree, in element
order for :meth:`Dataset.couplings` and the decay channels and in row order for the
polarizability rows, then the level's position in the levels.  It is the dataset's one
label index, a :class:`_LevelIndex`, whose lookup is the one refusal of an unknown label.
"""

from __future__ import annotations

import codecs
import errno
import functools
import os
import stat
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Mapping
from math import isfinite
from operator import itemgetter
from types import MappingProxyType

from .constants import HARTREE_IN_CM

L_LETTERS = "spdfg"

SCALAR = "scalar"
TENSOR = "tensor"
MULTIPOLES = (SCALAR, TENSOR)

# Unit tags carried by Quantity.
A0_CUBED = "a0^3"               # polarizability, atomic units
E_A0 = "e*a0"                   # reduced E1 matrix element
HERTZ = "Hz"
MEGAHERTZ = "MHz"
NANOSECOND = "ns"
SI_POLARIZABILITY = "Hz/(V/m)^2"
DIMENSIONLESS = "1"

# The input box: the physical bounds of every number that enters polkit, ends included,
# and of the dataset file that holds them.  Each is checked where it enters: the file's
# size by read_dataset_text, dataset numbers by Level, ReducedE1 and Dataset, CLI floats
# by the commands, library floats by the records, einstein_A, extraction and
# clock_bbr_shift.  Inside it no term, sum, shift, rate or extraction over- or underflows
# (README, "Input bounds").
MAX_DATASET_BYTES = 1 << 20               # bytes: a dataset file, 500 times the packaged one
MAX_ENERGY_CM, MIN_GAP_CM = 1e7, 1e-3     # energies in [0, 1e7] cm^-1; e1 pairs 1e-3 apart
MIN_GAP_AU, MAX_GAP_AU = MIN_GAP_CM / HARTREE_IN_CM, MAX_ENERGY_CM / HARTREE_IN_CM
MIN_D, MAX_D = 1e-6, 1e4                  # e*a0, and sigma_d <= 1e4: d ~ n^2 up to n ~ 100
MAX_ALPHA = 1e6                           # a0^3: |core|, |tail| and their sigmas
MAX_POLARIZABILITY = 1e100                # a0^3: a clock shift's |alpha|, sigma; squares finite
MAX_TEMPERATURE_K, MAX_ETA = 1e5, 1.0     # T in [0, 1e5] K and |eta| <= 1
MIN_TAU_NS, MAX_TAU_NS = 1e-6, 1e15       # ns, and sigma_tau <= 1e15 ns
MIN_RATE_MHZ, MAX_RATE_MHZ = 1e-35, 1e18  # MHz, and sigma_A <= 1e18: E1 rates in the box


class DatasetError(ValueError):
    """Unparseable or physically inconsistent dataset input."""


class UnitMismatchError(ValueError):
    """A Quantity does not carry the unit tag its use requires."""


class UnknownLevelError(KeyError):
    """A level label is not declared in the dataset."""


def out_of_bounds(*inputs: tuple[str, float, float, float]) -> str | None:
    """The refusal that names the first (name, value, low, high) of `inputs` whose value
    lies outside [low, high], and its bounds; None when every value lies inside."""
    for what, value, low, high in inputs:
        if not low <= value <= high:
            return f"{what} must lie in [{low:g}, {high:g}], got {value!r}"
    return None


def _setters(cls: type) -> tuple:
    """The ``__set__`` of each of `cls`'s own slots, in ``__slots__`` order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


# The tuple records' constructors end in this, bound once: one attribute lookup fewer per record.
_tuple_new = tuple.__new__


@classmethod
def _make(cls, iterable: Iterable[object]) -> tuple:
    """The tuple records' ``_make``: through the validating ``__new__``, so that
    ``_replace`` (and ``copy.replace``, which calls it) validates too."""
    return cls(*iterable)


class Record:
    """Base of the immutable slotted records that must not be tuples: a subclass names
    its fields in ``_fields`` and sets each slot once in ``__init__`` through the slot
    setters that :func:`_setters` returns, bound once per class at module level: calling
    a slot's own ``__set__`` skips the record's refusing ``__setattr__``.  ==, hash and
    repr follow ``_fields``, and copy and pickle rebuild through the constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Quantity(Record):
    """A number with an unsigned one-sigma uncertainty and a unit tag; both are finite."""

    __slots__ = _fields = ("value", "unc", "unit")

    def __init__(self, value: float, unc: float = 0.0, unit: str = DIMENSIONLESS) -> None:
        if not (isfinite(value) and isfinite(unc) and unc >= 0):  # one branch when valid
            if not isfinite(value):
                raise ValueError(f"non-finite value: {value!r} {unit}")
            if not isfinite(unc):
                raise ValueError(f"non-finite uncertainty: {unc!r} {unit}")
            raise ValueError(f"negative uncertainty: {unc!r}")
        _set_value(self, value)
        _set_unc(self, unc + 0.0)  # -0.0 is stored as 0.0, so that no report prints its sign
        _set_unit(self, unit)

    def relative_unc(self) -> float:
        """unc / |value|; zero for a zero value."""
        if self.value == 0.0:
            return 0.0
        return self.unc / abs(self.value)


_set_value, _set_unc, _set_unit = _setters(Quantity)


def require_unit(q: Quantity, unit: str, what: str) -> None:
    """The one wording of a UnitMismatchError: raise it unless `q` is in `unit`.
    A constructor or function that also bounds its input tests the tag in its one valid-path
    condition and calls this first in its refusal branch, so a wrong unit is named first."""
    if q.unit != unit:
        raise UnitMismatchError(f"{what} must be in {unit!r}, got {q.unit!r}")


def _sigma(x: float, rel: float) -> float:
    """The uncertainty 2 |x| dd/d of a term `x` proportional to d^2, a polarizability term or
    a rate, given d's relative uncertainty `rel`, dd/d: the one statement of that rule for a
    single term.  A state's rows pass inlines it in the same operation order."""
    return abs(x) * rel * 2.0


ZERO_A0_CUBED = Quantity(0.0, 0.0, A0_CUBED)


def _label_problem(n: int, l: int, j2: int) -> str | None:
    """The message of the first label rule that (n, l, j2) breaks; None if it breaks none."""
    for name, value in (("n", n), ("l", l), ("j2", j2)):
        if type(value) is not int:
            return f"{name} must be an int: {value!r}"
    if n < 1:
        return f"principal quantum number must be positive: {n}"
    if not 0 <= l < len(L_LETTERS):
        return f"orbital angular momentum out of range 0..4: {l}"
    if j2 < 1 or j2 % 2 == 0:
        return f"twice-j must be a positive odd integer: {j2}"
    if j2 not in ((1,) if l == 0 else (2 * l - 1, 2 * l + 1)):
        return f"j={j2}/2 incompatible with l={L_LETTERS[l]!r}"
    return None


# Every (l, j2) that the rules allow; with n >= 1 an int label needs no other check,
# and any other breaks a rule, which _label_problem names.
_VALID_L_J2 = frozenset(
    (l, j2)
    for l in range(len(L_LETTERS))
    for j2 in range(1, 2 * len(L_LETTERS))
    if _label_problem(1, l, j2) is None
)


_MAX_SHARED_LABELS = 1024
_SHARED_LABELS: dict[tuple[int, int, int], LevelLabel] = {}


class LevelLabel(namedtuple("LevelLabel", "n l j2")):
    """Spectroscopic state label of ints n, orbital l and twice the total j; sorts by (n, l, j2).

    One label is shared per valid triple, stored while fewer than _MAX_SHARED_LABELS are: every
    construction of it, ``_make``, ``_replace``, copy, pickle and :meth:`parse` included,
    returns that object, so label lookups and comparisons take identity shortcuts.  Past the
    bound a new triple's label is built at each call; a refused triple and a subclass
    instance are never stored.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int, j2: int) -> "LevelLabel":
        # Types before the lookup: 4.0 and True equal the ints 4 and 1, and would find their key.
        if type(n) is type(l) is type(j2) is int and cls is LevelLabel:
            label = _SHARED_LABELS.get((n, l, j2))
            if label is not None:
                return label
        if not (type(n) is type(l) is type(j2) is int and n >= 1 and (l, j2) in _VALID_L_J2):
            raise ValueError(_label_problem(n, l, j2))
        label = _tuple_new(cls, (n, l, j2))
        if cls is LevelLabel and len(_SHARED_LABELS) < _MAX_SHARED_LABELS:
            # setdefault: concurrent first constructions of one triple all return the stored label
            label = _SHARED_LABELS.setdefault((n, l, j2), label)
        return label

    _make = _make

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def parse(text: str) -> "LevelLabel":
        """The label of `text`, shared by every call with that text while it stays
        cached; a refused text is not cached, so it raises at each call."""
        # <n><letter><j2>/2 with n and j2 ASCII digits: a plain isdigit() takes '٤' and '²'.
        body, _, two = text.partition("/")
        rest = body.lstrip("0123456789")
        n, letter, j2 = body[: len(body) - len(rest)], rest[:1], rest[1:]
        shaped = two == "2" and n and letter in L_LETTERS
        if not (shaped and j2.isascii() and j2.isdigit()):
            raise DatasetError(f"bad level label {text!r} (expected e.g. '4p3/2')")
        try:
            return LevelLabel(int(n), L_LETTERS.index(letter), int(j2))
        except ValueError as exc:
            raise DatasetError(f"bad level label {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.n}{L_LETTERS[self.l]}{self.j2}/2"


def _not_a_label(*labels: tuple[str, object]) -> str | None:
    """The refusal that names the first (role, label) of `labels` whose label is not a
    LevelLabel; None when each is one."""
    for role, label in labels:
        if type(label) is not LevelLabel:
            return f"{role} label must be a LevelLabel, got {label!r}"
    return None


class Level(namedtuple("Level", "label energy_cm")):
    """An atomic level: label plus its energy above the ground state."""

    __slots__ = ()
    _make = _make

    def __new__(cls, label: LevelLabel, energy_cm: float) -> "Level":
        if not (type(label) is LevelLabel and 0.0 <= energy_cm <= MAX_ENERGY_CM):
            raise ValueError(_not_a_label(("level", label)) or out_of_bounds(
                ("level energy [cm^-1]", energy_cm, 0.0, MAX_ENERGY_CM)))
        return _tuple_new(cls, (label, energy_cm))


class ReducedE1(namedtuple("ReducedE1", "lower upper d")):
    """A reduced electric-dipole matrix element between two levels.

    Stored as a positive magnitude in e*a0; every formula in this package
    uses the square, so the sign convention never enters.  The pair is
    stored with the energetically lower level first.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, lower: LevelLabel, upper: LevelLabel, d: Quantity) -> "ReducedE1":
        if not (d.unit == E_A0 and type(lower) is type(upper) is LevelLabel  # one valid branch
                and MIN_D <= d.value <= MAX_D and d.unc <= MAX_D):
            require_unit(d, E_A0, "matrix element")
            raise ValueError(_not_a_label(("lower", lower), ("upper", upper))
                             or out_of_bounds(("d [e*a0]", d.value, MIN_D, MAX_D),
                                              ("d uncertainty [e*a0]", d.unc, 0.0, MAX_D)))
        return _tuple_new(cls, (lower, upper, d))


class _LevelIndex(dict):
    """A mapping by level label; looking up an undeclared label raises UnknownLevelError."""

    __slots__ = ()

    def __missing__(self, label: LevelLabel) -> tuple:
        raise UnknownLevelError(str(label))


def e1_selection_ok(a: LevelLabel, b: LevelLabel) -> bool:
    """Electric-dipole selection rules: |dl| = 1 and |dj| <= 1."""
    return abs(a.l - b.l) == 1 and abs(a.j2 - b.j2) <= 2


def gap_fault(gap: float) -> str | None:
    """The refusal of `gap`, the energy [cm^-1] from an E1 pair's lower level to its upper
    one, when it is below MIN_GAP_CM; None when it is not."""
    if gap >= MIN_GAP_CM:
        return None
    return out_of_bounds(("gap [cm^-1]", gap, MIN_GAP_CM, MAX_ENERGY_CM))


class Dataset(Record):
    """Validated collection of levels, matrix elements, core and tail terms.

    The sole physics input of the package.  Construction refuses a dataset that breaks
    a rule with a :class:`DatasetError` of its faults joined by ``"; "``: those of its
    levels and e1 pairs, which :func:`_structure` states and checks once per structure,
    then those of its core and tails, which :func:`_term_faults` states and checks at
    each construction.  So every Dataset that exists is valid.
    """

    _fields = ("levels", "elements", "core_alpha", "tails")
    __slots__ = (*_fields, "_couplings", "_rows")

    def __init__(
        self,
        levels: Iterable[Level],
        elements: Iterable[ReducedE1],
        core_alpha: Quantity,
        tails: Mapping[tuple[LevelLabel, str], Quantity],
    ) -> None:
        levels, elements, tails = tuple(levels), tuple(elements), MappingProxyType(dict(tails))
        _set_levels(self, levels)
        _set_elements(self, elements)
        _set_core_alpha(self, core_alpha)
        _set_tails(self, tails)
        # Each state's polarizability rows and their sums, filled on first assembly;
        # outside _fields, so ==, repr, copy and pickle ignore it.
        _set_rows(self, {})
        faults = ()
        try:
            _set_couplings(self, structure := _structure(levels, tuple(map(_label_pair, elements))))
        except DatasetError as exc:  # refused: a label set stands in for the structure
            faults, structure = exc.args[0], {level.label for level in levels}
        faults += _term_faults(core_alpha, tails, structure)
        if faults:
            raise DatasetError("; ".join(faults))

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild from the fields: the tails mappingproxy does not pickle
        return type(self), (self.levels, self.elements, self.core_alpha, dict(self.tails))

    def level(self, label: LevelLabel) -> Level:
        return self.levels[self._couplings[label][2]]

    def energy_cm(self, label: LevelLabel) -> float:
        return self.levels[self._couplings[label][2]].energy_cm

    def tail(self, label: LevelLabel, multipole: str) -> Quantity:
        """Tail term for (state, multipole); 0(0) when none is declared."""
        return self.tails.get((label, multipole), ZERO_A0_CUBED)

    def couplings(self, label: LevelLabel) -> Iterator[tuple[LevelLabel, ReducedE1, float]]:
        """(partner, element, E(partner) - E(label) in hartree) per element on `label`, in
        element order: the gap is the structure's, bit-identical to
        :func:`energy_difference_au`'s, so no energy is looked up."""
        elements = self.elements
        for k, side, gap in self._couplings[label][0]:
            el = elements[k]
            yield el[side], el, gap

    def to_text(self) -> str:
        """Canonical text form; parses back to an identical dataset."""
        lines = []
        for level in self.levels:
            lines.append(f"level {level.label} {level.energy_cm!r}")
        for el in self.elements:
            lines.append(f"e1 {el.lower} {el.upper} {el.d.value!r} {el.d.unc!r}")
        lines.append(f"core {self.core_alpha.value!r} {self.core_alpha.unc!r}")
        for (label, multipole), q in self.tails.items():
            lines.append(f"tail {label} {multipole} {q.value!r} {q.unc!r}")
        return "\n".join(lines) + "\n"


(_set_levels, _set_elements, _set_core_alpha, _set_tails, _set_couplings,
 _set_rows) = _setters(Dataset)


_label_pair = itemgetter(0, 1)  # an element's (lower, upper)


@functools.lru_cache(maxsize=16)
def _structure(levels: tuple[Level, ...], pairs: tuple[tuple[LevelLabel, LevelLabel], ...]
               ) -> Mapping[LevelLabel, tuple]:
    """The entry of each of `levels` by label, a read-only :class:`_LevelIndex`, under the
    e1 (lower, upper) label `pairs`, when they meet the structure rules; else a DatasetError
    of the list of their faults, in order.

    The rules, each stated here only: unique labels, a level at energy 0 if any, and each
    pair between declared levels, E1-allowed, at least MIN_GAP_CM upward (:func:`gap_fault`)
    and new.  A level's entry is its couplings, one (element index, side of the partner's
    label in it, E(partner) - E(level) in hartree) per element on it, in element order and
    in row order, (partner j, gap, partner), then its position in `levels`.

    Kept for the last 16 accepted structures, so that datasets that differ only in values
    share one check.  Equal keys may hold unequal objects (an int energy 5 and 5.0, -0.0
    and 0.0), so the entry holds no level, energy or message: a dataset reads its level at
    the position, in its own fields.  The entry is the same for every equal key: labels and
    positions are ints, and each gap is bit-identical, as an e1 gap is at least MIN_GAP_CM,
    never a signed zero, and int energies up to MAX_ENERGY_CM are exact floats.  A pair's
    gap g is computed once, g for its lower level and -g for its upper one: subtraction is
    sign-symmetric, so -g is the upper level's own difference, bit for bit.  A refusal is
    not kept, so its faults name the refused dataset's own labels and energies.
    """
    index = {level.label: i for i, level in enumerate(levels)}
    energies = [level.energy_cm for level in levels]
    faults: list[str] = []
    if len(index) != len(levels):
        labels: set[LevelLabel] = set()
        for level in levels:
            if level.label in labels:
                faults.append(f"duplicate level {level.label}")
            labels.add(level.label)
    if energies and min(energies) != 0.0:
        faults.append("no ground level with energy 0")
    walks: dict[LevelLabel, list[tuple[int, int, float]]] = {label: [] for label in index}
    seen: set[tuple[LevelLabel, LevelLabel]] = set()
    for k, pair in enumerate(pairs):
        lower, upper = pair
        low, up = index.get(lower), index.get(upper)
        if low is None or up is None:
            faults += [f"e1 {lower}-{upper}: unknown level {label}"
                       for label in pair if label not in index]
            continue
        gap = energies[up] - energies[low]
        # A pair's key: its labels in energy order, labels breaking a tie.
        key = (upper, lower) if gap < 0.0 or gap == 0.0 and upper < lower else pair
        if not e1_selection_ok(lower, upper):
            faults.append(f"e1 {lower}-{upper}: violates E1 selection rules")
        if fault := gap_fault(gap):
            faults.append(f"e1 {lower}-{upper}: {fault}")
        if key in seen:
            faults.append(f"e1 {lower}-{upper}: duplicate matrix element for this pair")
        seen.add(key)
        gap /= HARTREE_IN_CM
        walks[lower].append((k, 1, gap))
        walks[upper].append((k, 0, -gap))
    if faults:
        raise DatasetError(faults)
    structure = _LevelIndex()
    for label, walk in walks.items():
        # The key's gap is the rows' own float; a pair has one element, so the partner
        # ends every key and no two keys tie.
        keyed = sorted([(pairs[k][side].j2, gap, pairs[k][side], (k, side, gap))
                        for k, side, gap in walk])
        structure[label] = (tuple(walk), tuple([key[3] for key in keyed]), index[label])
    return MappingProxyType(structure)


def _term_faults(core: Quantity, tails: Mapping[tuple[LevelLabel, str], Quantity],
                 declared: Collection[LevelLabel]) -> tuple[str, ...]:
    """The faults of core and tails, in order: a positive core in a0^3, each tail on a
    `declared` level label and multipole and in a0^3, then each term, core first, in the
    input box.  The rules are stated here only; the result is a tuple, so a construction
    whose terms meet them allocates none."""
    faults = ()
    if not core.value > 0.0:
        faults += ("core polarizability must be positive",)
    if core.unit != A0_CUBED:
        faults += (f"core polarizability must be in {A0_CUBED!r}",)
    outside = _box_fault(None, core)
    for key, q in tails.items():
        label, multipole = key
        if label not in declared:
            faults += (f"tail {label} {multipole}: unknown level {label}",)
        if multipole not in MULTIPOLES:
            faults += (f"tail {label}: bad multipole {multipole!r}",)
        if q.unit != A0_CUBED:
            faults += (f"tail {label} {multipole}: must be in {A0_CUBED!r}",)
        outside += _box_fault(key, q)
    return faults + outside


def _box_fault(key: tuple[LevelLabel, str] | None, q: Quantity) -> tuple[str, ...]:
    """(The fault of term `q`, the core (key None) or a tail, outside the input box,), or ()."""
    if -MAX_ALPHA <= q.value <= MAX_ALPHA and q.unc <= MAX_ALPHA:
        return ()
    what = "core" if key is None else f"tail {key[0]} {key[1]}"
    return (out_of_bounds((f"{what} [a0^3]", q.value, -MAX_ALPHA, MAX_ALPHA),
                          (f"{what} uncertainty [a0^3]", q.unc, 0.0, MAX_ALPHA)),)


def number_literal(token: str) -> float | None:
    """The value of a number literal, nan and inf included; None for any other token."""
    # A number is an ASCII decimal literal with an optional sign and exponent.  float()
    # reads exactly these, and nan and inf, once it is kept from non-ASCII digits, '_'
    # separators and surrounding whitespace.
    if not token.isascii() or "_" in token or token != token.strip():
        return None
    try:
        return float(token)
    except ValueError:
        return None


def parse_number(token: str, what: str) -> float:
    """The finite value of a number literal; anything else is a DatasetError."""
    value = number_literal(token)
    if value is None or not isfinite(value):
        raise DatasetError(f"{'bad' if value is None else 'non-finite'} {what} {token!r}")
    return value


# Usage line of each directive; its arity is the number of fields after the name.
_DIRECTIVES = {
    "level": "level <label> <energy_cm>",
    "e1": "e1 <lower> <upper> <value> <unc>",
    "core": "core <value> <unc>",
    "tail": "tail <label> <scalar|tensor> <value> <unc>",
}
_ARITY = {kind: usage.count(" ") for kind, usage in _DIRECTIVES.items()}


def _quantity(value: str, unc: str, what: str, unit: str) -> Quantity:
    return Quantity(parse_number(value, what), parse_number(unc, "uncertainty"), unit)


def _parse(text: str) -> Dataset:
    """The uncached parse behind :func:`parse_dataset`."""
    levels: list[Level] = []
    elements: list[ReducedE1] = []
    core: Quantity | None = None
    tails: dict[tuple[LevelLabel, str], Quantity] = {}
    parse_label = LevelLabel.parse  # cached per text; a bad label raises on each line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind, *args = fields
        try:
            arity = _ARITY.get(kind)
            if arity is None:
                raise DatasetError(f"unknown directive {kind!r}")
            if len(args) != arity:
                raise DatasetError(f"expected: {_DIRECTIVES[kind]}")
            if kind == "level":
                levels.append(Level(parse_label(args[0]), parse_number(args[1], "energy")))
            elif kind == "e1":
                d = _quantity(args[2], args[3], "matrix element", E_A0)
                elements.append(ReducedE1(parse_label(args[0]), parse_label(args[1]), d))
            elif kind == "core":
                if core is not None:
                    raise DatasetError("duplicate core entry")
                core = _quantity(args[0], args[1], "core polarizability", A0_CUBED)
            else:
                label = parse_label(args[0])
                multipole = args[1]
                if multipole not in MULTIPOLES:
                    raise DatasetError(f"bad multipole {multipole!r}")
                key = (label, multipole)
                if key in tails:
                    raise DatasetError(f"duplicate tail entry for {label} {multipole}")
                tails[key] = _quantity(args[2], args[3], "tail polarizability", A0_CUBED)
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None

    if core is None:
        raise DatasetError("missing core entry")

    return Dataset(levels, elements, core, tails)


@functools.lru_cache(maxsize=16)
def _outcome(text: str) -> Dataset | str:
    """The Dataset of `text`, or the message of its refusal."""
    try:
        return _parse(text)
    except DatasetError as exc:
        return str(exc)


def parse_dataset(text: str) -> Dataset:
    """Parse dataset text and return a fully validated :class:`Dataset`.

    Raises :class:`DatasetError` with a line number for syntax problems and with the
    full violation list for semantic ones.  The outcome is kept per text for the last
    16 texts, accepted or refused: identical text returns one shared Dataset, rows memo
    included, or raises a new DatasetError with the same message, while it stays kept.
    ``cache_info`` and ``cache_clear`` are the store's; ``__wrapped__`` parses uncached.
    """
    outcome = _outcome(text)
    if outcome.__class__ is str:  # a new exception each time: a stored one grows its traceback
        raise DatasetError(outcome)
    return outcome


parse_dataset.cache_info = _outcome.cache_info
parse_dataset.cache_clear = _outcome.cache_clear
parse_dataset.__wrapped__ = _parse


BUILTIN_DATASET = "<builtin ca_plus.dat>"  # the source that a report names for the packaged file


def builtin_dataset_text() -> str:
    """The packaged Ca+ dataset's text, read by the package's loader (dir or zip)."""
    path = os.path.join(os.path.dirname(__file__), "data", "ca_plus.dat")
    return __spec__.loader.get_data(path).decode("utf-8")


def read_dataset_text(path: str) -> str:
    """The text of the dataset file at `path`: a regular file of at most MAX_DATASET_BYTES
    bytes of UTF-8, a byte-order mark allowed; anything else is a DatasetError."""
    try:
        # Bytes from the descriptor, no file object: the parser splits the lines.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO with no writer opens at once
        try:
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):  # a directory opens too; refused in open()'s words
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not stat.S_ISREG(info.st_mode):
                raise DatasetError(f"cannot read dataset {path!r}: not a regular file")
            # read(n) allocates n bytes first, so read the stated size and one byte, and
            # read on, to the bound and one byte in all, only while a file holds other
            # than it states (/proc's).
            data = os.read(fd, min(info.st_size, MAX_DATASET_BYTES) + 1)
            while len(data) != info.st_size:
                more = os.read(fd, MAX_DATASET_BYTES + 1 - len(data))
                if not more:
                    break
                data += more
        finally:
            os.close(fd)
        if len(data) > MAX_DATASET_BYTES:
            raise DatasetError(
                f"cannot read dataset {path!r}: larger than {MAX_DATASET_BYTES} bytes"
            )
        if data[:3] == codecs.BOM_UTF8:  # as utf-8-sig reads it, error positions included
            data = data[3:]
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc


@functools.cache
def builtin_dataset() -> Dataset:
    """The packaged Ca+ dataset as one shared Dataset, parsed once per process."""
    return parse_dataset(builtin_dataset_text())


def energy_difference_au(ds: Dataset, a: LevelLabel, b: LevelLabel) -> Quantity:
    """Energy difference E(b) - E(a) in atomic units (hartree).

    Experimental energies are treated as exact, so the uncertainty is zero.
    """
    # b is looked up first, so an unknown b is named first
    gap_cm = ds.levels[ds._couplings[b][2]].energy_cm - ds.levels[ds._couplings[a][2]].energy_cm
    return Quantity(gap_cm / HARTREE_IN_CM, 0.0, DIMENSIONLESS)
