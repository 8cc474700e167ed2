"""Atomic data model: levels, reduced E1 matrix elements, dataset parsing.

A dataset is a line-oriented UTF-8 text file::

    # comment
    level <label> <energy_cm>
    e1 <lower-label> <upper-label> <value_ea0> <unc_ea0>
    core <value_a0^3> <unc_a0^3>
    tail <label> <scalar|tensor> <value_a0^3> <unc_a0^3>

Level labels use the spectroscopic form ``<n><letter><2j>/2``, e.g.
``4p3/2``.  A parsed :class:`Dataset` is immutable and safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
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


class DatasetError(ValueError):
    """Unparseable or physically inconsistent dataset input."""


class UnitMismatchError(ValueError):
    """A Quantity does not carry the unit tag its use requires."""


class UnknownLevelError(KeyError):
    """A level label is not declared in the dataset."""


def _setters(cls: type) -> tuple:
    """The ``__set__`` of each of `cls`'s own slots, in ``__slots__`` order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


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
    """A number with a one-sigma uncertainty and a unit tag; both numbers are finite."""

    __slots__ = _fields = ("value", "unc", "unit")

    def __init__(self, value: float, unc: float = 0.0, unit: str = DIMENSIONLESS) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value!r} {unit}")
        if not math.isfinite(unc):
            raise ValueError(f"non-finite uncertainty: {unc!r} {unit}")
        if unc < 0:
            raise ValueError(f"negative uncertainty: {unc!r}")
        _set_value(self, value)
        _set_unc(self, unc)
        _set_unit(self, unit)

    def relative_unc(self) -> float:
        """unc / |value|; zero for a zero value."""
        if self.value == 0.0:
            return 0.0
        return self.unc / abs(self.value)


_set_value, _set_unc, _set_unit = _setters(Quantity)


def require_unit(q: Quantity, unit: str, what: str) -> None:
    """The one unit-tag check: raise UnitMismatchError unless `q` is in `unit`."""
    if q.unit != unit:
        raise UnitMismatchError(f"{what} must be in {unit!r}, got {q.unit!r}")


ZERO_A0_CUBED = Quantity(0.0, 0.0, A0_CUBED)


_LABEL_RE = re.compile(rf"([0-9]+)([{L_LETTERS}])([0-9]+)/2")


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


# Every (l, j2) that the rules allow; with n >= 1 a label needs no other check.
_VALID_L_J2 = frozenset(
    (l, j2)
    for l in range(len(L_LETTERS))
    for j2 in range(1, 2 * len(L_LETTERS))
    if _label_problem(1, l, j2) is None
)


class LevelLabel(namedtuple("LevelLabel", "n l j2")):
    """Spectroscopic state label of ints n, orbital l and twice the total j; sorts by (n, l, j2)."""

    __slots__ = ()

    def __new__(cls, n: int, l: int, j2: int) -> "LevelLabel":
        if not (type(n) is type(l) is type(j2) is int and n >= 1 and (l, j2) in _VALID_L_J2):
            problem = _label_problem(n, l, j2)
            if problem is not None:
                raise ValueError(problem)
        return tuple.__new__(cls, (n, l, j2))

    _make = _make

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def parse(text: str) -> "LevelLabel":
        """The label of `text`, shared by every call with that text while it stays
        cached; a refused text is not cached, so it raises at each call."""
        m = _LABEL_RE.fullmatch(text)
        if m is None:
            raise DatasetError(f"bad level label {text!r} (expected e.g. '4p3/2')")
        try:
            return LevelLabel(int(m.group(1)), L_LETTERS.index(m.group(2)), int(m.group(3)))
        except ValueError as exc:
            raise DatasetError(f"bad level label {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.n}{L_LETTERS[self.l]}{self.j2}/2"


class Level(namedtuple("Level", "label energy_cm")):
    """An atomic level: label plus its energy above the ground state."""

    __slots__ = ()
    _make = _make

    def __new__(cls, label: LevelLabel, energy_cm: float) -> "Level":
        if not math.isfinite(energy_cm):
            raise ValueError(f"non-finite level energy: {energy_cm!r}")
        if energy_cm < 0:
            raise ValueError(f"negative level energy: {energy_cm}")
        return tuple.__new__(cls, (label, energy_cm))


class ReducedE1(namedtuple("ReducedE1", "lower upper d")):
    """A reduced electric-dipole matrix element between two levels.

    Stored as a positive magnitude in e*a0; every formula in this package
    uses the square, so the sign convention never enters.  The pair is
    stored with the energetically lower level first.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, lower: LevelLabel, upper: LevelLabel, d: Quantity) -> "ReducedE1":
        require_unit(d, E_A0, "matrix element")
        if d.value <= 0:
            raise ValueError(f"matrix element magnitude must be positive: {d.value}")
        return tuple.__new__(cls, (lower, upper, d))


def e1_selection_ok(a: LevelLabel, b: LevelLabel) -> bool:
    """Electric-dipole selection rules: |dl| = 1 and |dj| <= 1."""
    return abs(a.l - b.l) == 1 and abs(a.j2 - b.j2) <= 2


class Dataset(Record):
    """Validated collection of levels, matrix elements, core and tail terms.

    The sole physics input of the package.  Construction is permissive;
    :func:`validate` reports invariant violations and :func:`parse_dataset`
    refuses to return a dataset that has any.
    """

    _fields = ("levels", "elements", "core_alpha", "tails")
    __slots__ = (*_fields, "_by_label", "_rows")

    def __init__(
        self,
        levels: Iterable[Level],
        elements: Iterable[ReducedE1],
        core_alpha: Quantity,
        tails: Mapping[tuple[LevelLabel, str], Quantity],
    ) -> None:
        levels = tuple(levels)
        _set_levels(self, levels)
        _set_elements(self, tuple(elements))
        _set_core_alpha(self, core_alpha)
        _set_tails(self, MappingProxyType(dict(tails)))
        _set_by_label(self, {level.label: level for level in levels})
        # Each state's sorted polarizability rows, filled on first assembly; outside
        # _fields, so ==, repr, copy and pickle ignore it.
        _set_rows(self, {})

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild from the fields: the tails mappingproxy does not pickle
        return type(self), (self.levels, self.elements, self.core_alpha, dict(self.tails))

    def level(self, label: LevelLabel) -> Level:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLevelError(str(label)) from None

    def energy_cm(self, label: LevelLabel) -> float:
        return self.level(label).energy_cm

    def tail(self, label: LevelLabel, multipole: str) -> Quantity:
        """Tail term for (state, multipole); 0(0) when none is declared."""
        return self.tails.get((label, multipole), ZERO_A0_CUBED)

    def couplings(self, label: LevelLabel) -> Iterator[tuple[LevelLabel, ReducedE1, float]]:
        """(partner, element, E(partner) - E(label) in hartree) per element on `label`, in order."""
        energy = self.energy_cm(label)
        for el in self.elements:
            if el.lower == label:
                partner = el.upper
            elif el.upper == label:
                partner = el.lower
            else:
                continue
            yield partner, el, (self.energy_cm(partner) - energy) / HARTREE_IN_CM

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


_set_levels, _set_elements, _set_core_alpha, _set_tails, _set_by_label, _set_rows = _setters(
    Dataset
)


# A number is an ASCII decimal literal with an optional exponent: no '_'
# separators, no non-ASCII digits.  nan and inf are matched only so that they
# are refused as non-finite rather than as unparseable.  The CLI's parser
# uses the same pattern to tell a negative number from an option.
UNSIGNED_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf|infinity"
_NUMBER_RE = re.compile(rf"[+-]?(?:{UNSIGNED_NUMBER})\Z", re.ASCII | re.IGNORECASE)


def parse_number(token: str, what: str) -> float:
    """The finite value of a number literal; anything else is a DatasetError."""
    # float() reads exactly the literals _NUMBER_RE matches, once it is kept from
    # non-ASCII digits, '_' separators and surrounding whitespace.
    if not token.isascii() or "_" in token or token != token.strip():
        raise DatasetError(f"bad {what} {token!r}")
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"non-finite {what} {token!r}")
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


def parse_dataset(text: str) -> Dataset:
    """Parse dataset text and return a fully validated :class:`Dataset`.

    Raises :class:`DatasetError` with a line number for syntax problems and
    with the full violation list for semantic ones.
    """
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

    ds = Dataset(tuple(levels), tuple(elements), core, tails)
    violations = validate(ds)
    if violations:
        raise DatasetError("; ".join(violations))
    return ds


@functools.cache
def builtin_dataset_text() -> str:
    """The packaged Ca+ dataset, read once per process by the package's loader (dir or zip)."""
    path = os.path.join(os.path.dirname(__file__), "data", "ca_plus.dat")
    return __spec__.loader.get_data(path).decode("utf-8")


def validate(ds: Dataset) -> list[str]:
    """Check all dataset invariants; return one description per violation."""
    violations: list[str] = []
    by_label = ds._by_label  # the last level of each label, as Dataset.level reads it

    if len(by_label) != len(ds.levels):
        seen: set[LevelLabel] = set()
        for level in ds.levels:
            if level.label in seen:
                violations.append(f"duplicate level {level.label}")
            seen.add(level.label)
    if ds.levels and min(level.energy_cm for level in ds.levels) != 0.0:
        violations.append("no ground level with energy 0")

    pairs: set[tuple[LevelLabel, LevelLabel]] = set()
    for el in ds.elements:
        lower = by_label.get(el.lower)
        upper = by_label.get(el.upper)
        if lower is None or upper is None:
            problems = [
                f"unknown level {lab}" for lab in (el.lower, el.upper) if lab not in by_label
            ]
        else:
            problems = []
            if not e1_selection_ok(el.lower, el.upper):
                problems.append("violates E1 selection rules")
            if lower.energy_cm >= upper.energy_cm:
                problems.append("lower level is not energetically lower")
            key = (el.lower, el.upper) if el.lower <= el.upper else (el.upper, el.lower)
            if key in pairs:
                problems.append("duplicate matrix element for this pair")
            pairs.add(key)
        violations += [f"e1 {el.lower}-{el.upper}: {problem}" for problem in problems]

    if ds.core_alpha.value <= 0:
        violations.append("core polarizability must be positive")
    if ds.core_alpha.unit != A0_CUBED:
        violations.append(f"core polarizability must be in {A0_CUBED!r}")

    for (label, multipole), q in ds.tails.items():
        if label not in by_label:
            violations.append(f"tail {label} {multipole}: unknown level {label}")
        if multipole not in MULTIPOLES:
            violations.append(f"tail {label}: bad multipole {multipole!r}")
        if q.unit != A0_CUBED:
            violations.append(f"tail {label} {multipole}: must be in {A0_CUBED!r}")

    return violations


def energy_difference_au(ds: Dataset, a: LevelLabel, b: LevelLabel) -> Quantity:
    """Energy difference E(b) - E(a) in atomic units (hartree).

    Experimental energies are treated as exact, so the uncertainty is zero.
    """
    return Quantity((ds.energy_cm(b) - ds.energy_cm(a)) / HARTREE_IN_CM, 0.0, DIMENSIONLESS)
