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

import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .constants import HARTREE_IN_CM

L_LETTERS = "spdfg"

SCALAR = "scalar"
TENSOR = "tensor"
MULTIPOLES = (SCALAR, TENSOR)

# Unit tags carried by Quantity.
A0_CUBED = "a0^3"               # polarizability, atomic units
E_A0 = "e*a0"                   # reduced E1 matrix element
CM_INV = "cm^-1"                # level energy
HERTZ = "Hz"
MEGAHERTZ = "MHz"
NANOSECOND = "ns"
SI_POLARIZABILITY = "Hz/(V/m)^2"
DIMENSIONLESS = "1"


class DatasetError(ValueError):
    """Unparseable or physically inconsistent dataset input."""


class UnitMismatchError(ValueError):
    """Quantity arithmetic attempted across different unit tags."""


class UnknownLevelError(KeyError):
    """A level label is not declared in the dataset."""


@dataclass(frozen=True)
class Quantity:
    """A number with a one-sigma uncertainty and a unit tag.

    Addition and subtraction require identical unit tags and combine
    uncertainties in quadrature (components are treated as uncorrelated).
    """

    value: float
    unc: float = 0.0
    unit: str = DIMENSIONLESS

    def __post_init__(self) -> None:
        if self.unc < 0:
            raise ValueError(f"negative uncertainty: {self.unc!r}")

    def _require_same_unit(self, other: "Quantity") -> None:
        if not isinstance(other, Quantity):
            raise TypeError(f"expected Quantity, got {type(other).__name__}")
        if self.unit != other.unit:
            raise UnitMismatchError(
                f"cannot combine quantities in {self.unit!r} and {other.unit!r}"
            )

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same_unit(other)
        return Quantity(self.value + other.value, math.hypot(self.unc, other.unc), self.unit)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require_same_unit(other)
        return Quantity(self.value - other.value, math.hypot(self.unc, other.unc), self.unit)

    def relative_unc(self) -> float:
        """unc / |value|; zero for a zero value."""
        if self.value == 0.0:
            return 0.0
        return self.unc / abs(self.value)


_LABEL_RE = re.compile(r"^(\d+)([a-z])(\d+)/2$")


@dataclass(frozen=True, order=True)
class LevelLabel:
    """Spectroscopic state label: n, orbital l, and twice the total j."""

    n: int
    l: int
    j2: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"principal quantum number must be positive: {self.n}")
        if not 0 <= self.l < len(L_LETTERS):
            raise ValueError(f"orbital angular momentum out of range 0..4: {self.l}")
        if self.j2 < 1 or self.j2 % 2 == 0:
            raise ValueError(f"twice-j must be a positive odd integer: {self.j2}")
        allowed = (1,) if self.l == 0 else (2 * self.l - 1, 2 * self.l + 1)
        if self.j2 not in allowed:
            raise ValueError(
                f"j={self.j2}/2 incompatible with l={L_LETTERS[self.l]!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "LevelLabel":
        m = _LABEL_RE.match(text)
        if m is None or m.group(2) not in L_LETTERS:
            raise DatasetError(f"bad level label {text!r} (expected e.g. '4p3/2')")
        try:
            return cls(int(m.group(1)), L_LETTERS.index(m.group(2)), int(m.group(3)))
        except ValueError as exc:
            raise DatasetError(f"bad level label {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.n}{L_LETTERS[self.l]}{self.j2}/2"


@dataclass(frozen=True)
class Level:
    """An atomic level: label plus its energy above the ground state."""

    label: LevelLabel
    energy_cm: float

    def __post_init__(self) -> None:
        if self.energy_cm < 0:
            raise ValueError(f"negative level energy: {self.energy_cm}")


@dataclass(frozen=True)
class ReducedE1:
    """A reduced electric-dipole matrix element between two levels.

    Stored as a positive magnitude in e*a0; every formula in this package
    uses the square, so the sign convention never enters.  The pair is
    stored with the energetically lower level first.
    """

    lower: LevelLabel
    upper: LevelLabel
    d: Quantity

    def __post_init__(self) -> None:
        if self.d.unit != E_A0:
            raise ValueError(f"matrix element must be in {E_A0!r}, got {self.d.unit!r}")
        if self.d.value <= 0:
            raise ValueError(f"matrix element magnitude must be positive: {self.d.value}")

    def couples(self, label: LevelLabel) -> bool:
        return label == self.lower or label == self.upper

    def partner(self, label: LevelLabel) -> LevelLabel:
        if label == self.lower:
            return self.upper
        if label == self.upper:
            return self.lower
        raise ValueError(f"{label} is not an endpoint of {self.lower}-{self.upper}")


def e1_selection_ok(a: LevelLabel, b: LevelLabel) -> bool:
    """Electric-dipole selection rules: |dl| = 1 and |dj| <= 1."""
    return abs(a.l - b.l) == 1 and abs(a.j2 - b.j2) <= 2


@dataclass(frozen=True)
class Dataset:
    """Validated collection of levels, matrix elements, core and tail terms.

    The sole physics input of the package.  Construction is permissive;
    :func:`validate` reports invariant violations and :func:`parse_dataset`
    refuses to return a dataset that has any.
    """

    levels: tuple[Level, ...]
    elements: tuple[ReducedE1, ...]
    core_alpha: Quantity
    tails: Mapping[tuple[LevelLabel, str], Quantity]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "tails", MappingProxyType(dict(self.tails)))
        object.__setattr__(
            self, "_by_label", {level.label: level for level in self.levels}
        )

    def level(self, label: LevelLabel) -> Level:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLevelError(str(label)) from None

    def energy_cm(self, label: LevelLabel) -> float:
        return self.level(label).energy_cm

    def tail(self, label: LevelLabel, multipole: str) -> Quantity:
        """Tail term for (state, multipole); 0(0) when none is declared."""
        return self.tails.get((label, multipole), Quantity(0.0, 0.0, A0_CUBED))

    def elements_coupling(self, label: LevelLabel) -> Iterator[ReducedE1]:
        for element in self.elements:
            if element.couples(label):
                yield element

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


def _parse_number(token: str, what: str) -> float:
    """A finite float; nan, inf and overflowing literals such as 1e400 are rejected."""
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"non-finite {what} {token!r}")
    return value


def parse_dataset(text: str) -> Dataset:
    """Parse dataset text and return a fully validated :class:`Dataset`.

    Raises :class:`DatasetError` with a line number for syntax problems and
    with the full violation list for semantic ones.
    """
    levels: list[Level] = []
    elements: list[ReducedE1] = []
    core: Quantity | None = None
    tails: dict[tuple[LevelLabel, str], Quantity] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            if kind == "level":
                if len(args) != 2:
                    raise DatasetError("expected: level <label> <energy_cm>")
                levels.append(
                    Level(LevelLabel.parse(args[0]), _parse_number(args[1], "energy"))
                )
            elif kind == "e1":
                if len(args) != 4:
                    raise DatasetError("expected: e1 <lower> <upper> <value> <unc>")
                d = Quantity(
                    _parse_number(args[2], "matrix element"),
                    _parse_number(args[3], "uncertainty"),
                    E_A0,
                )
                elements.append(
                    ReducedE1(LevelLabel.parse(args[0]), LevelLabel.parse(args[1]), d)
                )
            elif kind == "core":
                if len(args) != 2:
                    raise DatasetError("expected: core <value> <unc>")
                if core is not None:
                    raise DatasetError("duplicate core entry")
                core = Quantity(
                    _parse_number(args[0], "core polarizability"),
                    _parse_number(args[1], "uncertainty"),
                    A0_CUBED,
                )
            elif kind == "tail":
                if len(args) != 4:
                    raise DatasetError("expected: tail <label> <scalar|tensor> <value> <unc>")
                label = LevelLabel.parse(args[0])
                multipole = args[1]
                if multipole not in MULTIPOLES:
                    raise DatasetError(f"bad multipole {multipole!r}")
                key = (label, multipole)
                if key in tails:
                    raise DatasetError(f"duplicate tail entry for {label} {multipole}")
                tails[key] = Quantity(
                    _parse_number(args[2], "tail polarizability"),
                    _parse_number(args[3], "uncertainty"),
                    A0_CUBED,
                )
            else:
                raise DatasetError(f"unknown directive {kind!r}")
        except (DatasetError, ValueError) as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None

    if core is None:
        raise DatasetError("missing core entry")

    ds = Dataset(tuple(levels), tuple(elements), core, tails)
    violations = validate(ds)
    if violations:
        raise DatasetError("; ".join(violations))
    return ds


def validate(ds: Dataset) -> list[str]:
    """Check all dataset invariants; return one description per violation."""
    violations: list[str] = []

    seen: set[LevelLabel] = set()
    for level in ds.levels:
        if level.label in seen:
            violations.append(f"duplicate level {level.label}")
        seen.add(level.label)
    if ds.levels and min(level.energy_cm for level in ds.levels) != 0.0:
        violations.append("no ground level with energy 0")

    pairs: set[tuple[LevelLabel, LevelLabel]] = set()
    for el in ds.elements:
        name = f"e1 {el.lower}-{el.upper}"
        missing = [lab for lab in (el.lower, el.upper) if lab not in seen]
        for lab in missing:
            violations.append(f"{name}: unknown level {lab}")
        if missing:
            continue
        if not e1_selection_ok(el.lower, el.upper):
            violations.append(f"{name}: violates E1 selection rules")
        if ds.energy_cm(el.lower) >= ds.energy_cm(el.upper):
            violations.append(f"{name}: lower level is not energetically lower")
        key = (el.lower, el.upper) if el.lower <= el.upper else (el.upper, el.lower)
        if key in pairs:
            violations.append(f"{name}: duplicate matrix element for this pair")
        pairs.add(key)

    if ds.core_alpha.value <= 0:
        violations.append("core polarizability must be positive")
    if ds.core_alpha.unit != A0_CUBED:
        violations.append(f"core polarizability must be in {A0_CUBED!r}")

    for (label, multipole), q in ds.tails.items():
        if label not in seen:
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
    diff_cm = ds.energy_cm(b) - ds.energy_cm(a)
    return Quantity(diff_cm / HARTREE_IN_CM, 0.0, DIMENSIONLESS)
