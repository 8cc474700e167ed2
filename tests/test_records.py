"""The record contract: construction, defaults, immutability, equality, hashing,
ordering, copying and ``repr`` of the ten value types of the package."""

import copy
import pickle
import re
import sys

import pytest

from polkit import (
    A0_CUBED,
    E_A0,
    MEGAHERTZ,
    BBRConditions,
    Contribution,
    Dataset,
    DecayChannel,
    Level,
    LevelLabel,
    PolarizabilityBreakdown,
    Quantity,
    ReducedE1,
    Report,
)
from polkit import dataset

S, P = LevelLabel(4, 0, 1), LevelLabel(4, 1, 1)
D = Quantity(2.898, 0.029, E_A0)
ALPHA = Quantity(1.5, 0.1, A0_CUBED)
ZERO = Quantity(0.0, 0.0, A0_CUBED)
RATE = Quantity(140.0, 2.0, MEGAHERTZ)
CONTRIB = Contribution(S, P, D, 1.5, None)


def _dataset(core=3.25, tails=()):
    return Dataset(
        [Level(S, 0.0), Level(P, 25191.51)],
        [ReducedE1(S, P, D)],
        Quantity(core, 0.17, A0_CUBED),
        dict(tails),
    )


# name -> (positional, keyword-built equal, different, repr, hashable)
RECORDS = {
    "Quantity": (
        Quantity(1.0, 0.0, A0_CUBED),
        Quantity(value=1.0, unc=0.0, unit=A0_CUBED),
        Quantity(1.0, 0.0, E_A0),
        "Quantity(value=1.0, unc=0.0, unit='a0^3')",
        True,
    ),
    "LevelLabel": (
        LevelLabel(4, 1, 3),
        LevelLabel(n=4, l=1, j2=3),
        LevelLabel(4, 1, 1),
        "LevelLabel(n=4, l=1, j2=3)",
        True,
    ),
    "Level": (
        Level(P, 25191.51),
        Level(label=P, energy_cm=25191.51),
        Level(P, 25191.5),
        "Level(label=LevelLabel(n=4, l=1, j2=1), energy_cm=25191.51)",
        True,
    ),
    "ReducedE1": (
        ReducedE1(S, P, D),
        ReducedE1(lower=S, upper=P, d=D),
        ReducedE1(S, P, Quantity(2.9, 0.029, E_A0)),
        "ReducedE1(lower=LevelLabel(n=4, l=0, j2=1), upper=LevelLabel(n=4, l=1, j2=1), "
        "d=Quantity(value=2.898, unc=0.029, unit='e*a0'))",
        True,
    ),
    "Dataset": (
        _dataset(tails={(P, "scalar"): ZERO}),
        Dataset(
            levels=(Level(S, 0.0), Level(P, 25191.51)),
            elements=(ReducedE1(S, P, D),),
            core_alpha=Quantity(3.25, 0.17, A0_CUBED),
            tails={(P, "scalar"): ZERO},
        ),
        _dataset(core=3.5, tails={(P, "scalar"): ZERO}),
        "Dataset(levels=(Level(label=LevelLabel(n=4, l=0, j2=1), energy_cm=0.0), "
        "Level(label=LevelLabel(n=4, l=1, j2=1), energy_cm=25191.51)), "
        "elements=(ReducedE1(lower=LevelLabel(n=4, l=0, j2=1), upper=LevelLabel(n=4, l=1, j2=1), "
        "d=Quantity(value=2.898, unc=0.029, unit='e*a0')),), "
        "core_alpha=Quantity(value=3.25, unc=0.17, unit='a0^3'), "
        "tails=mappingproxy({(LevelLabel(n=4, l=1, j2=1), 'scalar'): "
        "Quantity(value=0.0, unc=0.0, unit='a0^3')}))",
        False,
    ),
    "Contribution": (
        Contribution(S, P, D, 1.5, None),
        Contribution(state=S, partner=P, d=D, alpha0=1.5, alpha2=None),
        Contribution(S, P, D, 1.5, 0.0),
        "Contribution(state=LevelLabel(n=4, l=0, j2=1), partner=LevelLabel(n=4, l=1, j2=1), "
        "d=Quantity(value=2.898, unc=0.029, unit='e*a0'), "
        "alpha0=1.5, alpha2=None)",
        True,
    ),
    "PolarizabilityBreakdown": (
        PolarizabilityBreakdown(S, "scalar", (CONTRIB,), ZERO, ZERO, ALPHA),
        PolarizabilityBreakdown(
            state=S, multipole="scalar", main=(CONTRIB,), tail=ZERO, core=ZERO, total=ALPHA
        ),
        PolarizabilityBreakdown(S, "scalar", (), ZERO, ZERO, ALPHA),
        f"PolarizabilityBreakdown(state=LevelLabel(n=4, l=0, j2=1), multipole='scalar', "
        f"main=({CONTRIB!r},), tail={ZERO!r}, core={ZERO!r}, total={ALPHA!r})",
        True,
    ),
    "DecayChannel": (
        DecayChannel(P, S, RATE),
        DecayChannel(upper=P, lower=S, A=RATE),
        DecayChannel(P, S, Quantity(141.0, 2.0, MEGAHERTZ)),
        "DecayChannel(upper=LevelLabel(n=4, l=1, j2=1), lower=LevelLabel(n=4, l=0, j2=1), "
        "A=Quantity(value=140.0, unc=2.0, unit='MHz'))",
        True,
    ),
    "BBRConditions": (
        BBRConditions(300.0, 0.0),
        BBRConditions(temperature=300.0, eta=0.0),
        BBRConditions(eta=0.01),
        "BBRConditions(temperature=300.0, eta=0.0)",
        True,
    ),
    "Report": (
        Report("bbr", {"dataset": "x"}, ({"shift": RATE},), {}),
        Report(kind="bbr", inputs={"dataset": "x"}, rows=({"shift": RATE},), totals={}),
        Report("bbr", {"dataset": "y"}, ({"shift": RATE},), {}),
        "Report(kind='bbr', inputs={'dataset': 'x'}, "
        "rows=({'shift': Quantity(value=140.0, unc=2.0, unit='MHz')},), totals={})",
        False,
    ),
}
FIELDS = {
    "Quantity": ("value", "unc", "unit"),
    "LevelLabel": ("n", "l", "j2"),
    "Level": ("label", "energy_cm"),
    "ReducedE1": ("lower", "upper", "d"),
    "Dataset": ("levels", "elements", "core_alpha", "tails"),
    "Contribution": ("state", "partner", "d", "alpha0", "alpha2"),
    "PolarizabilityBreakdown": ("state", "multipole", "main", "tail", "core", "total"),
    "DecayChannel": ("upper", "lower", "A"),
    "BBRConditions": ("temperature", "eta"),
    "Report": ("kind", "inputs", "rows", "totals"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, name):
        record, by_keyword, _, _, _ = RECORDS[name]
        assert type(record).__name__ == name
        for field in FIELDS[name]:
            assert getattr(record, field) == getattr(by_keyword, field)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = RECORDS[name][0]
        for field in (*FIELDS[name], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert RECORDS[name][0] == RECORDS[name][1]

    def test_equality_and_hash(self, name):
        record, equal, different, _, hashable = RECORDS[name]
        assert record == equal and not record != equal
        assert record != different and not record == different
        assert record != 1.0 and not record == 1.0
        if hashable:
            assert hash(record) == hash(equal)
            assert len({record, equal, different}) == 2
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_repr(self, name):
        assert repr(RECORDS[name][0]) == RECORDS[name][3]

    def test_copy_keeps_value(self, name):
        record = RECORDS[name][0]
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "roundtrip", [copy.deepcopy, lambda ds: pickle.loads(pickle.dumps(ds))], ids=["deepcopy", "pickle"]
)
def test_parsed_dataset_roundtrips_with_read_only_tails(golden, roundtrip):
    back = roundtrip(golden)
    assert back == golden and back.to_text() == golden.to_text()
    with pytest.raises(TypeError):
        back.tails[next(iter(back.tails))] = back.core_alpha
    for level in golden.levels:
        assert back.level(level.label) == level


def test_defaults():
    assert Quantity(1.0) == Quantity(1.0, 0.0, "1")
    assert (Quantity(1.0).unc, Quantity(1.0).unit) == (0.0, "1")
    cond = BBRConditions()
    assert (cond.temperature, cond.eta) == (300.0, 0.0)
    assert BBRConditions(150.0).temperature == 150.0


def test_reference_field_is_not_an_argument():
    with pytest.raises(TypeError):
        BBRConditions(300.0, 0.0, 800.0)
    with pytest.raises(TypeError):
        BBRConditions(reference_field=800.0)


def test_level_labels_sort_by_n_l_j2():
    labels = [LevelLabel.parse(t) for t in ("4p3/2", "3d5/2", "4s1/2", "3d3/2", "4p1/2", "5s1/2")]
    assert [str(lab) for lab in sorted(labels)] == [
        "3d3/2", "3d5/2", "4s1/2", "4p1/2", "4p3/2", "5s1/2"
    ]
    assert sorted(labels) == sorted(labels, key=lambda lab: (lab.n, lab.l, lab.j2))
    assert LevelLabel(4, 1, 1) < LevelLabel(4, 1, 3) <= LevelLabel(4, 1, 3) < LevelLabel(5, 0, 1)


def test_level_label_validates_every_construction():
    label = LevelLabel(4, 1, 1)
    assert label._replace(j2=3) == LevelLabel._make((4, 1, 3)) == LevelLabel(4, 1, 3)
    for build in (lambda: label._replace(j2=5), lambda: LevelLabel._make((4, 1, 5))):
        with pytest.raises(ValueError, match="incompatible with l='p'"):
            build()


@pytest.mark.parametrize("build", [
    lambda: LevelLabel(4, 1, 3),
    lambda: LevelLabel(n=4, l=1, j2=3),
    lambda: LevelLabel._make((4, 1, 3)),
    lambda: LevelLabel(4, 1, 1)._replace(j2=3),
    lambda: copy.copy(LevelLabel(4, 1, 3)),
    lambda: copy.deepcopy(LevelLabel(4, 1, 3)),
    lambda: pickle.loads(pickle.dumps(LevelLabel(4, 1, 3))),
    lambda: LevelLabel.parse("4p3/2"),
], ids=["call", "keywords", "_make", "_replace", "copy", "deepcopy", "pickle", "parse"])
def test_a_level_label_is_one_shared_object(build):
    assert build() is LevelLabel(4, 1, 3)


@pytest.mark.parametrize("triple, message", [
    ((4.0, 1, 3), "n must be an int: 4.0"),
    ((True, 0, 1), "n must be an int: True"),
    ((4, 1, 3.0), "j2 must be an int: 3.0"),
    ((0, 0, 1), "principal quantum number must be positive: 0"),
    ((4, 1, 5), "j=5/2 incompatible with l='p'"),
])
def test_a_refused_label_is_not_stored(triple, message, monkeypatch):
    table = {}
    monkeypatch.setattr(dataset, "_SHARED_LABELS", table)
    stored = [LevelLabel(4, 1, 3), LevelLabel(1, 0, 1)]  # 4.0 and True would find their keys
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LevelLabel(*triple)
    assert list(table.values()) == stored


def test_a_label_subclass_is_neither_shared_nor_stored():
    class Sub(LevelLabel):
        __slots__ = ()

    size = len(dataset._SHARED_LABELS)
    sub = Sub(4, 1, 3)
    assert type(sub) is Sub and sub == LevelLabel(4, 1, 3) and sub is not Sub(4, 1, 3)
    assert type(LevelLabel(4, 1, 3)) is LevelLabel and len(dataset._SHARED_LABELS) == size


def test_the_shared_label_table_stays_at_its_bound(monkeypatch):
    table = dict(dataset._SHARED_LABELS)
    monkeypatch.setattr(dataset, "_SHARED_LABELS", table)
    bound = dataset._MAX_SHARED_LABELS
    built = [LevelLabel(n, 0, 1) for n in range(10**6, 10**6 + bound + 2)]
    assert len(table) == bound
    assert built[-1] == LevelLabel(*built[-1]) and built[-1] is not LevelLabel(*built[-1])
    assert LevelLabel(4, 1, 3) is LevelLabel(4, 1, 3)


# name -> (a field, a value the constructor refuses for it, the refusal's message)
REFUSED = {
    "LevelLabel": ("j2", 5, "incompatible with l='p'"),
    "Level": ("energy_cm", -1.0, "level energy [cm^-1] must lie in [0, 1e+07], got -1.0"),
    "ReducedE1": ("d", Quantity(0.0, 0.0, E_A0),
                  "d [e*a0] must lie in [1e-06, 10000], got 0.0"),
    "DecayChannel": ("A", Quantity(0.0, 0.0, MEGAHERTZ),
                     "A [MHz] must lie in [1e-35, 1e+18], got 0.0"),
    "BBRConditions": ("temperature", -1.0, "temperature [K] must lie in [0, 100000], got -1.0"),
}
BUILDERS = {
    "_replace": lambda record, changes: record._replace(**changes),
    "_make": lambda record, changes: type(record)._make({**record._asdict(), **changes}.values()),
    "copy.replace": lambda record, changes: copy.replace(record, **changes),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
@pytest.mark.parametrize(
    "builder",
    [
        "_replace",
        "_make",
        pytest.param(
            "copy.replace",
            marks=pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is 3.13+"),
        ),
    ],
)
def test_tuple_records_validate_every_construction(name, builder):
    record = RECORDS[name][0]
    field, refused, message = REFUSED[name]
    build = BUILDERS[builder]
    same = build(record, {field: getattr(record, field)})
    assert type(same) is type(record) and same == record
    with pytest.raises(ValueError) as info:
        build(record, {field: refused})
    assert message in str(info.value)


def test_dataset_copies_its_inputs():
    levels, tails = [Level(S, 0.0), Level(P, 25191.51)], {(P, "scalar"): ZERO}
    ds = Dataset(levels, [ReducedE1(S, P, D)], ALPHA, tails)
    levels.append(Level(LevelLabel(5, 0, 1), 52166.93))
    tails.clear()
    assert ds.levels == (Level(S, 0.0), Level(P, 25191.51))
    assert dict(ds.tails) == {(P, "scalar"): ZERO}
    assert ds.level(P) == copy.copy(ds).level(P) == Level(P, 25191.51)
    with pytest.raises(TypeError):
        ds.tails[(S, "scalar")] = ZERO


@pytest.mark.parametrize("name", ["Quantity", "Report"])
def test_json_records_are_not_tuples(name):
    # json.dumps writes a tuple as a list without calling its `default` hook.
    assert not isinstance(RECORDS[name][0], tuple)
