"""The input box: every number that enters polkit is checked against its physical bounds
where it enters, and inside the box every report answers with finite numbers.

Dataset numbers are refused with exit 2, CLI flags with exit 1, and library arguments with a
ValueError; each refusal names the input and its bounds.  The refusals of the overflow and
underflow handlers that the box replaced are kept here as gate cases.
"""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    BBRConditions,
    DecayChannel,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    bbr_shift_state,
    clock_bbr_shift,
    einstein_A,
    extract_matrix_element,
    measured_lifetime,
)
from polkit.cli import main
from polkit.dataset import (
    MAX_ALPHA,
    MAX_D,
    MAX_ENERGY_CM,
    MAX_ETA,
    MAX_GAP_AU,
    MAX_POLARIZABILITY,
    MAX_RATE_MHZ,
    MAX_TAU_NS,
    MAX_TEMPERATURE_K,
    MIN_D,
    MIN_GAP_AU,
    MIN_GAP_CM,
    MIN_RATE_MHZ,
    MIN_TAU_NS,
)

lab = LevelLabel.parse
up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, -math.inf))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_range_dataset(tmp_path, elements):
    """The three lowest Ca+ levels and a core, with `elements`' lines; a `level` line among
    them adds a level or moves one."""
    levels = {"4s1/2": "0", "3d3/2": "13650.19", "4p1/2": "25191.51"}
    lines = elements.splitlines()
    for line in [line for line in lines if line.startswith("level ")]:
        lines.remove(line)
        levels[line.split()[1]] = line.split()[2]
    path = tmp_path / "range.dat"
    path.write_text(
        "".join(f"level {label} {energy}\n" for label, energy in levels.items())
        + "".join(f"{line}\n" for line in lines)
        + "core 3.25 0.17\n"
    )
    return path


def bound_message(name, low, high, value):
    return f"{name} must lie in [{low:g}, {high:g}], got {value!r}"


D_OUT = "d [e*a0] must lie in [1e-06, 10000], got "
D_UNC_OUT = "d uncertainty [e*a0] must lie in [0, 10000], got 1e+308"
ENERGY_OUT = "level energy [cm^-1] must lie in [0, 1e+07], got "
TAU_OUT = "lifetime [ns] must lie in [1e-06, 1e+15], got "
TAU_UNC_OUT = "lifetime uncertainty [ns] must lie in [0, 1e+15], got "
EXTRACT = ["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns"]
P32 = "level 3d5/2 13710.88\nlevel 4p3/2 25414.40\n"

# (dataset lines, argv, exit code, message): each input reached an overflow or underflow
# handler before the box, and is now refused where it enters.  The ids are those handlers'.
GATE_CASES = {
    "assembly-d-squared": ("e1 4s1/2 4p1/2 2e154 1e149", ["polarizability", "--state", "4s1/2"],
                           2, "line 4: " + D_OUT + "2e+154"),
    "einstein-A-d-squared": ("e1 4s1/2 4p1/2 2e154 1e149", ["lifetime", "--state", "4p1/2"],
                             2, "line 4: " + D_OUT + "2e+154"),
    "lifetime-gap-cubed": ("level 4p1/2 1e110\ne1 4s1/2 4p1/2 2.898 0.029",
                           ["lifetime", "--state", "4p1/2"], 2, "line 3: " + ENERGY_OUT + "1e+110"),
    "extract-gap-cubed": ("level 4p1/2 1e110", EXTRACT + ["7"], 2,
                          "line 3: " + ENERGY_OUT + "1e+110"),
    "lifetime-rate-sum": (P32 + "e1 4s1/2 4p3/2 3.1019e153 0\ne1 3d3/2 4p3/2 9.8491e153 0\n"
                          "e1 3d5/2 4p3/2 9.9258e153 0", ["lifetime", "--state", "4p3/2"],
                          2, "line 6: " + D_OUT + "3.1019e+153"),
    "bbr-polarizability-unc-squared": ("e1 4s1/2 4p1/2 1e152 1e149\ne1 3d3/2 4p1/2 1e153 1e150",
                                       ["bbr", "--excited", "4p1/2"],
                                       2, "line 4: " + D_OUT + "1e+152"),
    "bbr-clock-sigma-sum": ("level 3d5/2 13710.88\ntail 4s1/2 scalar 0 1e154\n"
                            "tail 3d5/2 scalar 0 1e154", ["bbr"], 2,
                            "tail 4s1/2 scalar uncertainty [a0^3] must lie in [0, 1e+06], "
                            "got 1e+154; tail 3d5/2 scalar uncertainty [a0^3] must lie in "
                            "[0, 1e+06], got 1e+154"),
    "extract-rate-per-d-squared-overflows": ("level 4p1/2 1e107", EXTRACT + ["7"], 2,
                                             "line 3: " + ENERGY_OUT + "1e+107"),
    "lifetime-zero-sigma-total-rate-squared-underflows": (
        "e1 4s1/2 4p1/2 1e-160 0", ["lifetime", "--state", "4p1/2"],
        2, "line 4: " + D_OUT + "1e-160"),
    "lifetime-rate-underflows": ("e1 4s1/2 4p1/2 1e-200 1e-201", ["lifetime", "--state", "4p1/2"],
                                 2, "line 4: " + D_OUT + "1e-200"),
    "extract-other-rate-underflows": ("e1 3d3/2 4p1/2 1e-200 1e-201", EXTRACT + ["7"],
                                      2, "line 4: " + D_OUT + "1e-200"),
    # 4s1/2 and 4p1/2 share no e1 line, so validate does not compare their energies: the
    # pair's gap is refused by extract_report as a data error, in validate's e1 gap words
    "extract-rate-per-d-squared-underflows": (
        "level 4p1/2 1e-300", EXTRACT + ["7"], 2,
        "4p1/2 -> 4s1/2: gap [cm^-1] must lie in [0.001, 1e+07], got 1e-300"),
    "extract-reciprocal-lifetime": ("e1 4s1/2 4p1/2 2.898 0.029", EXTRACT + ["1e-310"],
                                    1, TAU_OUT + "1e-310"),
    "extract-tiny-lifetime-unc": ("e1 4s1/2 4p1/2 2.898 0.029",
                                  EXTRACT + ["1e-300", "--tau-unc-ns", "1e10"],
                                  1, TAU_OUT + "1e-300"),
    "extract-d-overflows": ("level 4p1/2 1e-80", EXTRACT + ["1e-300"], 1, TAU_OUT + "1e-300"),
    "extract-d-unc-overflows": ("level 4p1/2 1e-80", EXTRACT + ["7", "--tau-unc-ns", "1e250"],
                                1, TAU_UNC_OUT + "1e+250"),
    "extract-other-rate-sum": (P32 + "e1 4s1/2 4p3/2 4.1 0.04\ne1 3d3/2 4p3/2 1.3e154 0\n"
                               "e1 3d5/2 4p3/2 1.3e154 0",
                               ["extract", "--upper", "4p3/2", "--lower", "4s1/2",
                                "--tau-ns", "6.924"], 2, "line 7: " + D_OUT + "1.3e+154"),
    "extract-d-underflows": ("level 4p1/2 1e104", EXTRACT + ["1e303"], 1, TAU_OUT + "1e+303"),
    "extract-d-underflows-beside-its-element": ("level 4p1/2 1e104\ne1 4s1/2 4p1/2 2.898 0.029",
                                                EXTRACT + ["1e303"], 1, TAU_OUT + "1e+303"),
    "extract-percent-difference": ("e1 4s1/2 4p1/2 3e153 0", EXTRACT + ["1e308"],
                                   1, TAU_OUT + "1e+308"),
    "extract-percent-difference-beside-a-huge-element": (
        "e1 4s1/2 4p1/2 1e300 0", EXTRACT + ["1e20"], 1, TAU_OUT + "1e+20"),
    "einstein-A-unc": ("e1 4s1/2 4p1/2 1 1e308", ["lifetime", "--state", "4p1/2"],
                       2, "line 4: " + D_UNC_OUT),
    "assembly-term-unc": ("e1 4s1/2 4p1/2 1 1e308", ["polarizability", "--state", "4s1/2"],
                          2, "line 4: " + D_UNC_OUT),
    "assembly-downward-term-unc": ("e1 4s1/2 4p1/2 1 1e308",
                                   ["polarizability", "--state", "4p1/2"],
                                   2, "line 4: " + D_UNC_OUT),
    "lifetime-rate-unc-squared": ("e1 4s1/2 4p1/2 1e152 1e149\ne1 3d3/2 4p1/2 1e153 1e150",
                                  ["lifetime", "--state", "4p1/2"],
                                  2, "line 4: " + D_OUT + "1e+152"),
    "lifetime-total-rate-squared": ("e1 4s1/2 4p1/2 1e153 0\ne1 3d3/2 4p1/2 1e153 0",
                                    ["lifetime", "--state", "4p1/2"],
                                    2, "line 4: " + D_OUT + "1e+153"),
    "lifetime-rate-above-half-max": ("level 4p3/2 25414.40\ne1 4s1/2 4p3/2 3.468e153 0",
                                     ["lifetime", "--state", "4p3/2"],
                                     2, "line 5: " + D_OUT + "3.468e+153"),
    "lifetime-total-rate-squared-underflows-with-sigma": (
        "e1 4s1/2 4p1/2 1e-100 1e-101", ["lifetime", "--state", "4p1/2"],
        2, "line 4: " + D_OUT + "1e-100"),
    "extract-other-rate-unc-squared": ("e1 3d3/2 4p1/2 8e99 8e109",
                                       EXTRACT + ["1e-300", "--tau-unc-ns", "0"],
                                       1, TAU_OUT + "1e-300"),
    "extract-lifetime-unc": ("e1 4s1/2 4p1/2 2.898 0.029",
                             EXTRACT + ["7.098", "--tau-unc-ns", "1e308"],
                             1, TAU_UNC_OUT + "1e+308"),
    "extract-sigma-tau-times-a-rate": (None, EXTRACT + ["7.098", "--tau-unc-ns", "1.7e308"],
                                       1, TAU_UNC_OUT + "1.7e+308"),
    "extract-tiny-lifetime-rate-unc": (None, EXTRACT + ["1e-300", "--tau-unc-ns", "1e-290"],
                                       1, TAU_OUT + "1e-300"),
    "extract-tiny-lifetime": (None, EXTRACT + ["1e-300"], 1, TAU_OUT + "1e-300"),
    "extract-replaced-rate-underflows": ("e1 4s1/2 4p1/2 1e-200 0.01\n"
                                         "e1 3d3/2 4p1/2 2.46354 0.0120",
                                         EXTRACT + ["7.098", "--tau-unc-ns", "0.020"],
                                         2, "line 4: " + D_OUT + "1e-200"),
    "bbr-eta": (None, ["bbr", "--eta", "1e308"], 1, "eta must lie in [-1, 1], got 1e+308"),
    "bbr-temperature": (None, ["bbr", "--temperature", "3e79"],
                        1, "temperature [K] must lie in [0, 100000], got 3e+79"),
    "bbr-temperature-power": (None, ["bbr", "--temperature", "1e200"],
                              1, "temperature [K] must lie in [0, 100000], got 1e+200"),
}


@pytest.mark.parametrize("elements, argv, code, message", GATE_CASES.values(), ids=GATE_CASES)
def test_input_outside_the_box_is_refused_where_it_enters(tmp_path, capsys, elements, argv,
                                                          code, message):
    if elements is not None:
        argv = argv + ["--dataset", str(write_range_dataset(tmp_path, elements))]
    for fmt in ([], ["--format", "machine"]):
        assert run(capsys, *argv, *fmt) == (code, "", f"polkit: error: {message}\n")


# ---- each bound, pinned from both sides --------------------------------------------------

PIN_TEXT = ("level 4s1/2 {G}\nlevel 4p1/2 {E}\ne1 4s1/2 4p1/2 {d} {sd}\n"
            "core {c} {sc}\ntail 4s1/2 scalar {t} {st}\n")
PIN_DEFAULTS = dict(G=0.0, E=25191.51, d=2.898, sd=0.029, c=3.25, sc=0.17, t=0.5, st=0.1)

# field of PIN_TEXT -> (the input's name in a refusal, low, high); the ground energy's low
# bound is the level energy's, the upper level's the e1 pair's least gap.
DATASET_BOUNDS = {
    "G": ("level energy [cm^-1]", 0.0, MAX_ENERGY_CM),
    "E": ("gap [cm^-1]", MIN_GAP_CM, MAX_ENERGY_CM),
    "d": ("d [e*a0]", MIN_D, MAX_D),
    "sd": ("d uncertainty [e*a0]", 0.0, MAX_D),
    "c": ("core [a0^3]", -MAX_ALPHA, MAX_ALPHA),
    "sc": ("core uncertainty [a0^3]", 0.0, MAX_ALPHA),
    "t": ("tail 4s1/2 scalar [a0^3]", -MAX_ALPHA, MAX_ALPHA),
    "st": ("tail 4s1/2 scalar uncertainty [a0^3]", 0.0, MAX_ALPHA),
}
# (field, side): E's high side is the level energy's, pinned on G's field of the same bound.
DATASET_PINS = [("G", "low"), ("E", "low"), ("d", "low"), ("d", "high"), ("sd", "high"),
                ("c", "high"), ("sc", "high"), ("t", "low"), ("t", "high"), ("st", "high")]


@pytest.mark.parametrize("field, side", DATASET_PINS, ids=[f"{f}-{s}" for f, s in DATASET_PINS])
def test_dataset_number_is_pinned_at_its_bound(tmp_path, capsys, field, side):
    """The bound itself is taken; the nearest float outside it is a data error, exit 2,
    naming the input and its bounds."""
    name, low, high = DATASET_BOUNDS[field]
    bound, outside = (low, down(low)) if side == "low" else (high, up(high))
    path = tmp_path / "pin.dat"
    for value, code in ((bound, 0), (outside, 2)):
        path.write_text(PIN_TEXT.format(**{**PIN_DEFAULTS, field: repr(value)}))
        got, out, err = run(capsys, "polarizability", "--state", "4s1/2", "--dataset", str(path))
        assert got == code, err
        if code == 2:
            assert out == "" and bound_message(name, low, high, outside) in err


def test_level_energy_is_pinned_at_its_upper_bound(tmp_path, capsys):
    path = tmp_path / "pin.dat"
    for value, code in ((MAX_ENERGY_CM, 0), (up(MAX_ENERGY_CM), 2)):
        path.write_text(PIN_TEXT.format(**{**PIN_DEFAULTS, "E": repr(value)}))
        got, _, err = run(capsys, "polarizability", "--state", "4s1/2", "--dataset", str(path))
        assert got == code, err
    assert err == ("polkit: error: line 2: "
                   + bound_message("level energy [cm^-1]", 0.0, MAX_ENERGY_CM, up(MAX_ENERGY_CM))
                   + "\n")


# flag -> (command argv before it, the input's name, low, high, sides pinned, the library
# call that owns the flag's input); a temperature of 0 is refused as not positive, so its
# low side is not a bound of the box.
FLAG_BOUNDS = {
    "--temperature": (["bbr"], "temperature [K]", 0.0, MAX_TEMPERATURE_K, ("high",),
                      lambda x: BBRConditions(temperature=x)),
    "--eta": (["bbr"], "eta", -MAX_ETA, MAX_ETA, ("low", "high"), lambda x: BBRConditions(eta=x)),
    "--tau-ns": (EXTRACT[:-1], "lifetime [ns]", MIN_TAU_NS, MAX_TAU_NS, ("low", "high"),
                 measured_lifetime),
    "--tau-unc-ns": (EXTRACT + ["7.098"], "lifetime uncertainty [ns]", 0.0, MAX_TAU_NS,
                     ("low", "high"), lambda x: measured_lifetime(7.098, x)),
}
FLAG_PINS = [(flag, side) for flag, spec in FLAG_BOUNDS.items() for side in spec[4]]


@pytest.mark.parametrize("flag, side", FLAG_PINS, ids=[f"{f}-{s}" for f, s in FLAG_PINS])
def test_flag_is_pinned_at_its_bound(capsys, flag, side):
    """The bound itself is not refused for its range; the nearest float outside it is a usage
    error, exit 1, naming the input and its bounds, in the words of the library call that
    owns the flag's input."""
    argv, name, low, high, _, owner = FLAG_BOUNDS[flag]
    bound, outside = (low, down(low)) if side == "low" else (high, up(high))
    code, _, err = run(capsys, *argv, flag, repr(bound))
    assert code != 1 and "must lie in" not in err, err
    owner(bound)
    with pytest.raises(ValueError) as info:
        owner(outside)
    assert str(info.value) == bound_message(name, low, high, outside)
    assert run(capsys, *argv, flag, repr(outside)) == (1, "", f"polkit: error: {info.value}\n")


def _channel(rate, unc=0.0):
    return DecayChannel(lab("4p1/2"), lab("4s1/2"), Quantity(rate, unc, MEGAHERTZ))


def _extract(tau=7.0, unc=0.0, gap=0.1):
    return extract_matrix_element(Quantity(tau, unc, NANOSECOND), [], gap, 1)


def _clock(ground, excited):
    """The clock shift at the hottest T of two (value, sigma) polarizabilities in a0^3."""
    hottest = BBRConditions(MAX_TEMPERATURE_K, MAX_ETA)
    return clock_bbr_shift(Quantity(*ground, A0_CUBED), Quantity(*excited, A0_CUBED), hottest)


def _state(alpha, unc):
    """The state shift at the hottest T of a (value, sigma) polarizability in a0^3."""
    hottest = BBRConditions(MAX_TEMPERATURE_K, MAX_ETA)
    return bbr_shift_state(Quantity(alpha, unc, A0_CUBED), hottest)


TOP = MAX_POLARIZABILITY
# (the input's name, low, high, sides pinned, a call that takes the value)
LIBRARY_BOUNDS = {
    "Level": ("level energy [cm^-1]", 0.0, MAX_ENERGY_CM, ("low", "high"),
              lambda x: Level(lab("4p1/2"), x)),
    "ReducedE1.d": ("d [e*a0]", MIN_D, MAX_D, ("low", "high"),
                    lambda x: ReducedE1(lab("4s1/2"), lab("4p1/2"), Quantity(x, 0.0, E_A0))),
    "ReducedE1.unc": ("d uncertainty [e*a0]", 0.0, MAX_D, ("high",),
                      lambda x: ReducedE1(lab("4s1/2"), lab("4p1/2"), Quantity(1.0, x, E_A0))),
    "BBRConditions.temperature": ("temperature [K]", 0.0, MAX_TEMPERATURE_K, ("low", "high"),
                                  lambda x: BBRConditions(temperature=x)),
    "BBRConditions.eta": ("eta", -MAX_ETA, MAX_ETA, ("low", "high"),
                          lambda x: BBRConditions(eta=x)),
    "DecayChannel.A": ("A [MHz]", MIN_RATE_MHZ, MAX_RATE_MHZ, ("low", "high"),
                       _channel),
    "DecayChannel.unc": ("A uncertainty [MHz]", 0.0, MAX_RATE_MHZ, ("high",),
                         lambda x: _channel(1.0, x)),
    "einstein_A.gap": ("gap [hartree]", MIN_GAP_AU, MAX_GAP_AU, ("low", "high"),
                       lambda x: einstein_A(Quantity(1.0, 0.0, E_A0), x, 1)),
    "einstein_A.d": ("d [e*a0]", MIN_D, MAX_D, ("low", "high"),
                     lambda x: einstein_A(Quantity(x, 0.0, E_A0), 0.1, 1)),
    "einstein_A.unc": ("d uncertainty [e*a0]", 0.0, MAX_D, ("high",),
                       lambda x: einstein_A(Quantity(1.0, x, E_A0), 0.1, 1)),
    "extract.tau": ("lifetime [ns]", MIN_TAU_NS, MAX_TAU_NS, ("low", "high"),
                    lambda x: _extract(tau=x)),
    "extract.unc": ("lifetime uncertainty [ns]", 0.0, MAX_TAU_NS, ("high",),
                    lambda x: _extract(unc=x)),
    "extract.gap": ("gap [hartree]", MIN_GAP_AU, MAX_GAP_AU, ("low", "high"),
                    lambda x: _extract(gap=x)),
    # the other polarizability at the bound too: both sigmas' squares are at their largest
    "clock.ground": ("ground polarizability [a0^3]", -TOP, TOP, ("low", "high"),
                     lambda x: _clock((x, TOP), (TOP, TOP))),
    "clock.ground_unc": ("ground polarizability uncertainty [a0^3]", 0.0, TOP, ("high",),
                         lambda x: _clock((TOP, x), (-TOP, TOP))),
    "clock.excited": ("excited polarizability [a0^3]", -TOP, TOP, ("low", "high"),
                      lambda x: _clock((-TOP, TOP), (x, TOP))),
    "clock.excited_unc": ("excited polarizability uncertainty [a0^3]", 0.0, TOP, ("high",),
                          lambda x: _clock((-TOP, TOP), (TOP, x))),
    "state": ("polarizability [a0^3]", -TOP, TOP, ("low", "high"), lambda x: _state(x, TOP)),
    "state.unc": ("polarizability uncertainty [a0^3]", 0.0, TOP, ("high",),
                  lambda x: _state(-TOP, x)),
}
LIBRARY_PINS = [(name, side) for name, spec in LIBRARY_BOUNDS.items() for side in spec[3]]


@pytest.mark.parametrize("what, side", LIBRARY_PINS, ids=[f"{w}-{s}" for w, s in LIBRARY_PINS])
def test_library_argument_is_pinned_at_its_bound(what, side):
    """The bound itself is taken and gives finite numbers; the nearest float outside it is
    a ValueError naming the input and its bounds."""
    name, low, high, _, call = LIBRARY_BOUNDS[what]
    bound, outside = (low, down(low)) if side == "low" else (high, up(high))
    result = call(bound)
    fields = (result.value, result.unc) if isinstance(result, Quantity) else result
    assert all(math.isfinite(x) for x in fields if isinstance(x, float))
    with pytest.raises(ValueError) as info:
        call(outside)
    assert str(info.value) == bound_message(name, low, high, outside)


def test_einstein_a_refuses_a_zero_element_after_the_gap():
    """d = 0 lies outside the box like any other d; a gap outside it is named first."""
    with pytest.raises(ValueError, match=r"^d \[e\*a0\] must lie in \[1e-06, 10000\], got 0\.0$"):
        einstein_A(Quantity(0.0, 1e308, E_A0), MAX_GAP_AU, 1)
    with pytest.raises(ValueError, match=r"^gap \[hartree\]"):
        einstein_A(Quantity(0.0, 0.0, E_A0), 0.0, 1)


@pytest.mark.parametrize("unc", [1e154, 1e200])
def test_clock_shift_of_hand_built_polarizabilities_beyond_the_box_is_refused(unc):
    """Polarizabilities that no dataset in the box gives: their squared sigmas overflowed,
    and the shift is refused for its bound, not answered."""
    alpha = Quantity(0.0, unc, A0_CUBED)
    with pytest.raises(ValueError) as info:
        clock_bbr_shift(alpha, alpha, BBRConditions(), shared_core_unc=unc)
    assert type(info.value) is ValueError
    name = "ground polarizability uncertainty [a0^3]"
    assert str(info.value) == bound_message(name, 0.0, MAX_POLARIZABILITY, unc)


def test_state_shift_of_a_hand_built_polarizability_beyond_the_box_is_refused():
    """1e300 a0^3 at the hottest T: its shift overflowed to -inf Hz, which Quantity refused
    without naming the input; the shift is refused for its bound, as the clock shift is."""
    with pytest.raises(ValueError) as info:
        _state(1e300, 0.0)
    assert str(info.value) == bound_message("polarizability [a0^3]", -TOP, TOP, 1e300)


# ---- inside the box, every report answers with finite numbers ----------------------------

def _edges(low, high):
    """Each bound of [low, high] and the nearest float inside it."""
    return [low, up(low), down(high), high]


def _below(top, gap):
    """The largest float x with top - x >= gap, or 0.0 when top - 0.0 is the only one."""
    x = top - gap
    while x > 0.0 and top - x < gap:
        x = down(x)
    return max(x, 0.0)


UPPER_ENERGIES = _edges(MIN_GAP_CM, MAX_ENERGY_CM) + [25191.51]
D_VALUES = _edges(MIN_D, MAX_D) + [2.898]
D_UNCS = _edges(0.0, MAX_D)
ALPHAS = _edges(-MAX_ALPHA, MAX_ALPHA) + [0.0]
ALPHA_UNCS = _edges(0.0, MAX_ALPHA)
ELEMENTS = [("4s1/2", "4p1/2"), ("4s1/2", "4p3/2"), ("3d3/2", "4p1/2"), ("3d3/2", "4p3/2"),
            ("3d5/2", "4p3/2")]


@st.composite
def box_datasets(draw):
    """The five lowest Ca+ levels and their five e1 lines, each number at a corner or an
    edge of the box: energies at the bounds and the least e1 gap, d and every sigma at their
    bounds, core and tails at +-1e6."""
    p12, p32 = draw(st.sampled_from(UPPER_ENERGIES)), draw(st.sampled_from(UPPER_ENERGIES))
    top = _below(min(p12, p32), MIN_GAP_CM)  # the highest a 3d level may lie
    energies = {"4s1/2": 0.0, "4p1/2": p12, "4p3/2": p32}
    below = sorted({x for x in (0.0, up(0.0), down(top), top) if 0.0 <= x <= top})
    for label in ("3d3/2", "3d5/2"):
        energies[label] = draw(st.sampled_from(below))
    lines = [f"level {label} {energy!r}" for label, energy in energies.items()]
    for lower, upper in ELEMENTS:
        d, unc = draw(st.sampled_from(D_VALUES)), draw(st.sampled_from(D_UNCS))
        lines.append(f"e1 {lower} {upper} {d!r} {unc!r}")
    core = draw(st.sampled_from([up(0.0), 3.25, down(MAX_ALPHA), MAX_ALPHA]))
    lines.append(f"core {core!r} {draw(st.sampled_from(ALPHA_UNCS))!r}")
    for label, multipole in (("4s1/2", "scalar"), ("3d5/2", "scalar"), ("3d5/2", "tensor")):
        value, unc = draw(st.sampled_from(ALPHAS)), draw(st.sampled_from(ALPHA_UNCS))
        lines.append(f"tail {label} {multipole} {value!r} {unc!r}")
    return "\n".join(lines) + "\n"


def _finite(node):
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite(value) for value in node.values())
    if isinstance(node, list):
        return all(_finite(value) for value in node)
    return True


# The refusals that are not about range: no tensor part for j = 1/2, a state with no
# channels, a residual rate <= 0, selection rules and unknown states.
NOT_RANGE = ("tensor polarizability vanishes", "has no decay channels",
             "measured lifetime is inconsistent", "violates E1 selection rules", "unknown state")

@pytest.fixture(scope="module")
def box_path(tmp_path_factory):
    """One dataset file, rewritten for each drawn example."""
    return tmp_path_factory.mktemp("box") / "box.dat"


@seed(20260428)
@settings(max_examples=50, deadline=None, database=None)
@given(
    text=box_datasets(),
    temperature=st.sampled_from([up(0.0), 300.0, down(MAX_TEMPERATURE_K), MAX_TEMPERATURE_K]),
    eta=st.sampled_from(_edges(-MAX_ETA, MAX_ETA) + [0.0]),
    tau=st.sampled_from(_edges(MIN_TAU_NS, MAX_TAU_NS) + [7.098]),
    tau_unc=st.sampled_from(_edges(0.0, MAX_TAU_NS) + [0.02]),
)
def test_every_report_inside_the_box_answers_finitely(box_path, text, temperature, eta, tau,
                                                       tau_unc):
    """Each command on a dataset drawn at the box's corners and edges, with flags at theirs,
    exits 0 with every number finite, or is refused for a reason that is not range."""
    box_path.write_text(text)
    calls = [["bbr", "--temperature", repr(temperature), "--eta", repr(eta)]]
    for state in ("4s1/2", "3d3/2", "3d5/2", "4p1/2", "4p3/2"):
        calls += [["polarizability", "--state", state, "--multipole", m]
                  for m in ("scalar", "tensor")]
        calls.append(["lifetime", "--state", state])
    for lower, upper in ELEMENTS:
        calls.append(["extract", "--upper", upper, "--lower", lower,
                      "--tau-ns", repr(tau), "--tau-unc-ns", repr(tau_unc)])
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--dataset", str(box_path), "--format", "machine"])
        if code == 0:
            assert _finite(json.loads(out.getvalue())), (argv, text)
        else:
            assert code == 3 and any(r in err.getvalue() for r in NOT_RANGE), (argv, err, text)


# ---- the relative rules at the box's corners ---------------------------------------------

@pytest.mark.parametrize(
    "elements, state",
    [
        ("e1 4s1/2 4p1/2 10000 10000\ne1 3d3/2 4p1/2 10000 10000", "4p1/2"),
        ("e1 4s1/2 4p1/2 1e-6 0\ne1 3d3/2 4p1/2 1e-6 1e4", "4p1/2"),
        ("level 4p1/2 1e7\ne1 4s1/2 4p1/2 10000 10000\ne1 3d3/2 4p1/2 1e-6 0", "4p1/2"),
        ("level 4p1/2 13650.191\ne1 3d3/2 4p1/2 1e-6 1e4", "4p1/2"),
    ],
    ids=["largest-elements", "smallest-elements", "largest-gap", "least-gap"],
)
def test_lifetime_at_the_corners_has_the_summed_rate_relative_uncertainty(tmp_path, capsys,
                                                                          elements, state):
    """The rate sums are never squared: sigma_tau / tau is the quadrature sum of the rates'
    sigmas over their sum, read back from the printed rows."""
    path = write_range_dataset(tmp_path, elements)
    code, out, err = run(capsys, "lifetime", "--state", state, "--format", "machine",
                         "--dataset", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    tau = report["totals"]["lifetime"]
    assert math.isfinite(tau["value"]) and math.isfinite(tau["unc"])
    rates = [row["A"] for row in report["rows"]]
    total = sum(rate["value"] for rate in rates)
    assert tau["unc"] / tau["value"] == pytest.approx(
        math.hypot(*(rate["unc"] for rate in rates)) / total, rel=1e-12
    )


@pytest.mark.parametrize(
    "elements, tau, tau_unc",
    [
        ("e1 3d3/2 4p1/2 10000 10000", "1e-6", "1e15"),
        (None, "1e-6", "1e15"),
        ("e1 3d3/2 4p1/2 1e-6 1e4", "7.098", "0.020"),
        ("e1 3d3/2 4p1/2 2.46354 0.0120", "7.098", "5e-324"),
    ],
    ids=["largest-other-rate", "shortest-lifetime", "smallest-other-rate", "subnormal-sigma-tau"],
)
def test_extract_at_the_corners_has_the_residual_relative_uncertainty(tmp_path, capsys,
                                                                      elements, tau, tau_unc):
    """sigma_d / d is half the quadrature sum of the residual rate's relative terms, with no
    rate read for the replaced element: checked against the printed rows."""
    argv = EXTRACT + [tau, "--tau-unc-ns", tau_unc, "--format", "machine"]
    if elements is not None:
        argv += ["--dataset", str(write_range_dataset(tmp_path, elements))]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    d = report["totals"]["d_extracted"]
    assert math.isfinite(d["value"]) and math.isfinite(d["unc"])
    total = 1000.0 / float(tau)
    rates = [row["A"] for row in report["rows"]]
    residual = total - sum(rate["value"] for rate in rates)
    tau_rel = total / residual * float(tau_unc) / float(tau)
    others_rel = math.hypot(*(rate["unc"] for rate in rates)) / residual
    assert d["unc"] / d["value"] == pytest.approx(math.hypot(tau_rel, others_rel) / 2.0,
                                                  rel=1e-12, abs=sys.float_info.min)
