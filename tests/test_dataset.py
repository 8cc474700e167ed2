import codecs
import contextlib
import math
import os
import pathlib
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    E_A0,
    HARTREE_IN_CM,
    HERTZ,
    SCALAR,
    BBRConditions,
    Dataset,
    DatasetError,
    DecayChannel,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    UnitMismatchError,
    UnknownLevelError,
    assemble_breakdown,
    au_to_si,
    bbr_shift_state,
    builtin_dataset_text,
    clock_bbr_shift,
    decay_channels,
    einstein_A,
    energy_difference_au,
    extract_matrix_element,
    parse_dataset,
)
import polkit.dataset
from polkit.cli import main
from polkit.dataset import MAX_ALPHA, MAX_DATASET_BYTES, MIN_GAP_CM, NANOSECOND, number_literal
from polkit.dataset import parse_number, read_dataset_text
from polkit.dataset import _structure, e1_selection_ok, require_unit
from polkit.polarizability import _main_rows
from polkit.radiative import extract_pair

# A number is an ASCII decimal literal with an optional exponent: no '_'
# separators, no non-ASCII digits.  nan and inf are matched too: number_literal
# reads them, and parse_number refuses them as non-finite rather than as
# unparseable.  Neither uses this regex; it is the grammar's oracle here, and the
# argparse oracle of test_report_cli.py compiles it to tell a negative number
# from an option.
NUMBER_PATTERN = (
    r"(?ai)[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf|infinity)\Z"
)
NUMBER_RE = re.compile(NUMBER_PATTERN)

MINIMAL = """\
# tiny two-level system
level 4s1/2 0.0
level 4p1/2 25191.51
e1 4s1/2 4p1/2 2.898 0.029
core 3.25 0.17
"""


# The label regex LevelLabel.parse used before it read labels with str methods.
LABEL_RE = re.compile(r"([0-9]+)([spdfg])([0-9]+)/2")
LABEL_ALPHABET = "0123456789spdfgSx/2 \n\u0664\u00b2\uff11"


def regex_label(text):
    """What the regex reader returned for `text`: the label, or its refusal's message."""
    m = LABEL_RE.fullmatch(text)
    if m is None:
        return f"bad level label {text!r} (expected e.g. '4p3/2')"
    try:
        return LevelLabel(int(m[1]), "spdfg".index(m[2]), int(m[3]))
    except ValueError as exc:
        return f"bad level label {text!r}: {exc}"


@st.composite
def label_texts(draw):
    """A regex match, a label-shaped text or text over the alphabet, with up to two
    characters of the alphabet inserted."""
    text = draw(
        st.from_regex(LABEL_RE, fullmatch=True)
        | st.builds("{}{}{}/2".format, st.integers(0, 12), st.sampled_from("spdfg"),
                    st.integers(0, 9))
        | st.text(LABEL_ALPHABET, max_size=8)
    )
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(LABEL_ALPHABET)) + text[i:]
    return text


class TestLevelLabel:
    @pytest.mark.parametrize(
        "text,n,l,j2",
        [("4s1/2", 4, 0, 1), ("4p3/2", 4, 1, 3), ("3d5/2", 3, 2, 5), ("12f7/2", 12, 3, 7)],
    )
    def test_parse(self, text, n, l, j2):
        label = LevelLabel.parse(text)
        assert (label.n, label.l, label.j2) == (n, l, j2)
        assert str(label) == text

    @pytest.mark.parametrize(
        "bad",
        ["9z9/2", "4p5/2", "4s3/2", "p3/2", "4p3", "4p2/2", "0s1/2", "\u0664s1/2", "4s1/2\n",
         "4s1/\u0662", "4/2", ""],
    )
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(DatasetError):
            LevelLabel.parse(bad)

    def test_reads_leading_zeros(self):
        assert LevelLabel.parse("04s01/2") == LevelLabel(4, 0, 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=label_texts())
    def test_reads_exactly_what_the_label_regex_read(self, text):
        try:
            got = LevelLabel.parse(text)
        except DatasetError as exc:
            got = str(exc)
        expected = regex_label(text)
        assert (type(got), got) == (type(expected), expected)

    def test_roundtrip_all_golden(self, golden):
        for level in golden.levels:
            assert LevelLabel.parse(str(level.label)) == level.label

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 7, 2), "principal quantum number must be positive: 0"),
            ((-1, 0, 1), "principal quantum number must be positive: -1"),
            ((4, 5, 9), "orbital angular momentum out of range 0..4: 5"),
            ((4, 1, 2), "twice-j must be a positive odd integer: 2"),
            ((4, 0, 3), "j=3/2 incompatible with l='s'"),
        ],
    )
    def test_constructor_names_the_first_broken_rule(self, args, message):
        with pytest.raises(ValueError) as info:
            LevelLabel(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: LevelLabel(4, 1.0, 3), "l"),
            (lambda: LevelLabel(math.nan, 0, 1), "n"),
            (lambda: LevelLabel(4.5, 0, 1), "n"),
            (lambda: LevelLabel(True, 0, 1), "n"),
            (lambda: LevelLabel(4, True, 3), "l"),
            (lambda: LevelLabel(4, 0, True), "j2"),
            (lambda: LevelLabel(4, 1, 1)._replace(j2=3.0), "j2"),
            (lambda: LevelLabel._make((4, 1, 3.0)), "j2"),
        ],
        ids=["l-float", "n-nan", "n-float", "n-bool", "l-bool", "j2-bool", "replace", "make"],
    )
    def test_constructor_refuses_a_field_that_is_not_an_int(self, build, field):
        # A float or bool equal to a valid int would print as "4p3.0/2" or fail in str().
        with pytest.raises(ValueError, match=rf"^{field} must be an int: "):
            build()

    @pytest.mark.parametrize("bad", ["4x1/2", "4S1/2"])
    def test_letter_outside_spdfg_message(self, bad):
        with pytest.raises(DatasetError) as info:
            LevelLabel.parse(bad)
        assert str(info.value) == f"bad level label {bad!r} (expected e.g. '4p3/2')"

    @pytest.mark.parametrize(
        "bad", ["s1/2", "4s/2", "4\u00b2s1/2", "4s\u00b2/2", "4s\u0661/2", "4s1/2\n", "4s1/2/2"]
    )
    def test_text_not_shaped_like_a_label_message(self, bad):
        # str.isdigit() takes '\u00b2' and '\u0661', and int('\u0661') is 1.
        with pytest.raises(DatasetError) as info:
            LevelLabel.parse(bad)
        assert str(info.value) == f"bad level label {bad!r} (expected e.g. '4p3/2')"


class TestLevel:
    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(ValueError) as info:
            Level(LevelLabel.parse("4p1/2"), energy)
        assert str(info.value) == f"level energy [cm^-1] must lie in [0, 1e+07], got {energy!r}"

    def test_any_negative_energy_rejected_and_zero_accepted(self):
        with pytest.raises(ValueError) as info:
            Level(LevelLabel.parse("4p1/2"), -5e-324)
        assert str(info.value) == "level energy [cm^-1] must lie in [0, 1e+07], got -5e-324"
        assert Level(LevelLabel.parse("4s1/2"), 0.0).energy_cm == 0.0


class TestLabelType:
    """Level and ReducedE1 take only a LevelLabel as a label, and name any other."""

    @pytest.mark.parametrize("label", ["x", (4, 0, 1), None], ids=["str", "tuple", "none"])
    def test_a_level_label_that_is_not_a_level_label_is_refused(self, label):
        for energy in (0.0, -1.0):  # named before the energy
            with pytest.raises(ValueError) as info:
                Level(label, energy)
            assert str(info.value) == f"level label must be a LevelLabel, got {label!r}"

    @pytest.mark.parametrize("role", ["lower", "upper"])
    @pytest.mark.parametrize("label", ["4s1/2", (4, 0, 1)], ids=["str", "tuple"])
    def test_an_e1_label_that_is_not_a_level_label_is_refused(self, role, label):
        s, p = LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")
        lower, upper = (label, p) if role == "lower" else (s, label)
        for d in (Quantity(1.0, 0.0, E_A0), Quantity(0.0, 0.0, E_A0)):  # named before d
            with pytest.raises(ValueError) as info:
                ReducedE1(lower, upper, d)
            assert str(info.value) == f"{role} label must be a LevelLabel, got {label!r}"


class TestQuantity:
    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ValueError):
            Quantity(1.0, -0.1, A0_CUBED)

    @pytest.mark.parametrize(
        "value,unc,fragment",
        [
            (math.nan, 0.1, "non-finite value"),
            (-math.inf, 0.1, "non-finite value"),
            (1.0, math.inf, "non-finite uncertainty"),
            (1.0, math.nan, "non-finite uncertainty"),
        ],
    )
    def test_rejects_non_finite(self, value, unc, fragment):
        with pytest.raises(ValueError, match=fragment):
            Quantity(value, unc, A0_CUBED)

    def test_stores_a_negative_zero_uncertainty_unsigned(self):
        assert math.copysign(1.0, Quantity(1.0, -0.0).unc) == 1.0

    @pytest.mark.parametrize("value,expected", [(2.0, 0.25), (-2.0, 0.25), (0.0, 0.0)])
    def test_relative_unc(self, value, expected):
        """unc / |value|, and zero for a zero value."""
        assert Quantity(value, 0.5, A0_CUBED).relative_unc() == expected


S_HALF, P_HALF = LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")


class TestRequireUnit:
    def test_matching_unit_passes(self):
        require_unit(Quantity(1.0, 0.0, A0_CUBED), A0_CUBED, "polarizability")

    # An in-box value, and one outside every bound, where the unit is still named first.
    @pytest.mark.parametrize("value", [1.0, 1e300], ids=["in-box", "out-of-box"])
    @pytest.mark.parametrize(
        "call,what,unit",
        [
            (lambda q: ReducedE1(S_HALF, P_HALF, q), "matrix element", E_A0),
            (lambda q: ReducedE1((4, 0, 1), P_HALF, q), "matrix element", E_A0),
            (lambda q: DecayChannel(P_HALF, S_HALF, q), "rate", "MHz"),
            (lambda q: einstein_A(q, 0.1, 1), "matrix element", E_A0),
            (lambda q: einstein_A(q, 1e9, 1), "matrix element", E_A0),
            (lambda q: extract_matrix_element(q, [], 0.1, 1), "lifetime", "ns"),
            (lambda q: extract_matrix_element(q, [], 1e9, 1), "lifetime", "ns"),
            (au_to_si, "polarizability", A0_CUBED),
            (lambda q: bbr_shift_state(q, BBRConditions()), "polarizability", A0_CUBED),
            (lambda q: clock_bbr_shift(q, q, BBRConditions()), "ground polarizability", A0_CUBED),
            (
                lambda q: clock_bbr_shift(Quantity(1.0, 0.1, A0_CUBED), q, BBRConditions()),
                "excited polarizability",
                A0_CUBED,
            ),
            (
                lambda q: clock_bbr_shift(Quantity(1e300, 0.1, A0_CUBED), q, BBRConditions()),
                "excited polarizability",
                A0_CUBED,
            ),
        ],
    )
    def test_every_site_names_quantity_and_units(self, call, what, unit, value):
        message = f"{what} must be in {unit!r}, got 'Hz'"
        with pytest.raises(UnitMismatchError, match=f"^{re.escape(message)}$"):
            call(Quantity(value, value, HERTZ))

    def test_mismatch_is_a_unit_mismatch_value_error(self):
        with pytest.raises(UnitMismatchError) as err:
            require_unit(Quantity(1.0, 0.0, HERTZ), A0_CUBED, "polarizability")
        assert isinstance(err.value, ValueError)


# Signs, number and nan/inf letters, ASCII whitespace (str.strip and float both
# strip \x1c-\x1f), non-ASCII whitespace and non-ASCII digits.
NUMBER_ALPHABET = (
    "0123456789+-.eE_nNaAiIfFtTyY \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003"
    "\u0663\u0665\uff11\u0967\U0001d7d8"
)


# What float() reads beyond the grammar: separators, whitespace, non-ASCII digits.
FLOAT_ONLY = "_ \t\n\x1c\x1f\x85\xa0\u0663\uff11\U0001d7d8"


@st.composite
def number_tokens(draw):
    """A grammar match, a float repr or text over the alphabet, with up to two
    characters inserted that float() reads and the grammar does not."""
    token = draw(
        st.from_regex(NUMBER_RE, fullmatch=True)
        | st.floats().map(repr)
        | st.text(NUMBER_ALPHABET, max_size=12)
    )
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(token)))
        token = token[:i] + draw(st.sampled_from(FLOAT_ONLY)) + token[i:]
    return token


class TestParseNumber:
    @pytest.mark.parametrize(
        "token,value",
        [("300", 300.0), ("-1e-3", -0.001), ("+2.5E+3", 2500.0), ("1.", 1.0), (".5", 0.5),
         ("-0.0", 0.0), ("1e-320", 1e-320), ("0025191.51", 25191.51)],
    )
    def test_ascii_decimal_literals(self, token, value):
        assert parse_number(token, "energy") == value

    @pytest.mark.parametrize(
        "token",
        ["2_9", "1_000.0", "\u0663\u0660\u0660", "\uff11", "4\u0665", " 300", "300\n", "",
         "0x10", "1e", "e5", ".", "--5", "+-1", "1e5.0", "1,5", "\u0131nf"],
    )
    def test_other_text_is_refused(self, token):
        with pytest.raises(DatasetError, match=re.escape(f"bad energy {token!r}")):
            parse_number(token, "energy")

    @pytest.mark.parametrize("token", ["nan", "-inf", "+Infinity", "NaN", "1e400", "-1e309"])
    def test_non_finite_is_refused(self, token):
        with pytest.raises(DatasetError, match=re.escape(f"non-finite energy {token!r}")):
            parse_number(token, "energy")

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(token=number_tokens())
    def test_accepts_exactly_the_finite_grammar_matches(self, token):
        value = float(token) if NUMBER_RE.fullmatch(token) else None
        if value is not None and math.isfinite(value):
            assert parse_number(token, "energy").hex() == value.hex()
            return
        kind = "bad" if value is None else "non-finite"
        with pytest.raises(DatasetError) as err:
            parse_number(token, "energy")
        assert str(err.value) == f"{kind} energy {token!r}"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(token=number_tokens())
    def test_number_literal_reads_exactly_the_grammar_matches(self, token):
        """nan and inf included, as the CLI asks it whether a token led by '-' is a value."""
        value = number_literal(token)
        if NUMBER_RE.fullmatch(token):
            assert value is not None and value.hex() == float(token).hex()
        else:
            assert value is None


class TestParse:
    def test_minimal_element(self):
        ds = parse_dataset(MINIMAL)
        (el,) = ds.elements
        assert el.d == Quantity(2.898, 0.029, E_A0)
        assert str(el.lower) == "4s1/2"
        assert str(el.upper) == "4p1/2"

    def test_ground_level(self):
        ds = parse_dataset(MINIMAL)
        assert ds.energy_cm(LevelLabel.parse("4s1/2")) == 0.0

    def test_golden_inventory(self, golden):
        p_levels = [lv for lv in golden.levels if lv.label.l == 1]
        f_levels = [lv for lv in golden.levels if lv.label.l == 3]
        assert len(p_levels) == 6
        assert len(f_levels) == 18
        assert len(golden.levels) == 27
        assert len(golden.elements) == 29
        assert golden.core_alpha == Quantity(3.25, 0.17, A0_CUBED)

    def test_comments_and_blank_lines_ignored(self):
        ds = parse_dataset("# hi\n\n" + MINIMAL + "\n  # trailing\n")
        assert len(ds.levels) == 2

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("level 4s1/2", "line 1"),
            ("level 4s1/2 zero", "energy"),
            ("e1 4s1/2 4p1/2 2.898", "expected"),
            ("e1 4s1/2 4p1/2 2.898 -0.1", "negative uncertainty"),
            ("e1 4s1/2 4p1/2 0.0 0.1", "d [e*a0] must lie in [1e-06, 10000]"),
            ("wibble 1 2", "unknown directive"),
            ("tail 4s1/2 vector 1 0", "multipole"),
            ("level \u0664s1/2 0.0", "bad level label"),
            ("e1 4s1/2 4p1/2 2_898 0.029", "bad matrix element '2_898'"),
            ("level 4p1/2 \u0662\u0665\u0661\u0669\u0661.\u0665\u0661", "bad energy"),
        ],
    )
    def test_syntax_errors_carry_line_number(self, line, fragment):
        with pytest.raises(DatasetError) as err:
            parse_dataset(line + "\n")
        assert "line 1" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "line",
        [
            "level 4s1/2 nan",
            "e1 4s1/2 4p1/2 2.898 nan",
            "e1 4s1/2 4p1/2 inf 0.1",
            "core 1e400 0",
            "core 3.25 -inf",
            "tail 4s1/2 scalar 0.006 infinity",
        ],
    )
    def test_non_finite_numbers_rejected(self, line):
        with pytest.raises(DatasetError, match="line 1: non-finite"):
            parse_dataset(line + "\n")

    def test_duplicate_level_rejected(self):
        with pytest.raises(DatasetError, match="duplicate level"):
            parse_dataset(MINIMAL + "level 4s1/2 0.0\n")

    def test_unknown_level_rejected(self):
        with pytest.raises(DatasetError, match="unknown level"):
            parse_dataset(MINIMAL + "e1 4p1/2 7p1/2 0.5 0.01\n")

    def test_selection_rule_rejected(self):
        text = MINIMAL + "level 3d5/2 13710.88\ne1 4s1/2 3d5/2 1.0 0.01\n"
        with pytest.raises(DatasetError, match="selection"):
            parse_dataset(text)

    def test_missing_core_rejected(self):
        with pytest.raises(DatasetError, match="core"):
            parse_dataset("level 4s1/2 0.0\n")

    def test_roundtrip_identity(self, golden):
        assert parse_dataset(golden.to_text()) == golden

    def test_roundtrip_identity_minimal(self):
        ds = parse_dataset(MINIMAL)
        assert parse_dataset(ds.to_text()) == ds


class TestParserState:
    @pytest.mark.parametrize(
        "lines,lineno",
        [
            (["e1 4s1/2 4p2/2 1 0", "e1 4s1/2 4p2/2 1 0"], 6),
            (["level 4p2/2 300", "tail 4p2/2 scalar 1 0"], 6),
            (["tail 4p1/2 scalar 1 0", "e1 4s1/2 4p2/2 1 0", "tail 4p2/2 scalar 1 0"], 7),
        ],
    )
    def test_a_repeated_bad_label_names_its_first_line(self, lines, lineno):
        # 4s1/2 and 4p1/2 parse on lines 2-4 first; the bad text 4p2/2 comes later.
        text = "# header\n" + MINIMAL.split("\n", 1)[1] + "\n".join(lines) + "\n"
        with pytest.raises(DatasetError) as err:
            parse_dataset(text)
        assert str(err.value).startswith(f"line {lineno}: bad level label '4p2/2': ")

    @staticmethod
    def _labels(ds):
        parsed = [lv.label for lv in ds.levels]
        parsed += [lab for el in ds.elements for lab in (el.lower, el.upper)]
        return parsed + [lab for lab, _ in ds.tails]

    def test_parsed_labels_are_the_labels_of_their_text(self, golden_text):
        parse_dataset.cache_clear()  # each parse below is cold: a memoized text reads no label
        LevelLabel.parse.cache_clear()
        ds = parse_dataset(golden_text)
        parsed = self._labels(ds)
        assert len(parsed) == 88
        assert LevelLabel.parse.cache_info().misses == len({str(lab) for lab in parsed}) == 27
        parse_dataset.cache_clear()
        parse_dataset(golden_text)
        assert LevelLabel.parse.cache_info().misses == 27  # the second parse misses 0 times
        for lab in parsed:
            fresh = LevelLabel(lab.n, lab.l, lab.j2)
            assert type(lab) is LevelLabel and lab == fresh and hash(lab) == hash(fresh)

    def test_two_parses_share_their_labels(self, golden_text):
        first = parse_dataset(golden_text)
        parse_dataset.cache_clear()  # so that the second call parses the text again
        second = parse_dataset(golden_text)
        assert first is not second
        pairs = list(zip(self._labels(first), self._labels(second), strict=True))
        assert len(pairs) == 88 and all(a is b for a, b in pairs)

    def test_a_bad_label_raises_at_every_line_and_is_not_cached(self):
        for text in ("4s1/2", "4p1/2", "4p3/2"):  # cached first, so each later call hits
            LevelLabel.parse(text)
        before = LevelLabel.parse.cache_info()
        for lineno in (6, 7, 8):  # MINIMAL holds lines 1-5
            lines = ["level 4p3/2 25414.4"] * (lineno - 6) + ["level 4p2/2 300"]
            text = MINIMAL + "\n".join(lines) + "\n"
            with pytest.raises(DatasetError, match=f"^line {lineno}: bad level label '4p2/2': "):
                parse_dataset(text)
        for _ in range(2):
            with pytest.raises(DatasetError, match="^bad level label '4p2/2': "):
                LevelLabel.parse("4p2/2")
        after = LevelLabel.parse.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses + 5  # 4p2/2, at each of its five calls

    def test_two_texts_of_one_label_parse_alike(self):
        ds = parse_dataset("level 04s1/2 0\nlevel 4p1/2 1\ne1 4s1/2 04p1/2 1 0\ncore 1 0\n")
        (el,) = ds.elements
        assert el.lower == ds.levels[0].label == LevelLabel.parse("4s1/2")
        assert el.upper == ds.levels[1].label and hash(el.upper) == hash(LevelLabel.parse("4p1/2"))
        with pytest.raises(DatasetError, match="^duplicate level 4s1/2$"):
            parse_dataset("level 04s1/2 0\nlevel 4s1/2 0\ncore 1 0\n")

    def test_back_to_back_parses_are_independent(self):
        first = parse_dataset(MINIMAL)
        other = "level 4s1/2 0\nlevel 4p3/2 25414.4\ne1 4s1/2 4p3/2 4.1 0.04\ncore 3 0.1\n"
        second = parse_dataset(other)
        assert [str(lv.label) for lv in second.levels] == ["4s1/2", "4p3/2"]
        with pytest.raises(DatasetError, match="^e1 4s1/2-4p1/2: unknown level 4p1/2$"):
            parse_dataset(other + "e1 4s1/2 4p1/2 2.898 0.029\n")  # 4p1/2 is MINIMAL's
        with pytest.raises(DatasetError, match="^line 1: bad level label '4p4/2'"):
            parse_dataset("level 4p4/2 0\n" + MINIMAL)
        assert parse_dataset(MINIMAL) == first
        assert parse_dataset(other) == second


class TestParseMemo:
    """parse_dataset keeps the outcome of each of the last 16 texts, accepted or refused."""

    def test_identical_text_returns_one_dataset(self, golden_text):
        ds = parse_dataset(golden_text)
        assert parse_dataset(golden_text) is ds
        equal = "".join(golden_text)  # the same text in another str object
        assert equal is not golden_text and parse_dataset(equal) is ds

    def test_a_refused_text_is_stored_as_its_message_and_raised_anew(self):
        text = MINIMAL.replace("core 3.25", "core -3.25")
        before = parse_dataset.cache_info()
        errors = []
        for _ in range(3):
            with pytest.raises(DatasetError) as err:
                parse_dataset(text)
            errors.append(err.value)
        after = parse_dataset.cache_info()
        assert [str(exc) for exc in errors] == ["core polarizability must be positive"] * 3
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 2)
        assert len({id(exc) for exc in errors}) == 3  # a new exception at every call
        assert all(exc.__context__ is None for exc in errors)

    def test_at_most_16_texts_are_kept(self):
        parse_dataset.cache_clear()
        datasets = [parse_dataset(MINIMAL + f"# text {i}\n") for i in range(17)]
        info = parse_dataset.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (17, 16, 16)
        assert parse_dataset(MINIMAL + "# text 16\n") is datasets[16]
        assert parse_dataset(MINIMAL + "# text 0\n") is not datasets[0]  # the oldest was dropped
        assert len({id(ds) for ds in datasets}) == 17 and all(ds == datasets[0] for ds in datasets)

    def test_accepted_and_refused_texts_share_the_bound(self):
        parse_dataset.cache_clear()
        refused = [MINIMAL.replace("core 3.25", f"core -{i}") for i in range(1, 17)]
        for text in refused:
            with pytest.raises(DatasetError, match="^core polarizability must be positive$"):
                parse_dataset(text)
        ds = parse_dataset(MINIMAL)  # the 17th text drops the oldest refusal
        info = parse_dataset.cache_info()
        assert (info.misses, info.currsize) == (17, 16)
        with pytest.raises(DatasetError):
            parse_dataset(refused[0])  # parsed again
        assert parse_dataset.cache_info().misses == 18 and parse_dataset(MINIMAL) is ds


PACKAGED_FILE = pathlib.Path(polkit.dataset.__file__).with_name("data") / "ca_plus.dat"


@contextlib.contextmanager
def unblocked(seconds: float = 30.0):
    """Fail a call that blocks, as opening a FIFO with no writer would block, rather than
    hang: the alarm interrupts the open, and its handler fails the test."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def fail(signum, frame):
        pytest.fail(f"blocked for {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def unreadable(tmp_path, case):
    """The path of a dataset file that read_dataset_text refuses, and the refusal's words
    after the path."""
    path = tmp_path / f"{case}.dat"
    if case == "missing":
        with pytest.raises(FileNotFoundError) as info:
            open(path, "rb")
        return path, str(info.value)
    if case == "directory":  # refused in open()'s words
        with pytest.raises(IsADirectoryError) as info:
            open(tmp_path, "rb")
        return tmp_path, str(info.value)
    if case == "fifo":
        os.mkfifo(path)
        return path, "not a regular file"
    if case == "devnull":
        return os.devnull, "not a regular file"
    if case == "one-byte-over":
        path.write_bytes(b"#" * MAX_DATASET_BYTES + b"\n")
        return path, f"larger than {MAX_DATASET_BYTES} bytes"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(UnicodeDecodeError) as info:
        b"\xff\xfe".decode("utf-8")
    return path, str(info.value)


class TestReadDatasetText:
    """read_dataset_text reads a dataset file for the library and the CLI alike."""

    @pytest.mark.parametrize(
        "case", ["missing", "directory", "fifo", "devnull", "one-byte-over", "not-utf-8"]
    )
    def test_each_refusal_is_the_text_that_main_prints(self, tmp_path, capsys, case):
        if case == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs a FIFO")
        path, words = unreadable(tmp_path, case)
        with unblocked(), pytest.raises(DatasetError) as info:
            read_dataset_text(str(path))
        assert type(info.value) is DatasetError
        assert str(info.value) == f"cannot read dataset {str(path)!r}: {words}"
        with unblocked():
            assert main(["bbr", "--dataset", str(path)]) == 2
        assert capsys.readouterr() == ("", f"polkit: error: {info.value}\n")

    @pytest.mark.parametrize("form", [pathlib.Path, os.fsencode], ids=["Path", "bytes"])
    @pytest.mark.parametrize(
        "case", ["missing", "directory", "fifo", "devnull", "one-byte-over", "not-utf-8"]
    )
    def test_a_path_or_bytes_is_named_as_its_str(self, tmp_path, case, form):
        if case == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs a FIFO")
        path, words = unreadable(tmp_path, case)
        with unblocked(), pytest.raises(DatasetError) as info:
            read_dataset_text(form(path))
        assert str(info.value) == f"cannot read dataset {str(path)!r}: {words}"

    def test_the_packaged_file_reads_as_the_packaged_text(self):
        assert read_dataset_text(str(PACKAGED_FILE)) == builtin_dataset_text()

    @pytest.mark.parametrize("form", [pathlib.Path, os.fsencode], ids=["Path", "bytes"])
    def test_a_path_or_bytes_reads_as_its_str(self, form):
        assert read_dataset_text(form(PACKAGED_FILE)) == builtin_dataset_text()

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "bom.dat"
        path.write_bytes(codecs.BOM_UTF8 + PACKAGED_FILE.read_bytes())
        assert read_dataset_text(str(path)) == builtin_dataset_text()


def refusal(levels, elements, core, tails):
    """The violations, in order, with which the Dataset constructor refuses these fields."""
    with pytest.raises(DatasetError) as info:
        Dataset(levels, elements, core, tails)
    return str(info.value).split("; ")


class TestRefusal:
    """The constructor refuses a dataset with the message of its faults, in order."""

    def _levels(self):
        return (
            Level(LevelLabel.parse("4s1/2"), 0.0),
            Level(LevelLabel.parse("3d5/2"), 13710.88),
            Level(LevelLabel.parse("4p1/2"), 25191.51),
        )

    def test_selection_rule_violation_reported(self):
        bad = ReducedE1(
            LevelLabel.parse("4s1/2"),
            LevelLabel.parse("3d5/2"),
            Quantity(1.0, 0.0, E_A0),
        )
        assert refusal(self._levels(), (bad,), Quantity(3.25, 0.17, A0_CUBED), {}) == [
            "e1 4s1/2-3d5/2: violates E1 selection rules"
        ]

    def test_unknown_level_reported(self):
        bad = ReducedE1(
            LevelLabel.parse("4p1/2"),
            LevelLabel.parse("7p1/2"),
            Quantity(1.0, 0.0, E_A0),
        )
        assert refusal(self._levels(), (bad,), Quantity(3.25, 0.17, A0_CUBED), {}) == [
            "e1 4p1/2-7p1/2: unknown level 7p1/2"
        ]

    @pytest.mark.parametrize(
        "lower, upper, p_energy",
        [("4p1/2", "4s1/2", 25191.51), ("4s1/2", "4p1/2", 0.0)],
        ids=["reversed", "equal-energies"],
    )
    def test_energy_order_reported(self, lower, upper, p_energy):
        levels = (*self._levels()[:2], Level(LevelLabel.parse("4p1/2"), p_energy))
        bad = ReducedE1(
            LevelLabel.parse(lower),
            LevelLabel.parse(upper),
            Quantity(1.0, 0.0, E_A0),
        )
        gap = -p_energy if lower == "4p1/2" else p_energy
        assert refusal(levels, (bad,), Quantity(3.25, 0.17, A0_CUBED), {}) == [
            f"e1 {lower}-{upper}: gap [cm^-1] must lie in [0.001, 1e+07], got {gap!r}"
        ]

    def test_element_violations_keep_their_order(self):
        text = (
            "level 4s1/2 0\nlevel 4p1/2 100\nlevel 3d3/2 50\ncore 1 0\n"
            "e1 4s1/2 5p1/2 1 0\ne1 6s1/2 5p1/2 1 0\ne1 4p1/2 4s1/2 1 0\ne1 4s1/2 4p1/2 1 0\n"
            "e1 4s1/2 3d3/2 1 0\ne1 3d3/2 4p1/2 1 0\ne1 4p1/2 3d3/2 1 0\n"
        )
        with pytest.raises(DatasetError) as info:
            parse_dataset(text)
        assert str(info.value).split("; ") == [
            "e1 4s1/2-5p1/2: unknown level 5p1/2",
            "e1 6s1/2-5p1/2: unknown level 6s1/2",
            "e1 6s1/2-5p1/2: unknown level 5p1/2",
            "e1 4p1/2-4s1/2: gap [cm^-1] must lie in [0.001, 1e+07], got -100.0",
            "e1 4s1/2-4p1/2: duplicate matrix element for this pair",
            "e1 4s1/2-3d3/2: violates E1 selection rules",
            "e1 4p1/2-3d3/2: gap [cm^-1] must lie in [0.001, 1e+07], got -50.0",
            "e1 4p1/2-3d3/2: duplicate matrix element for this pair",
        ]

    @pytest.mark.parametrize("first", ["4s1/2", "4p1/2"])
    def test_a_pair_at_equal_energies_is_one_pair_in_either_order(self, first):
        """With no energy order, the labels order the pair: its second element, written
        either way round, is its duplicate."""
        s, p = LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")
        one = Quantity(1.0, 0.0, E_A0)
        a, b = (s, p) if first == "4s1/2" else (p, s)
        gap = "gap [cm^-1] must lie in [0.001, 1e+07], got 0.0"
        assert refusal([Level(s, 0.0), Level(p, 0.0)], [ReducedE1(a, b, one),
                       ReducedE1(b, a, one)], Quantity(3.25, 0.17, A0_CUBED), {}) == [
            f"e1 {a}-{b}: {gap}",
            f"e1 {b}-{a}: {gap}",
            f"e1 {b}-{a}: duplicate matrix element for this pair",
        ]

    def test_a_dataset_with_no_levels_is_valid(self):
        """The ground-level rule asks for a level at 0 only when there are levels."""
        ds = Dataset((), (), Quantity(3.25, 0.17, A0_CUBED), {})
        assert parse_dataset("core 3.25 0.17\n") == ds

    @pytest.mark.parametrize("core", [-1.0, 0.0])
    def test_nonpositive_core_reported(self, core):
        assert refusal(self._levels(), (), Quantity(core, 0.17, A0_CUBED), {}) == [
            "core polarizability must be positive"
        ]

    @pytest.mark.parametrize("core_unit, tail, message", [
        (HERTZ, None, "core polarizability must be in 'a0^3'"),
        (A0_CUBED, ("4s1/2", "vector", A0_CUBED), "tail 4s1/2: bad multipole 'vector'"),
        (A0_CUBED, ("4s1/2", "scalar", HERTZ), "tail 4s1/2 scalar: must be in 'a0^3'"),
        (A0_CUBED, ("7p1/2", "scalar", A0_CUBED), "tail 7p1/2 scalar: unknown level 7p1/2"),
    ], ids=["core-unit", "tail-multipole", "tail-unit", "tail-level"])
    def test_a_core_or_tail_fault_alone_is_refused_on_a_kept_structure(self, core_unit, tail,
                                                                       message):
        Dataset(self._levels(), (), Quantity(3.25, 0.17, A0_CUBED), {})  # keeps the structure
        tails = {}
        if tail is not None:
            label, multipole, unit = tail
            tails[LevelLabel.parse(label), multipole] = Quantity(1.0, 0.0, unit)
        assert refusal(self._levels(), (), Quantity(3.25, 0.17, core_unit), tails) == [message]

    def test_every_violation_kind_in_order(self):
        s, p, d, g = (LevelLabel.parse(t) for t in ("4s1/2", "4p1/2", "3d3/2", "5p1/2"))
        levels = (Level(s, 10.0), Level(p, 100.0), Level(d, 50.0), Level(p, 30.0))
        one = Quantity(1.0, 0.0, E_A0)
        elements = [
            ReducedE1(s, g, one),  # 5p1/2 is not a level
            ReducedE1(s, d, one),  # |dl| = 2
            ReducedE1(p, s, one),  # 4p1/2 above 4s1/2
            ReducedE1(s, p, one),  # the pair of the element before
            ReducedE1(d, p, one),  # 4p1/2 reads its last energy, 30, below 3d3/2
        ]
        tails = {
            (g, "scalar"): Quantity(1.0, 0.0, A0_CUBED),
            (g, "vector"): Quantity(1.0, 0.0, A0_CUBED),
            (p, "scalar"): Quantity(1.0, 0.0, HERTZ),
        }
        assert refusal(levels, elements, Quantity(-1.0, 0.17, HERTZ), tails) == [
            "duplicate level 4p1/2",
            "no ground level with energy 0",
            "e1 4s1/2-5p1/2: unknown level 5p1/2",
            "e1 4s1/2-3d3/2: violates E1 selection rules",
            "e1 4p1/2-4s1/2: gap [cm^-1] must lie in [0.001, 1e+07], got -20.0",
            "e1 4s1/2-4p1/2: duplicate matrix element for this pair",
            "e1 3d3/2-4p1/2: gap [cm^-1] must lie in [0.001, 1e+07], got -20.0",
            "core polarizability must be positive",
            "core polarizability must be in 'a0^3'",
            "tail 5p1/2 scalar: unknown level 5p1/2",
            "tail 5p1/2 vector: unknown level 5p1/2",
            "tail 5p1/2: bad multipole 'vector'",
            "tail 4p1/2 scalar: must be in 'a0^3'",
        ]

    def test_bounds_of_core_and_tails_follow_the_other_violations(self):
        s, p = LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")
        tails = {
            (s, "scalar"): Quantity(2e6, 0.0, HERTZ),
            (p, "tensor"): Quantity(1.0, 3e6, A0_CUBED),
        }
        assert refusal([Level(s, 0.0)], (), Quantity(-2e6, 0.0, A0_CUBED), tails) == [
            "core polarizability must be positive",
            "tail 4s1/2 scalar: must be in 'a0^3'",
            "tail 4p1/2 tensor: unknown level 4p1/2",
            "core [a0^3] must lie in [-1e+06, 1e+06], got -2000000.0",
            "tail 4s1/2 scalar [a0^3] must lie in [-1e+06, 1e+06], got 2000000.0",
            "tail 4p1/2 tensor uncertainty [a0^3] must lie in [0, 1e+06], got 3000000.0",
        ]


# A few labels, so that pairs repeat, and the faults that a drawn set may carry.
POOL = [LevelLabel.parse(t) for t in ("4s1/2", "4p1/2", "4p3/2", "3d3/2", "3d5/2", "5s1/2")]
FAULTS = ("duplicate-level", "tie", "near-tie", "no-ground", "undeclared", "any-pair",
          "reversed", "duplicate-pair", "core", "tail-term", "tail-level", "tail-multipole")
BAD_TERMS = [Quantity(v, u, unit) for v, u, unit in [
    (-1.0, 0.0, A0_CUBED), (0.0, 0.0, A0_CUBED), (2e6, 0.0, A0_CUBED), (-2e6, 0.0, A0_CUBED),
    (1.0, 2e6, A0_CUBED), (3.25, 0.17, HERTZ),
]]


@st.composite
def dataset_fields(draw, kinds=FAULTS):
    """Levels, elements, core and tails of a small valid set, with up to two faults drawn
    from `kinds`: none when it is empty."""
    faults = draw(st.lists(st.sampled_from(kinds), max_size=2) if kinds else st.just([]))
    labels = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=5, unique=True))
    energies = [float(i) for i in draw(st.permutations(range(len(labels))))]  # one at 0
    i, j = draw(st.integers(0, len(labels) - 1)), draw(st.integers(0, len(labels) - 1))
    if "tie" in faults or "near-tie" in faults:
        energies[i] = energies[j] + (0.0005 if "near-tie" in faults else 0.0)
    if "no-ground" in faults:
        energies = [energy + 0.5 for energy in energies]
    levels = [Level(label, energy) for label, energy in zip(labels, energies)]
    if "duplicate-level" in faults:
        levels.append(Level(labels[i], energies[j]))
    energy = dict(levels)
    allowed = [tuple(sorted((a, b), key=energy.get)) for a in labels for b in labels
               if a < b and e1_selection_ok(a, b)]
    pairs = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    if "undeclared" in faults or "any-pair" in faults:
        pick = st.sampled_from(POOL if "undeclared" in faults else labels)
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(pick), draw(pick)))
    if pairs and "duplicate-pair" in faults:
        pairs.append(draw(st.sampled_from(pairs)))
    if pairs and "reversed" in faults:
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = pairs[k][::-1]
    elements = [ReducedE1(lower, upper, Quantity(1.0, 0.1, E_A0)) for lower, upper in pairs]
    good, bad = Quantity(0.5, 0.1, A0_CUBED), st.sampled_from(BAD_TERMS)
    core = draw(bad) if "core" in faults else good
    tails = {(label, draw(st.sampled_from(["scalar", "tensor"]))): good
             for label in draw(st.lists(st.sampled_from(labels), max_size=2))}
    if "tail-term" in faults or "tail-level" in faults or "tail-multipole" in faults:
        label = draw(st.sampled_from(POOL if "tail-level" in faults else labels))
        multipole = "vector" if "tail-multipole" in faults else "scalar"
        tails[label, multipole] = draw(bad) if "tail-term" in faults else good
    return levels, elements, core, tails


def rules_hold(levels, elements, core, tails):
    """The dataset rules, stated plainly: unique level labels and a ground level at 0;
    each element between declared levels, E1-allowed, at least MIN_GAP_CM upward, and the
    only one of its pair; a positive core and every core and tail term in a0^3 and in the
    input box; each tail on a declared level and multipole."""
    energy = {level.label: level.energy_cm for level in levels}
    if len(energy) != len(levels) or (levels and min(energy.values()) != 0.0):
        return False
    pairs = [frozenset((el.lower, el.upper)) for el in elements]
    if len(set(pairs)) != len(pairs):
        return False
    for el in elements:
        if el.lower not in energy or el.upper not in energy:
            return False
        if abs(el.lower.l - el.upper.l) != 1 or abs(el.lower.j2 - el.upper.j2) > 2:
            return False
        if not energy[el.upper] - energy[el.lower] >= MIN_GAP_CM:
            return False
    if not core.value > 0:
        return False
    if any(q.unit != A0_CUBED or abs(q.value) > MAX_ALPHA or q.unc > MAX_ALPHA
           for q in (core, *tails.values())):
        return False
    return all(label in energy and multipole in ("scalar", "tensor") for label, multipole in tails)


def built(fields):
    """("built", every level's couplings and rows, by repr) of the Dataset of `fields`, or
    ("refused", the message of its refusal)."""
    try:
        ds = Dataset(*fields)
    except DatasetError as exc:
        return "refused", str(exc)
    return "built", repr([(list(ds.couplings(level.label)), _main_rows(ds, level.label))
                          for level in ds.levels])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fields=dataset_fields())
def test_construction_succeeds_exactly_when_the_rules_hold(fields):
    """The constructor accepts exactly the valid sets: Dataset builds when the rules hold,
    and is refused with a message otherwise, the same whether its structure is checked
    anew (cold) or read from the structure memo (warm)."""
    _structure.cache_clear()
    cold = built(fields)
    warm = built(fields)
    assert warm == cold
    assert cold[0] == ("built" if rules_hold(*fields) else "refused") and cold[1]


class TestStructureMemo:
    """A dataset whose levels and e1 label pairs equal a kept structure's is built as if
    cold: the memo holds no object of the dataset that stored it."""

    S, P, D = (LevelLabel.parse(t) for t in ("4s1/2", "4p1/2", "3d3/2"))
    CORE = Quantity(3.25, 0.17, A0_CUBED)

    def fields(self, energies=(0.0, 50.0, 100.0)):
        levels = [Level(label, e) for label, e in zip((self.S, self.D, self.P), energies)]
        one = Quantity(1.0, 0.01, E_A0)
        elements = [ReducedE1(self.S, self.P, one), ReducedE1(self.D, self.P, one)]
        return levels, elements, self.CORE, {}

    def test_new_values_on_a_kept_structure_give_the_rows_of_a_cold_build(self, golden):
        values = [el._replace(d=Quantity(el.d.value * 1.1, el.d.unc * 0.5, E_A0))
                  for el in golden.elements]
        fields = (golden.levels, values, golden.core_alpha, golden.tails)
        _structure.cache_clear()
        built((golden.levels, golden.elements, golden.core_alpha, golden.tails))
        warm = built(fields)
        assert _structure.cache_info()[:2] == (1, 1)  # hits, misses
        _structure.cache_clear()
        assert built(fields) == warm and warm[0] == "built"

    @pytest.mark.parametrize("energies", [(0, 50, 100), (-0.0, 50.0, 100.0)], ids=["int", "-0.0"])
    def test_equal_levels_of_another_form_read_their_own(self, energies):
        _structure.cache_clear()
        Dataset(*self.fields())
        fields = self.fields(energies)
        levels, ds = fields[0], Dataset(*fields)
        assert _structure.cache_info().hits == 1
        assert all(ds.level(level.label) is level for level in levels)
        assert [repr(ds.level(level.label).energy_cm) for level in levels] == list(
            map(repr, energies))
        warm = built(self.fields(energies))
        _structure.cache_clear()
        assert built(self.fields(energies)) == warm and Dataset(*self.fields(energies)) == ds

    def test_the_pairs_and_their_order_are_part_of_the_structure(self):
        """The same levels with fewer pairs, or with the pairs in another order, are
        other structures: each dataset walks its own elements, in row order whatever
        the order of its pairs."""
        _structure.cache_clear()
        levels, elements, core, tails = self.fields()  # 4p1/2's row order: 4s1/2, 3d3/2
        for variant in (elements, elements[:1], elements[::-1]):
            ds = Dataset(levels, variant, core, tails)
            rows = [el for el in elements if el in variant]
            assert [el for _, el, _ in ds.couplings(self.P)] == rows
        assert _structure.cache_info()[:2] == (0, 3)

    @pytest.mark.parametrize("energies, gap", [((0.0, 150.0, 100.0), "-50.0"),
                                               ((0, 150, 100), "-50")], ids=["float", "int"])
    def test_a_refused_structure_is_not_kept_and_is_refused_alike(self, energies, gap):
        """A refusal is worded from the refused dataset's own energies."""
        _structure.cache_clear()
        levels, elements, core, tails = self.fields(energies)  # 3d3/2 above 4p1/2
        for _ in range(2):
            with pytest.raises(DatasetError) as info:
                Dataset(levels, elements, core, tails)
            assert str(info.value) == (
                f"e1 3d3/2-4p1/2: gap [cm^-1] must lie in [0.001, 1e+07], got {gap}")
        info = _structure.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fields=dataset_fields(kinds=()), scale=st.integers(1, 2_000_000),
           form=st.sampled_from(["int", "-0.0"]))
    def test_each_kept_gap_is_the_datasets_own_gap_bit_for_bit(self, fields, scale, form):
        """Cold, and warm from an equal structure of the other numeric form (int energies,
        or a -0.0 ground), in either direction, every stored gap is energy_difference_au's
        float, each element on a level is walked once, and each label finds the dataset's
        own level, never the one of the dataset that stored the structure."""
        levels, *rest = fields  # each energy a float of an int below 5, one of them 0.0
        levels = [Level(label, e * scale) for label, e in levels]
        if form == "int":
            other = [Level(label, int(e)) for label, e in levels]
        else:
            other = [Level(label, e or -0.0) for label, e in levels]
        assert other == levels
        for first, second in ((None, levels), (other, levels), (levels, other)):
            _structure.cache_clear()
            if first is not None:
                Dataset(first, *rest)
            ds = Dataset(second, *rest)
            assert _structure.cache_info().hits == (first is not None)
            for level in ds.levels:
                assert ds.level(level.label) is level
                rows, position = ds._couplings[level.label]
                assert ds.levels[position] is level
                on_level = [k for k, el in enumerate(ds.elements) if level.label in el[:2]]
                assert sorted(k for k, _, _ in rows) == on_level
                for k, side, gap in rows:
                    partner = ds.elements[k][side]
                    want = energy_difference_au(ds, level.label, partner).value
                    assert gap.hex() == want.hex()

    def test_at_most_16_structures_are_kept(self):
        _structure.cache_clear()
        for i in range(17):
            Dataset(*self.fields((0.0, 50.0, 100.0 + i)))
        info = _structure.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (17, 16, 16)
        Dataset(*self.fields((0.0, 50.0, 116.0)))
        Dataset(*self.fields((0.0, 50.0, 100.0)))  # the oldest was dropped
        info = _structure.cache_info()
        assert (info.hits, info.misses) == (1, 18)


class TestEnergyDifference:
    def test_hartree_scale(self, golden):
        q = energy_difference_au(
            golden, LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")
        )
        assert q.value == pytest.approx(25191.51 / HARTREE_IN_CM, rel=0, abs=0)
        assert q.value == pytest.approx(0.1147805, abs=1e-6)
        assert q.unc == 0.0

    def test_identity_is_zero(self, golden):
        a = LevelLabel.parse("4s1/2")
        assert energy_difference_au(golden, a, a).value == 0.0

    def test_d_to_p_difference(self, golden):
        q = energy_difference_au(
            golden, LevelLabel.parse("3d5/2"), LevelLabel.parse("4p3/2")
        )
        assert q.value == pytest.approx(0.053325, abs=5e-6)

    def test_all_stored_elements_point_upward(self, golden):
        for el in golden.elements:
            assert energy_difference_au(golden, el.lower, el.upper).value > 0


class TestCouplings:
    def test_walk_yields_each_element_on_the_level_with_its_partner_and_gap(self, golden):
        """Once each, in row order, (partner j, gap, partner)."""
        for level in golden.levels:
            label = level.label
            walk = list(golden.couplings(label))
            on_label = [el for el in golden.elements if label in (el.lower, el.upper)]
            assert sorted(el for _, el, _ in walk) == sorted(on_label)
            keys = [(partner.j2, gap, partner) for partner, _, gap in walk]
            assert keys == sorted(keys)
            for partner, el, gap in walk:
                assert partner == (el.upper if el.lower == label else el.lower)
                assert gap == energy_difference_au(golden, label, partner).value


S, G9, D20 = LevelLabel.parse("4s1/2"), LevelLabel.parse("9g9/2"), LevelLabel.parse("20d5/2")
P1, TAU = LevelLabel.parse("4p1/2"), Quantity(7.0, 0.0, NANOSECOND)
UNKNOWN_LEVEL_SITES = {
    "level": (lambda ds: ds.level(G9), "9g9/2"),
    "energy_cm": (lambda ds: ds.energy_cm(G9), "9g9/2"),
    "couplings": (lambda ds: list(ds.couplings(G9)), "9g9/2"),
    "energy_difference_au-a": (lambda ds: energy_difference_au(ds, D20, S), "20d5/2"),
    "energy_difference_au-b": (lambda ds: energy_difference_au(ds, S, G9), "9g9/2"),
    "energy_difference_au-both-names-b": (lambda ds: energy_difference_au(ds, D20, G9), "9g9/2"),
    "assemble_breakdown": (lambda ds: assemble_breakdown(ds, G9, SCALAR), "9g9/2"),
    "decay_channels": (lambda ds: decay_channels(ds, G9), "9g9/2"),
    "extract_pair-upper": (lambda ds: extract_pair(ds, G9, S, TAU), "9g9/2"),
    "extract_pair-lower": (lambda ds: extract_pair(ds, P1, D20, TAU), "20d5/2"),
}


@pytest.mark.parametrize("site", UNKNOWN_LEVEL_SITES)
def test_every_lookup_site_refuses_an_unknown_level_with_its_label(golden, site):
    """The label index is the one refusal: each site raises UnknownLevelError(label text)."""
    call, text = UNKNOWN_LEVEL_SITES[site]
    with pytest.raises(UnknownLevelError) as info:
        call(golden)
    assert type(info.value) is UnknownLevelError
    assert info.value.args == (text,)


PACKAGED_LINES = builtin_dataset_text().splitlines()
EDGE_TOKENS = [
    "nan", "inf", "1e400", "-1e-3", "2_9", "\u0663", "\uff11", "0", "-0.0", "1e-320",
    "4s1/2", "\u0664s1/2", "9g9/2", "#", "scalar", "tensor", "level", "e1", "core", "tail",
]


@st.composite
def dataset_texts(draw):
    """The packaged dataset with a few lines dropped, edited or inserted."""
    lines = list(PACKAGED_LINES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "edit", "insert"]))
        if action == "insert" or i == len(lines):
            junk = st.text(max_size=30) | st.lists(st.sampled_from(EDGE_TOKENS), max_size=6).map(" ".join)
            lines.insert(i, draw(st.sampled_from(PACKAGED_LINES) | junk))
        elif action == "drop":
            del lines[i]
        elif fields := lines[i].split():
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.sampled_from(EDGE_TOKENS) | st.text(max_size=8))
            lines[i] = " ".join(fields)
    return "\n".join(lines)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(text=dataset_texts())
    def test_parse_roundtrips_or_raises_dataset_error(self, text):
        try:
            fresh = parse_dataset.__wrapped__(text)
        except DatasetError as exc:
            for _ in range(2):  # refused at every call, as the unmemoized parse refuses it
                with pytest.raises(DatasetError) as err:
                    parse_dataset(text)
                assert str(err.value) == str(exc)
            return
        ds = parse_dataset(text)
        assert ds == fresh and parse_dataset(text) is ds
        assert parse_dataset(ds.to_text()) == ds
