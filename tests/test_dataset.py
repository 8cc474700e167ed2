import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    E_A0,
    HARTREE_IN_CM,
    HERTZ,
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
    au_to_si,
    builtin_dataset_text,
    clock_bbr_shift,
    einstein_A,
    energy_difference_au,
    extract_matrix_element,
    parse_dataset,
    validate,
)
from polkit.dataset import _NUMBER_RE, parse_number, require_unit

MINIMAL = """\
# tiny two-level system
level 4s1/2 0.0
level 4p1/2 25191.51
e1 4s1/2 4p1/2 2.898 0.029
core 3.25 0.17
"""


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
        "bad", ["9z9/2", "4p5/2", "4s3/2", "p3/2", "4p3", "4p2/2", "0s1/2", "\u0664s1/2", "4s1/2\n"]
    )
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(DatasetError):
            LevelLabel.parse(bad)

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


class TestLevel:
    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(ValueError, match="non-finite level energy"):
            Level(LevelLabel.parse("4p1/2"), energy)

    def test_any_negative_energy_rejected_and_zero_accepted(self):
        with pytest.raises(ValueError, match="^negative level energy: -5e-324$"):
            Level(LevelLabel.parse("4p1/2"), -5e-324)
        assert Level(LevelLabel.parse("4s1/2"), 0.0).energy_cm == 0.0


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


S_HALF, P_HALF = LevelLabel.parse("4s1/2"), LevelLabel.parse("4p1/2")


class TestRequireUnit:
    def test_matching_unit_passes(self):
        require_unit(Quantity(1.0, 0.0, A0_CUBED), A0_CUBED, "polarizability")

    @pytest.mark.parametrize(
        "call,what,unit",
        [
            (lambda q: ReducedE1(S_HALF, P_HALF, q), "matrix element", E_A0),
            (lambda q: DecayChannel(P_HALF, S_HALF, q), "rate", "MHz"),
            (lambda q: einstein_A(q, 0.1, 1), "matrix element", E_A0),
            (lambda q: extract_matrix_element(q, [], 0.1, 1), "lifetime", "ns"),
            (au_to_si, "polarizability", A0_CUBED),
            (lambda q: clock_bbr_shift(q, q, BBRConditions()), "ground polarizability", A0_CUBED),
            (
                lambda q: clock_bbr_shift(Quantity(1.0, 0.1, A0_CUBED), q, BBRConditions()),
                "excited polarizability",
                A0_CUBED,
            ),
        ],
    )
    def test_every_site_names_quantity_and_units(self, call, what, unit):
        message = f"{what} must be in {unit!r}, got 'Hz'"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(Quantity(1.0, 0.0, HERTZ))

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
        st.from_regex(_NUMBER_RE, fullmatch=True)
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
        value = float(token) if _NUMBER_RE.fullmatch(token) else None
        if value is not None and math.isfinite(value):
            assert parse_number(token, "energy").hex() == value.hex()
            return
        kind = "bad" if value is None else "non-finite"
        with pytest.raises(DatasetError) as err:
            parse_number(token, "energy")
        assert str(err.value) == f"{kind} energy {token!r}"


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
            ("e1 4s1/2 4p1/2 0.0 0.1", "positive"),
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
        LevelLabel.parse.cache_clear()
        ds = parse_dataset(golden_text)
        parsed = self._labels(ds)
        assert len(parsed) == 88
        assert LevelLabel.parse.cache_info().misses == len({str(lab) for lab in parsed}) == 27
        parse_dataset(golden_text)
        assert LevelLabel.parse.cache_info().misses == 27  # the second parse misses 0 times
        for lab in parsed:
            fresh = LevelLabel(lab.n, lab.l, lab.j2)
            assert type(lab) is LevelLabel and lab == fresh and hash(lab) == hash(fresh)

    def test_two_parses_share_their_labels(self, golden_text):
        first, second = parse_dataset(golden_text), parse_dataset(golden_text)
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


class TestValidate:
    def test_golden_is_clean(self, golden):
        assert validate(golden) == []

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
        ds = Dataset(self._levels(), (bad,), Quantity(3.25, 0.17, A0_CUBED), {})
        violations = validate(ds)
        assert len(violations) == 1 and "selection" in violations[0]

    def test_unknown_level_reported(self):
        bad = ReducedE1(
            LevelLabel.parse("4p1/2"),
            LevelLabel.parse("7p1/2"),
            Quantity(1.0, 0.0, E_A0),
        )
        ds = Dataset(self._levels(), (bad,), Quantity(3.25, 0.17, A0_CUBED), {})
        violations = validate(ds)
        assert len(violations) == 1 and "unknown level 7p1/2" in violations[0]

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
        ds = Dataset(levels, (bad,), Quantity(3.25, 0.17, A0_CUBED), {})
        assert f"e1 {lower}-{upper}: lower level is not energetically lower" in validate(ds)

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
            "e1 4p1/2-4s1/2: lower level is not energetically lower",
            "e1 4s1/2-4p1/2: duplicate matrix element for this pair",
            "e1 4s1/2-3d3/2: violates E1 selection rules",
            "e1 4p1/2-3d3/2: lower level is not energetically lower",
            "e1 4p1/2-3d3/2: duplicate matrix element for this pair",
        ]

    @pytest.mark.parametrize("core", [-1.0, 0.0])
    def test_nonpositive_core_reported(self, core):
        ds = Dataset(self._levels(), (), Quantity(core, 0.17, A0_CUBED), {})
        assert validate(ds) == ["core polarizability must be positive"]

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
        ds = Dataset(levels, elements, Quantity(-1.0, 0.17, HERTZ), tails)
        assert validate(ds) == [
            "duplicate level 4p1/2",
            "no ground level with energy 0",
            "e1 4s1/2-5p1/2: unknown level 5p1/2",
            "e1 4s1/2-3d3/2: violates E1 selection rules",
            "e1 4p1/2-4s1/2: lower level is not energetically lower",
            "e1 4s1/2-4p1/2: duplicate matrix element for this pair",
            "e1 3d3/2-4p1/2: lower level is not energetically lower",
            "core polarizability must be positive",
            "core polarizability must be in 'a0^3'",
            "tail 5p1/2 scalar: unknown level 5p1/2",
            "tail 5p1/2 vector: unknown level 5p1/2",
            "tail 5p1/2: bad multipole 'vector'",
            "tail 4p1/2 scalar: must be in 'a0^3'",
        ]


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

    def test_unknown_label_raises(self, golden):
        with pytest.raises(UnknownLevelError):
            energy_difference_au(
                golden, LevelLabel.parse("4s1/2"), LevelLabel.parse("9g9/2")
            )

    def test_all_stored_elements_point_upward(self, golden):
        for el in golden.elements:
            assert energy_difference_au(golden, el.lower, el.upper).value > 0


class TestCouplings:
    def test_walk_yields_each_element_on_the_level_with_its_partner_and_gap(self, golden):
        for level in golden.levels:
            label = level.label
            walk = list(golden.couplings(label))
            on_label = [el for el in golden.elements if label in (el.lower, el.upper)]
            assert [el for _, el, _ in walk] == on_label
            for partner, el, gap in walk:
                assert partner == (el.upper if el.lower == label else el.lower)
                assert gap == energy_difference_au(golden, label, partner).value

    def test_unknown_label_raises(self, golden):
        with pytest.raises(UnknownLevelError):
            list(golden.couplings(LevelLabel.parse("9g9/2")))


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
            ds = parse_dataset(text)
        except DatasetError:
            return
        assert parse_dataset(ds.to_text()) == ds
