import copy
import math
import pickle
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import polkit.polarizability as pol
from polkit import (
    A0_CUBED,
    E_A0,
    HARTREE_IN_CM,
    SCALAR,
    TENSOR,
    Contribution,
    Dataset,
    DatasetError,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    UnknownLevelError,
    assemble_breakdown,
    builtin_dataset_text,
    energy_difference_au,
    parse_dataset,
    tensor_prefactor_C,
    wigner6j,
)
from polkit.cli import main
from polkit.dataset import MAX_D
from polkit.report import polarizability_report
from test_dataset import dataset_fields

lab = LevelLabel.parse


def d_q(value, unc=0.0):
    return Quantity(value, unc, E_A0)


# Every (level, multipole) of the packaged dataset that assembles, so every row kind.
CHAINED_SUM_CASES = tuple(
    (str(level.label), multipole)
    for level in parse_dataset(builtin_dataset_text()).levels
    for multipole in (SCALAR, TENSOR)
    if multipole == SCALAR or level.label.j2 >= 2
)


def assert_total_is_chained_sum(ds, state, multipole):
    """The total is value += and hypot over the row, tail and core Quantities, in that order."""
    b = assemble_breakdown(ds, state, multipole)
    value = unc = 0.0
    for part in [c.quantity(multipole) for c in b.main] + [b.tail, b.core]:
        value += part.value
        unc = math.hypot(unc, part.unc)
    assert b.total == Quantity(value, unc, A0_CUBED)


class TestAssembleBreakdown:
    def test_row_ordering_follows_jk_then_energy(self, golden):
        b = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
        partners = [str(c.partner) for c in b.main]
        assert partners[:3] == ["4p3/2", "5p3/2", "6p3/2"]
        assert partners[3:12] == [f"{n}f5/2" for n in range(4, 13)]
        assert partners[12:] == [f"{n}f7/2" for n in range(4, 13)]

    def test_totals_are_quadrature_sums(self, golden):
        for state, multipole in (
            ("4s1/2", SCALAR),
            ("3d5/2", SCALAR),
            ("3d5/2", TENSOR),
        ):
            b = assemble_breakdown(golden, lab(state), multipole)
            parts = [c.quantity(multipole) for c in b.main] + [b.tail, b.core]
            total = sum(p.value for p in parts)
            var = sum(p.unc**2 for p in parts)
            assert b.total.value == pytest.approx(total, rel=1e-12)
            assert b.total.unc**2 == pytest.approx(var, rel=1e-12)

    def test_total_is_the_chained_quantity_sum(self, golden):
        for state, multipole in CHAINED_SUM_CASES:
            assert_total_is_chained_sum(golden, lab(state), multipole)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_total_is_the_chained_quantity_sum_for_drawn_e1(self, golden, data):
        """The float sum keeps the row, tail, core order for any E1 values."""
        elements = []
        for el in golden.elements:
            value = data.draw(st.floats(1e-3, 50.0), label=f"{el.lower}-{el.upper}")
            unc = data.draw(st.floats(0.0, 2.0 * value), label="unc")
            elements.append(ReducedE1(el.lower, el.upper, d_q(value, unc)))
        ds = Dataset(golden.levels, elements, golden.core_alpha, golden.tails)
        for state, multipole in CHAINED_SUM_CASES:
            assert_total_is_chained_sum(ds, lab(state), multipole)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fields=dataset_fields(kinds=()), data=st.data())
    def test_total_is_the_chained_quantity_sum_for_drawn_datasets(self, fields, data):
        """The float sum keeps the row, tail, core order on drawn levels, pairs and E1
        values too, for every level and multipole that assembles."""
        levels, pairs, core, tails = fields
        elements = []
        for el in pairs:
            value = data.draw(st.floats(1e-3, 50.0), label=f"{el.lower}-{el.upper}")
            unc = data.draw(st.floats(0.0, 2.0 * value), label="unc")
            elements.append(el._replace(d=d_q(value, unc)))
        ds = Dataset(levels, elements, core, tails)
        for level in ds.levels:
            for multipole in (SCALAR, TENSOR):
                if multipole == SCALAR or level.label.j2 >= 2:
                    assert_total_is_chained_sum(ds, level.label, multipole)

    def test_core_enters_scalar_only(self, golden):
        scalar = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
        tensor = assemble_breakdown(golden, lab("3d5/2"), TENSOR)
        assert scalar.core == golden.core_alpha
        assert tensor.core == Quantity(0.0, 0.0, A0_CUBED)

    def test_tensor_to_scalar_ratio_constant_within_jk_blocks(self, golden):
        b = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
        ratios = {}
        for c in b.main:
            ratios.setdefault(c.partner.j2, []).append(c.alpha2 / c.alpha0)
        for j2, values in ratios.items():
            for v in values:
                assert v == pytest.approx(values[0], rel=1e-12)
        # exact block ratios fixed by the angular factors alone
        assert ratios[3][0] == pytest.approx(-1.0, rel=1e-12)
        assert ratios[5][0] == pytest.approx(8.0 / 7.0, rel=1e-12)
        assert ratios[7][0] == pytest.approx(-5.0 / 14.0, rel=1e-12)

    def test_rows_keep_the_operation_order(self, golden):
        row = assemble_breakdown(golden, lab("3d5/2"), TENSOR).main[0]
        assert str(row.partner) == "4p3/2"
        d = row.d.value
        de = energy_difference_au(golden, lab("3d5/2"), lab("4p3/2")).value
        assert row.alpha0 == 2.0 / (3.0 * 6) * d**2 / de
        sixj = wigner6j(5, 2, 3, 2, 5, 4)
        assert row.alpha2 == -4.0 * tensor_prefactor_C(5) * -1 * sixj * d**2 / de

    def test_row_quantity_carries_twice_the_relative_d_uncertainty(self, golden):
        row = assemble_breakdown(golden, lab("3d5/2"), TENSOR).main[0]
        rel = row.d.unc / row.d.value
        assert row.quantity(SCALAR) == Quantity(row.alpha0, 2.0 * abs(row.alpha0) * rel, A0_CUBED)
        assert row.quantity(TENSOR) == Quantity(row.alpha2, 2.0 * abs(row.alpha2) * rel, A0_CUBED)
        s_row = assemble_breakdown(golden, lab("4s1/2"), SCALAR).main[0]
        with pytest.raises(ValueError, match="no tensor contribution for 4s1/2-4p1/2"):
            s_row.quantity(TENSOR)

    @pytest.mark.parametrize("multipole", ["bogus", "Tensor", "", "scalar ", None, ["scalar"]])
    def test_row_quantity_refuses_a_bad_multipole_as_assembly_does(self, golden, multipole):
        row = assemble_breakdown(golden, lab("3d5/2"), TENSOR).main[0]
        message = f"bad multipole {multipole!r}"
        with pytest.raises(ValueError) as assembly:
            assemble_breakdown(golden, lab("3d5/2"), multipole)
        assert str(assembly.value) == message
        with pytest.raises(ValueError) as err:
            row.quantity(multipole)
        assert str(err.value) == message

    def test_bad_multipole_is_refused_for_a_state_with_no_rows(self, golden):
        """With no e1 line on 5s1/2, no row's term looks at the multipole: only the
        up-front check refuses it, where the sum would be 0(0)."""
        levels = (Level(lab("4s1/2"), 0.0), Level(lab("5s1/2"), 52166.93))
        ds = Dataset(levels, (), golden.core_alpha, {})
        assert assemble_breakdown(ds, lab("5s1/2"), SCALAR).main == ()
        with pytest.raises(ValueError) as info:
            assemble_breakdown(ds, lab("5s1/2"), "vector")
        assert str(info.value) == "bad multipole 'vector'"

    def test_downward_rows_are_negative(self, golden):
        rows = {str(c.partner): c for c in assemble_breakdown(golden, lab("4p1/2"), SCALAR).main}
        assert rows["4s1/2"].alpha0 < 0
        assert rows["3d3/2"].alpha0 < 0
        assert all(c.alpha2 is None for c in rows.values())  # no tensor part for j = 1/2

    def test_tensor_for_s_state_raises(self, golden):
        with pytest.raises(ValueError, match=r"^tensor polarizability vanishes for j=1/2$"):
            assemble_breakdown(golden, lab("4s1/2"), TENSOR)

    def test_uncertainty_linearity(self, golden):
        """Doubling every matrix-element uncertainty doubles the total's."""
        stripped = Dataset(
            golden.levels,
            golden.elements,
            Quantity(golden.core_alpha.value, 0.0, A0_CUBED),
            {},
        )
        doubled = Dataset(
            golden.levels,
            tuple(
                ReducedE1(el.lower, el.upper, Quantity(el.d.value, 2 * el.d.unc, E_A0))
                for el in golden.elements
            ),
            Quantity(golden.core_alpha.value, 0.0, A0_CUBED),
            {},
        )
        u1 = assemble_breakdown(stripped, lab("3d5/2"), SCALAR).total.unc
        u2 = assemble_breakdown(doubled, lab("3d5/2"), SCALAR).total.unc
        assert u2 == pytest.approx(2.0 * u1, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d_new=st.floats(0.01, 5.0), energy=st.floats(30000.0, 90000.0))
    def test_monotone_under_added_upward_element(self, golden, d_new, energy):
        """A new positive-energy channel never lowers the scalar total."""
        base = assemble_breakdown(golden, lab("4s1/2"), SCALAR).total.value
        extra_level = Level(lab("7p1/2"), energy)
        extra_el = ReducedE1(lab("4s1/2"), lab("7p1/2"), d_q(d_new, 0.0))
        grown = Dataset(
            golden.levels + (extra_level,),
            golden.elements + (extra_el,),
            golden.core_alpha,
            golden.tails,
        )
        assert assemble_breakdown(grown, lab("4s1/2"), SCALAR).total.value >= base


class TestOverflowIsRefusedAtTheGates:
    """No sum overflows: ReducedE1 refuses a d outside the input box, and Dataset refuses
    levels closer than MIN_GAP_CM and a tail beyond MAX_ALPHA, where a sum once did."""

    @pytest.mark.parametrize(
        "d, message",
        [
            (d_q(7e153, 7e153), "d [e*a0] must lie in [1e-06, 10000], got 7e+153"),
            (d_q(7e153), "d [e*a0] must lie in [1e-06, 10000], got 7e+153"),
            (d_q(1.0, 1e308),
             "d uncertainty [e*a0] must lie in [0, 10000], got 1e+308"),
        ],
        ids=["term-and-its-uncertainty", "term-above-half-the-largest-float", "uncertainty"],
    )
    def test_element_whose_term_overflowed_is_refused_at_the_gate(self, d, message):
        """A d of 7e153 gave |alpha| ~ 1.4e308 at the 4p1/2 gap; ReducedE1 now refuses it."""
        with pytest.raises(ValueError) as info:
            ReducedE1(lab("4s1/2"), lab("4p1/2"), d)
        assert str(info.value) == message

    @staticmethod
    def gap_cm(share, angular=3.0):
        """The gap at which d = MAX_D gives |alpha0| = d^2 / (angular gap) that share of the
        largest float: angular is 3 for j = 1/2 and 9 for j = 5/2."""
        return MAX_D * MAX_D / angular / share / sys.float_info.max * HARTREE_IN_CM

    @pytest.mark.parametrize(
        "state, uppers, tail",
        [
            # 3d5/2-4f5/2 at |alpha0| = 0.445 max: a finite scalar term, an inf tensor sigma
            ("3d5/2", [("4f5/2", gap_cm(0.445, 9.0))], None),
            # a gap of 1e-300 cm^-1 made the term itself inf
            ("4s1/2", [("4p1/2", 1e-300)], None),
            # two rows whose uncertainties overflowed in quadrature, three whose values
            # overflowed in the last addition, and a tail that overflowed the sum
            ("4s1/2", [("4p1/2", gap_cm(0.4)), ("4p3/2", gap_cm(0.4))], None),
            ("4s1/2", [("4p1/2", gap_cm(0.4)), ("5p1/2", gap_cm(0.4)), ("4p3/2", gap_cm(0.4))],
             None),
            ("4s1/2", [("4p1/2", gap_cm(0.4))], 0.9 * sys.float_info.max),
        ],
        ids=["tensor-uncertainty", "term", "uncertainty-sum", "value-sum", "tail"],
    )
    def test_dataset_whose_sum_overflowed_is_refused_at_construction(self, golden, state,
                                                                     uppers, tail):
        levels, elements, expected = [Level(lab(state), 0.0)], [], []
        for upper, gap_cm in uppers:
            levels.append(Level(lab(upper), gap_cm))
            elements.append(ReducedE1(lab(state), lab(upper), d_q(MAX_D, MAX_D)))
            expected.append(
                f"e1 {state}-{upper}: gap [cm^-1] must lie in [0.001, 1e+07], got {gap_cm!r}"
            )
        tails = {}
        if tail is not None:
            tails[lab(state), SCALAR] = Quantity(tail, 0.0, A0_CUBED)
            expected.append(f"tail {state} scalar [a0^3] must lie in [-1e+06, 1e+06], "
                            f"got {tail!r}")
        with pytest.raises(DatasetError) as info:
            Dataset(levels, elements, golden.core_alpha, tails)
        assert str(info.value) == "; ".join(expected)


def reference_rows(ds, state):
    """`state`'s rows as the sum over states defines them, from Dataset.couplings alone,
    which walks them in row order, (partner j, gap, partner): each term an angular factor
    times d^2/gap."""
    j2_v = state.j2
    scalar = 2.0 / (3.0 * (j2_v + 1))
    rows = []
    couplings = list(ds.couplings(state))
    keys = [(partner.j2, de, partner) for partner, _, de in couplings]
    assert keys == sorted(keys)
    for partner, el, de in couplings:
        d2 = el.d.value**2
        alpha2 = None
        if j2_v >= 2:
            phase = (-1) ** ((j2_v + partner.j2) // 2 + 1)
            sixj = wigner6j(j2_v, 2, partner.j2, 2, j2_v, 4)
            alpha2 = -4.0 * tensor_prefactor_C(j2_v) * phase * sixj * d2 / de
        rows.append(Contribution(state, partner, el.d, scalar * d2 / de, alpha2))
    return tuple(rows)


class TestRowBuild:
    """The rows of a state, float for float and in order."""

    # No shrink phase: a failing draw already shows its rows' repr, and shrinking 56 draws
    # takes minutes.
    @settings(max_examples=25, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(data=st.data())
    def test_rows_are_the_reference_rows_bit_for_bit(self, golden, data):
        """Drawn E1 values and distinct level energies on the golden levels, the lowest at 0
        and each element's pair in the drawn energy order: every row of every state is the
        reference's, compared by repr, so -0.0 and every last bit count."""
        n = len(golden.levels)
        quarters = data.draw(st.lists(st.integers(0, 400_000), min_size=n, max_size=n,
                                      unique=True), label="energies in quarter cm^-1")
        lowest = min(quarters)
        levels = [Level(level.label, (q - lowest) / 4.0)
                  for level, q in zip(golden.levels, quarters)]
        energy = dict(levels)
        elements = [
            ReducedE1(*sorted((el.lower, el.upper), key=energy.get), d_q(value, 0.01 * value))
            for el, value in zip(golden.elements, data.draw(
                st.lists(st.floats(1e-3, 50.0), min_size=len(golden.elements),
                         max_size=len(golden.elements)), label="d"))
        ]
        ds = Dataset(levels, elements, golden.core_alpha, golden.tails)
        for level in levels:
            rows = pol._main_rows(ds, level.label)[0]
            assert all(type(row) is Contribution for row in rows)
            assert repr(rows) == repr(reference_rows(ds, level.label))

    def test_equal_j_and_energy_partners_come_in_label_order(self, tmp_path, capsys):
        """5p3/2 and 4p3/2 share an energy, which a parsed dataset accepts; their rows
        follow the labels, not the file's element order."""
        text = (
            "level 4s1/2 0\nlevel 3d5/2 13710.88\nlevel 5p3/2 25414.40\nlevel 4p3/2 25414.40\n"
            "e1 3d5/2 5p3/2 0.5 0.01\ne1 3d5/2 4p3/2 3.3 0.03\ncore 3.25 0.17\n"
        )
        rows = assemble_breakdown(parse_dataset(text), lab("3d5/2"), SCALAR).main
        assert [str(row.partner) for row in rows] == ["4p3/2", "5p3/2"]
        path = tmp_path / "tie.dat"
        path.write_text(text, encoding="utf-8")
        assert main(["polarizability", "--state", "3d5/2", "--dataset", str(path)]) == 0
        table = capsys.readouterr().out
        assert table.index("3d5/2-4p3/2") < table.index("3d5/2-5p3/2")


class TestRowMemo:
    """A dataset builds each state's rows once; its scalar and tensor sums share them."""

    def test_scalar_and_tensor_share_the_rows(self, golden_text):
        ds = parse_dataset(golden_text)
        scalar = assemble_breakdown(ds, lab("3d5/2"), SCALAR)
        tensor = assemble_breakdown(ds, lab("3d5/2"), TENSOR)
        assert tensor.main is scalar.main and len(scalar.main) == 21

    def test_one_row_build_for_both_multipoles(self, golden_text, monkeypatch):
        ds = copy.copy(parse_dataset(golden_text))  # cold: the shared dataset may hold rows
        builds = []
        main_rows = pol._main_rows

        def counted(ds, label):
            builds.append(label)
            return main_rows(ds, label)

        monkeypatch.setattr(pol, "_main_rows", counted)
        for multipole in (SCALAR, TENSOR):
            assemble_breakdown(ds, lab("3d5/2"), multipole)
        assert builds == [lab("3d5/2")]

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda ds: pickle.loads(pickle.dumps(ds))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_of_a_warm_dataset_is_equal_and_starts_cold(self, golden_text, clone):
        ds = parse_dataset(golden_text)
        warm = assemble_breakdown(ds, lab("3d5/2"), SCALAR)
        other = clone(ds)
        assert other == ds and repr(other) == repr(ds)
        assert other._rows == {}
        again = assemble_breakdown(other, lab("3d5/2"), SCALAR)
        assert again == warm and again.main is not warm.main


class TestReportRowMemo:
    """A dataset builds each state's report rows once; every report gets new row dicts."""

    def test_two_reports_are_equal_and_a_mutated_row_reaches_neither(self, golden_text):
        ds = copy.copy(parse_dataset(golden_text))  # cold: the shared dataset may hold rows
        first = polarizability_report(ds, "x.dat", lab("3d5/2"), TENSOR)
        second = polarizability_report(ds, "x.dat", lab("3d5/2"), TENSOR)
        assert first == second and first.rows[0] is not second.rows[0]
        kept = repr(second)
        first.rows[0]["alpha2"] = Quantity(0.0, 0.0, A0_CUBED)
        first.rows[1].clear()
        third = polarizability_report(ds, "x.dat", lab("3d5/2"), TENSOR)
        assert third == second and third != first and repr(second) == kept
        assert list(third.rows[0]) == ["transition", "d", "alpha0", "alpha2"]

    def test_scalar_and_tensor_reports_build_the_row_parts_once(self, golden_text, monkeypatch):
        ds = copy.copy(parse_dataset(golden_text))
        built = []
        quantity = Contribution.quantity

        def spy(contrib, multipole):
            built.append(multipole)
            return quantity(contrib, multipole)

        monkeypatch.setattr(Contribution, "quantity", spy)
        scalar = polarizability_report(ds, "x.dat", lab("3d5/2"), SCALAR)
        tensor = polarizability_report(ds, "x.dat", lab("3d5/2"), TENSOR)
        assert built == [SCALAR, TENSOR] * 21
        assert scalar.rows == tensor.rows and scalar.totals != tensor.totals
        polarizability_report(ds, "x.dat", lab("3d5/2"), SCALAR)
        assert len(built) == 42
        assert set(ds._report_rows) == {lab("3d5/2")}

    def test_every_report_still_checks_its_state_and_multipole(self, golden_text):
        ds = copy.copy(parse_dataset(golden_text))
        polarizability_report(ds, "x.dat", lab("4s1/2"), SCALAR)
        with pytest.raises(ValueError, match="tensor polarizability vanishes"):
            polarizability_report(ds, "x.dat", lab("4s1/2"), TENSOR)
        with pytest.raises(ValueError, match="bad multipole 'vector'"):
            polarizability_report(ds, "x.dat", lab("4s1/2"), "vector")
        with pytest.raises(UnknownLevelError):
            polarizability_report(ds, "x.dat", lab("5d5/2"), SCALAR)

    def test_a_rewritten_text_gets_rows_from_its_own_values(self, golden_text):
        before = polarizability_report(parse_dataset(golden_text), "x.dat", lab("4s1/2"), SCALAR)
        text = golden_text.replace("e1 4s1/2 4p1/2 2.8982", "e1 4s1/2 4p1/2 2.9982")
        after = polarizability_report(parse_dataset(text), "x.dat", lab("4s1/2"), SCALAR)
        assert before.rows[0]["transition"] == after.rows[0]["transition"] == "4s1/2-4p1/2"
        assert (before.rows[0]["d"].value, after.rows[0]["d"].value) == (2.8982, 2.9982)
        assert after.rows[0]["alpha0"].value > before.rows[0]["alpha0"].value
        uncached = parse_dataset.__wrapped__(text)
        assert after == polarizability_report(uncached, "x.dat", lab("4s1/2"), SCALAR)

    def test_a_dataset_that_builds_no_report_holds_no_report_rows(self, golden_text):
        ds = copy.copy(parse_dataset(golden_text))
        assemble_breakdown(ds, lab("3d5/2"), TENSOR)  # as a Monte-Carlo draw does
        assert not hasattr(ds, "_report_rows")
        polarizability_report(ds, "x.dat", lab("3d5/2"), TENSOR)
        assert not hasattr(copy.copy(ds), "_report_rows")  # a copy starts cold


def test_tensor_angular_calls_the_module_level_kernels(golden_text, monkeypatch):
    """The 6j and prefactor names stay patchable on polkit.polarizability."""
    ds = copy.copy(parse_dataset(golden_text))  # cold: a warm dataset would not rebuild its rows
    called = []

    def counted(name, kernel):
        def wrapper(*args):
            called.append(name)
            return kernel(*args)
        return wrapper

    for name in ("wigner6j", "tensor_prefactor_C"):
        monkeypatch.setattr(pol, name, counted(name, getattr(pol, name)))
    pol._tensor_angular.cache_clear()
    try:
        b = assemble_breakdown(ds, lab("3d5/2"), TENSOR)
    finally:
        pol._tensor_angular.cache_clear()
    assert set(called) == {"wigner6j", "tensor_prefactor_C"}
    assert b == assemble_breakdown(parse_dataset(golden_text), lab("3d5/2"), TENSOR)
