import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polkit.polarizability as pol
from polkit import (
    A0_CUBED,
    E_A0,
    HERTZ,
    SCALAR,
    TENSOR,
    Dataset,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    UnitMismatchError,
    UnknownLevelError,
    assemble_breakdown,
    energy_difference_au,
    tensor_prefactor_C,
    wigner6j,
)

lab = LevelLabel.parse


def d_q(value, unc=0.0):
    return Quantity(value, unc, E_A0)


CHAINED_SUM_CASES = (("4s1/2", SCALAR), ("3d5/2", SCALAR), ("3d5/2", TENSOR))


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

    @pytest.mark.parametrize("multipole", ["bogus", "Tensor", "", "scalar "])
    def test_row_quantity_refuses_a_bad_multipole_as_assembly_does(self, golden, multipole):
        row = assemble_breakdown(golden, lab("3d5/2"), TENSOR).main[0]
        message = f"bad multipole {multipole!r}"
        with pytest.raises(ValueError) as assembly:
            assemble_breakdown(golden, lab("3d5/2"), multipole)
        assert str(assembly.value) == message
        with pytest.raises(ValueError) as err:
            row.quantity(multipole)
        assert str(err.value) == message

    def test_downward_rows_are_negative(self, golden):
        rows = {str(c.partner): c for c in assemble_breakdown(golden, lab("4p1/2"), SCALAR).main}
        assert rows["4s1/2"].alpha0 < 0
        assert rows["3d3/2"].alpha0 < 0
        assert all(c.alpha2 is None for c in rows.values())  # no tensor part for j = 1/2

    def test_zero_energy_denominator_raises(self, golden):
        levels = (Level(lab("4s1/2"), 0.0), Level(lab("4p1/2"), 0.0))
        element = ReducedE1(lab("4s1/2"), lab("4p1/2"), d_q(2.898, 0.029))
        ds = Dataset(levels, (element,), golden.core_alpha, {})
        with pytest.raises(ZeroDivisionError, match="zero energy denominator"):
            assemble_breakdown(ds, lab("4s1/2"), SCALAR)

    def test_unknown_state_raises(self, golden):
        with pytest.raises(UnknownLevelError):
            assemble_breakdown(golden, lab("9g9/2"), SCALAR)

    def test_tensor_for_s_state_raises(self, golden):
        with pytest.raises(ValueError):
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


class TestConstructorBuiltSums:
    """Datasets built by constructors skip validate; the sum still refuses bad input."""

    @staticmethod
    def _dataset(golden, rows, tail=None):
        """4s1/2 coupled to each (upper, alpha0 as a share of the largest float, relative
        d uncertainty) in `rows`, with `tail` as its scalar tail."""
        ground = lab("4s1/2")
        levels = [Level(ground, 0.0)]
        elements = []
        for upper, share, rel in rows:
            upper = lab(upper)
            levels.append(Level(upper, golden.energy_cm(upper)))
            de = energy_difference_au(golden, ground, upper).value
            d = math.sqrt(share * sys.float_info.max * de * 3.0)
            elements.append(ReducedE1(ground, upper, d_q(d, rel * d)))
        tails = {} if tail is None else {(ground, SCALAR): tail}
        return Dataset(levels, elements, golden.core_alpha, tails)

    @pytest.mark.parametrize("field", ["tail", "core"])
    def test_addend_in_wrong_unit_raises(self, golden, field):
        bad = Quantity(1.0, 0.1, HERTZ)
        tails = {(lab("4s1/2"), SCALAR): bad} if field == "tail" else {}
        core = bad if field == "core" else golden.core_alpha
        ds = Dataset(golden.levels, golden.elements, core, tails)
        with pytest.raises(UnitMismatchError) as info:
            assemble_breakdown(ds, lab("4s1/2"), SCALAR)
        assert str(info.value) == "addend must be in 'a0^3', got 'Hz'"

    def test_row_that_overflows_raises(self, golden):
        """At d = 7e153 (|alpha| ~ 1.4e308) with dd/d = 1, the row's 2|alpha| dd/d is inf."""
        ground = lab("4s1/2")
        uppers = (lab("4p1/2"), lab("4p3/2"))
        levels = [Level(ground, 0.0)] + [Level(u, golden.energy_cm(u)) for u in uppers]
        elements = [ReducedE1(ground, u, d_q(7e153, 7e153)) for u in uppers]
        ds = Dataset(levels, elements, golden.core_alpha, {})
        with pytest.raises(ValueError) as info:
            assemble_breakdown(ds, ground, SCALAR)
        assert str(info.value) == "non-finite uncertainty: inf a0^3"

    @pytest.mark.parametrize("rel", [0.0, 0.1])
    def test_row_above_half_the_largest_float_keeps_its_uncertainty(self, golden, rel):
        """|alpha| ~ 1.4e308: 2 |alpha| overflows, 2 |alpha| dd/d does not."""
        ground, upper = lab("4s1/2"), lab("4p1/2")
        levels = (Level(ground, 0.0), Level(upper, golden.energy_cm(upper)))
        element = ReducedE1(ground, upper, d_q(7e153, rel * 7e153))
        ds = Dataset(levels, (element,), golden.core_alpha, {})
        b = assemble_breakdown(ds, ground, SCALAR)
        row = b.main[0].quantity(SCALAR)
        assert row.value > sys.float_info.max / 2
        assert row.unc == row.value * rel * 2.0
        assert b.total == Quantity(row.value + golden.core_alpha.value,
                                   math.hypot(row.unc, golden.core_alpha.unc), A0_CUBED)

    @pytest.mark.parametrize(
        "rows, tail, message",
        [
            # two rows whose uncertainties overflow in quadrature
            ([("4p1/2", 0.4, 1.0), ("4p3/2", 0.4, 1.0)], None, "non-finite uncertainty: inf a0^3"),
            # three rows whose values overflow in the last addition
            (
                [("4p1/2", 0.4, 0.0), ("5p1/2", 0.4, 0.0), ("4p3/2", 0.4, 0.0)],
                None,
                "non-finite value: inf a0^3",
            ),
            # the uncertainty overflows first (rows 1-2), the value later (row 3)
            (
                [("4p1/2", 0.4, 1.0), ("5p1/2", 0.4, 1.0), ("4p3/2", 0.4, 0.0)],
                None,
                "non-finite uncertainty: inf a0^3",
            ),
            # the rows overflow before the tail's unit is checked
            (
                [("4p1/2", 0.4, 0.0), ("5p1/2", 0.4, 0.0), ("4p3/2", 0.4, 0.0)],
                Quantity(1.0, 0.1, HERTZ),
                "non-finite value: inf a0^3",
            ),
            # a finite tail overflows the sum of the rows
            (
                [("4p1/2", 0.4, 0.0)],
                Quantity(0.9 * sys.float_info.max, 0.0, A0_CUBED),
                "non-finite value: inf a0^3",
            ),
        ],
    )
    def test_sum_of_finite_addends_that_overflows_raises(self, golden, rows, tail, message):
        for row in rows:  # each row alone sums to a finite total
            assemble_breakdown(self._dataset(golden, [row]), lab("4s1/2"), SCALAR)
        with pytest.raises(ValueError) as info:
            assemble_breakdown(self._dataset(golden, rows, tail), lab("4s1/2"), SCALAR)
        assert str(info.value) == message


def test_tensor_angular_calls_the_module_level_kernels(golden, monkeypatch):
    """The 6j and prefactor names stay patchable on polkit.polarizability."""
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
        b = assemble_breakdown(golden, lab("3d5/2"), TENSOR)
    finally:
        pol._tensor_angular.cache_clear()
    assert set(called) == {"wigner6j", "tensor_prefactor_C"}
    assert b == assemble_breakdown(golden, lab("3d5/2"), TENSOR)
