import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    E_A0,
    SCALAR,
    TENSOR,
    Dataset,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    UnknownLevelError,
    assemble_breakdown,
    energy_difference_au,
    tensor_prefactor_C,
    wigner6j,
)

lab = LevelLabel.parse


def d_q(value, unc=0.0):
    return Quantity(value, unc, E_A0)


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
            parts = [c.value(multipole) for c in b.main] + [b.tail, b.core]
            total = sum(p.value for p in parts)
            var = sum(p.unc**2 for p in parts)
            assert b.total.value == pytest.approx(total, rel=1e-12)
            assert b.total.unc**2 == pytest.approx(var, rel=1e-12)

    def test_core_enters_scalar_only(self, golden):
        scalar = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
        tensor = assemble_breakdown(golden, lab("3d5/2"), TENSOR)
        assert scalar.core == golden.core_alpha
        assert tensor.core == Quantity(0.0, 0.0, A0_CUBED)

    def test_tensor_to_scalar_ratio_constant_within_jk_blocks(self, golden):
        b = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
        ratios = {}
        for c in b.main:
            ratios.setdefault(c.partner.j2, []).append(c.alpha2.value / c.alpha0.value)
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
        assert row.alpha0.value == 2.0 / (3.0 * 6) * d**2 / de
        sixj = wigner6j(5, 2, 3, 2, 5, 4)
        assert row.alpha2.value == -4.0 * tensor_prefactor_C(5) * -1 * sixj * d**2 / de

    def test_downward_rows_are_negative(self, golden):
        rows = {str(c.partner): c for c in assemble_breakdown(golden, lab("4p1/2"), SCALAR).main}
        assert rows["4s1/2"].alpha0.value < 0
        assert rows["3d3/2"].alpha0.value < 0
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
