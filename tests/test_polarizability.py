import math

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
    scalar_contribution,
    scale_tail,
    tensor_contribution,
)

lab = LevelLabel.parse


def d_q(value, unc=0.0):
    return Quantity(value, unc, E_A0)


class TestScalarContribution:
    def test_ground_state_resonance_line(self, golden):
        de = energy_difference_au(golden, lab("4s1/2"), lab("4p1/2")).value
        q = scalar_contribution(d_q(2.898, 0.029), de, 1)
        assert q.value == pytest.approx(2.898**2 / (3.0 * de), rel=1e-15)
        assert abs(q.value - 24.4) < 0.05  # published rounding
        assert q.unc == pytest.approx(2.0 * q.value * 0.029 / 2.898, rel=1e-15)
        assert abs(q.unc - 0.5) < 0.05

    def test_d_state_resonance_line(self, golden):
        de = energy_difference_au(golden, lab("3d5/2"), lab("4p3/2")).value
        q = scalar_contribution(d_q(3.306, 0.0181), de, 5)
        assert abs(q.value - 22.78) < 0.01  # one unit in the last printed digit
        assert abs(q.unc - 0.25) < 0.005

    def test_zero_coupling(self):
        q = scalar_contribution(d_q(0.0), 0.1, 1)
        assert q == Quantity(0.0, 0.0, A0_CUBED)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            scalar_contribution(d_q(1.0), 0.0, 1)

    def test_downward_transition_is_negative(self, golden):
        de = energy_difference_au(golden, lab("4p1/2"), lab("4s1/2")).value
        assert scalar_contribution(d_q(2.898), de, 1).value < 0


class TestTensorContribution:
    def test_equal_and_opposite_for_d_to_p(self, golden):
        de = energy_difference_au(golden, lab("3d5/2"), lab("4p3/2")).value
        a0 = scalar_contribution(d_q(3.306, 0.0181), de, 5)
        a2 = tensor_contribution(d_q(3.306, 0.0181), de, 5, 3)
        assert a2.value == pytest.approx(-a0.value, rel=1e-12)
        assert abs(a2.value + 22.78) < 0.01

    def test_d_to_f_line(self, golden):
        de = energy_difference_au(golden, lab("3d5/2"), lab("4f7/2")).value
        a2 = tensor_contribution(d_q(2.309, 0.0256), de, 5, 7)
        assert abs(a2.value - (-0.854)) < 0.005
        assert abs(a2.unc - 0.019) < 0.001

    def test_vanishes_for_j_half(self):
        q = tensor_contribution(d_q(2.898), 0.1, 1, 3)
        assert q == Quantity(0.0, 0.0, A0_CUBED)


class TestScaleTail:
    def test_mean_field_overestimate(self):
        q = scale_tail(Quantity(2.72, 0.0, A0_CUBED), 1.6)
        assert q.value == pytest.approx(1.70, rel=1e-12)
        assert q.unc == pytest.approx(1.02, rel=1e-12)

    def test_unit_factor_is_identity(self):
        q = scale_tail(Quantity(2.72, 0.05, A0_CUBED), 1.0)
        assert q == Quantity(2.72, 0.05, A0_CUBED)

    def test_zero_tail(self):
        assert scale_tail(Quantity(0.0, 0.0, A0_CUBED), 1.6) == Quantity(0.0, 0.0, A0_CUBED)

    def test_raw_uncertainty_enters_quadrature(self):
        q = scale_tail(Quantity(2.72, 0.8, A0_CUBED), 1.6)
        assert q.unc == pytest.approx(math.hypot(1.02, 0.5), rel=1e-12)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_tail(Quantity(1.0, 0.0, A0_CUBED), 0.0)


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
