import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    HERTZ,
    POLARIZABILITY_AU_IN_SI,
    SI_POLARIZABILITY,
    BBRConditions,
    Quantity,
    au_to_si,
    bbr_shift_state,
    clock_bbr_shift,
)


def alpha(value, unc=0.0):
    return Quantity(value, unc, A0_CUBED)


class TestConversion:
    def test_unit_polarizability(self):
        q = au_to_si(alpha(1.0))
        assert q.value == 2.48832e-8
        assert q.unit == SI_POLARIZABILITY

    def test_zero(self):
        assert au_to_si(alpha(0.0)).value == 0.0

    def test_ground_state_value(self):
        assert au_to_si(alpha(76.1)).value == pytest.approx(1.89361e-6, abs=1e-11)

    def test_wrong_unit_rejected(self):
        with pytest.raises(ValueError):
            au_to_si(Quantity(1.0, 0.0, HERTZ))


class TestConditions:
    def test_defaults(self):
        cond = BBRConditions()
        assert cond.temperature == 300.0
        assert cond.eta == 0.0
        assert cond.reference_field == 831.9

    def test_reference_field_not_settable(self):
        with pytest.raises(TypeError):
            BBRConditions(temperature=300.0, eta=0.0, reference_field=900.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            BBRConditions(temperature=-1.0)


class TestStateShift:
    def test_ground_state_shift(self):
        q = bbr_shift_state(alpha(76.1, 1.1), BBRConditions())
        expected = -0.5 * 831.9**2 * 2.48832e-8 * 76.1
        assert q.value == pytest.approx(expected, rel=1e-15)
        assert round(q.value, 3) == -0.655
        assert round(q.unc, 3) == 0.009
        assert q.unit == HERTZ

    def test_zero_temperature(self):
        q = bbr_shift_state(alpha(76.1, 1.1), BBRConditions(temperature=0.0))
        assert q.value == 0.0

    def test_quartic_scaling(self):
        base = bbr_shift_state(alpha(32.0), BBRConditions(temperature=300.0))
        hot = bbr_shift_state(alpha(32.0), BBRConditions(temperature=600.0))
        assert hot.value == pytest.approx(16.0 * base.value, rel=1e-15)

    @given(eta=st.floats(-0.5, 0.5))
    def test_eta_multiplies(self, eta):
        base = bbr_shift_state(alpha(76.1), BBRConditions())
        corrected = bbr_shift_state(alpha(76.1), BBRConditions(eta=eta))
        assert corrected.value == pytest.approx((1.0 + eta) * base.value, rel=1e-14)

    @pytest.mark.parametrize("eta", [1e308, -1e308])
    def test_overflowing_eta_is_named(self, eta):
        cond = BBRConditions(eta=eta)
        message = re.escape(f"eta {eta!r} is out of range")
        with pytest.raises(ValueError, match=message):
            bbr_shift_state(alpha(76.1), cond)
        with pytest.raises(ValueError, match=message):
            clock_bbr_shift(alpha(76.1), alpha(32.0), cond)


class TestClockShift:
    def test_reference_clock_transition(self):
        q = clock_bbr_shift(alpha(76.1, 1.1), alpha(32.0, 1.1), BBRConditions())
        assert abs(q.value - 0.380) <= 0.0005
        assert abs(q.unc - 0.013) <= 0.001

    def test_equal_polarizabilities_cancel(self):
        q = clock_bbr_shift(alpha(50.0, 1.0), alpha(50.0, 1.0), BBRConditions())
        assert q.value == 0.0

    def test_quartic_scaling_down(self):
        cold = clock_bbr_shift(alpha(76.1), alpha(32.0), BBRConditions(temperature=150.0))
        warm = clock_bbr_shift(alpha(76.1), alpha(32.0), BBRConditions(temperature=300.0))
        assert cold.value == pytest.approx(warm.value / 16.0, rel=1e-12)
        assert warm.value / 16.0 == pytest.approx(0.0237, abs=3e-4)

    @settings(max_examples=100, deadline=None)
    @given(
        ag=st.floats(10.0, 200.0),
        ae=st.floats(10.0, 200.0),
        t=st.floats(30.0, 1200.0),
    )
    def test_matches_difference_of_state_shifts(self, ag, ae, t):
        cond = BBRConditions(temperature=t)
        combined = clock_bbr_shift(alpha(ag), alpha(ae), cond)
        split = bbr_shift_state(alpha(ae), cond).value - bbr_shift_state(alpha(ag), cond).value
        scale = abs(bbr_shift_state(alpha(ag), cond).value) + abs(combined.value)
        assert combined.value == pytest.approx(split, rel=1e-15, abs=1e-15 * max(scale, 1e-30))

    @given(ag=st.floats(10.0, 200.0), ae=st.floats(10.0, 200.0))
    def test_antisymmetric(self, ag, ae):
        cond = BBRConditions()
        fwd = clock_bbr_shift(alpha(ag), alpha(ae), cond)
        rev = clock_bbr_shift(alpha(ae), alpha(ag), cond)
        assert fwd.value == -rev.value

    def test_correlated_core_mode_removes_shared_term(self):
        cond = BBRConditions()
        plain = clock_bbr_shift(alpha(76.1, 1.1), alpha(32.0, 1.1), cond)
        corr = clock_bbr_shift(alpha(76.1, 1.1), alpha(32.0, 1.1), cond, shared_core_unc=0.17)
        expected = math.sqrt(1.1**2 + 1.1**2 - 2 * 0.17**2) * 0.5 * 831.9**2 * POLARIZABILITY_AU_IN_SI
        assert corr.unc == pytest.approx(expected, rel=1e-12)
        assert corr.unc < plain.unc
        assert corr.value == plain.value
