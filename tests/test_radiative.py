import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    DecayChannel,
    LevelLabel,
    Quantity,
    UnknownLevelError,
    decay_channels,
    einstein_A,
    energy_difference_au,
    extract_matrix_element,
    lifetime,
)

lab = LevelLabel.parse


def channel(upper, lower, a_mhz, unc=0.0):
    return DecayChannel(lab(upper), lab(lower), Quantity(a_mhz, unc, MEGAHERTZ))


def golden_channel(golden, lower, upper):
    el = next(
        e
        for e in golden.elements
        if str(e.lower) == lower and str(e.upper) == upper
    )
    de = energy_difference_au(golden, el.lower, el.upper).value
    return DecayChannel(
        el.upper, el.lower, einstein_A(el.d, de, el.upper.j2)
    )


class TestEinsteinA:
    @pytest.mark.parametrize(
        "lower,upper,published",
        [
            ("4s1/2", "4p1/2", 136.0),
            ("4s1/2", "4p3/2", 139.7),
            ("3d3/2", "4p1/2", 9.452),
            ("3d3/2", "4p3/2", 0.997),
            ("3d5/2", "4p3/2", 8.877),
        ],
    )
    def test_reference_rates(self, golden, lower, upper, published):
        ch = golden_channel(golden, lower, upper)
        assert abs(ch.A.value - published) < 0.05

    def test_zero_coupling(self):
        q = einstein_A(Quantity(0.0, 0.0, E_A0), 0.1, 1)
        assert q == Quantity(0.0, 0.0, MEGAHERTZ)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            einstein_A(Quantity(1.0, 0.0, E_A0), -0.1, 1)

    @given(d=st.floats(0.05, 8.0), de=st.floats(0.01, 1.0))
    def test_quadratic_in_d(self, d, de):
        one = einstein_A(Quantity(d, 0.0, E_A0), de, 3).value
        two = einstein_A(Quantity(2.0 * d, 0.0, E_A0), de, 3).value
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    @given(d=st.floats(0.05, 8.0), de=st.floats(0.01, 0.5))
    def test_cubic_in_energy(self, d, de):
        one = einstein_A(Quantity(d, 0.0, E_A0), de, 3).value
        eight = einstein_A(Quantity(d, 0.0, E_A0), 2.0 * de, 3).value
        assert eight == pytest.approx(8.0 * one, rel=1e-12)


class TestDecayChannels:
    def test_p_half_channels(self, golden):
        channels = decay_channels(golden, lab("4p1/2"))
        assert sorted(channels, key=lambda ch: ch.lower) == [
            golden_channel(golden, "3d3/2", "4p1/2"),
            golden_channel(golden, "4s1/2", "4p1/2"),
        ]
        assert abs(lifetime(channels).value - 6.87) < 0.005

    def test_ground_state_has_none(self, golden):
        assert decay_channels(golden, lab("4s1/2")) == []

    def test_unknown_upper_rejected(self, golden):
        with pytest.raises(UnknownLevelError):
            decay_channels(golden, lab("9g9/2"))


class TestLifetime:
    def test_p_half_lifetime(self):
        tau = lifetime([channel("4p1/2", "4s1/2", 136.0), channel("4p1/2", "3d3/2", 9.452)])
        assert tau.value == pytest.approx(6.875, abs=1e-3)
        assert tau.unit == NANOSECOND

    def test_p_three_half_lifetime(self):
        tau = lifetime(
            [
                channel("4p3/2", "4s1/2", 139.7),
                channel("4p3/2", "3d3/2", 0.997),
                channel("4p3/2", "3d5/2", 8.877),
            ]
        )
        assert tau.value == pytest.approx(6.686, abs=1e-3)

    def test_single_channel_reciprocal(self):
        assert lifetime([channel("4p1/2", "4s1/2", 100.0)]).value == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lifetime([])

    def test_mixed_upper_states_rejected(self):
        with pytest.raises(ValueError):
            lifetime([channel("4p1/2", "4s1/2", 100.0), channel("4p3/2", "4s1/2", 1.0)])

    def test_uncertainty_propagation(self):
        tau = lifetime([channel("4p1/2", "4s1/2", 100.0, 3.0), channel("4p1/2", "3d3/2", 25.0, 4.0)])
        assert tau.unc == pytest.approx(1000.0 * 5.0 / 125.0**2, rel=1e-12)


class TestExtraction:
    def test_p_half_element(self, golden):
        others = [golden_channel(golden, "3d3/2", "4p1/2")]
        de = energy_difference_au(golden, lab("4s1/2"), lab("4p1/2")).value
        d = extract_matrix_element(Quantity(7.098, 0.020, NANOSECOND), others, de, 1)
        assert abs(d.value - 2.849) < 0.001
        assert abs(d.unc - 0.004) < 0.001

    def test_p_three_half_element(self, golden):
        others = [
            golden_channel(golden, "3d3/2", "4p3/2"),
            golden_channel(golden, "3d5/2", "4p3/2"),
        ]
        de = energy_difference_au(golden, lab("4s1/2"), lab("4p3/2")).value
        d = extract_matrix_element(Quantity(6.924, 0.019, NANOSECOND), others, de, 3)
        assert abs(d.value - 4.023) < 0.001
        assert abs(d.unc - 0.006) < 0.001

    def test_percent_difference_from_theory(self, golden):
        for upper, lower, tau, others, published in (
            ("4p1/2", "4s1/2", 7.098, [("3d3/2", "4p1/2")], 1.7),
            ("4p3/2", "4s1/2", 6.924, [("3d3/2", "4p3/2"), ("3d5/2", "4p3/2")], 1.9),
        ):
            chans = [golden_channel(golden, *pair) for pair in others]
            de = energy_difference_au(golden, lab(lower), lab(upper)).value
            d = extract_matrix_element(Quantity(tau, 0.0, NANOSECOND), chans, de, lab(upper).j2)
            theory = next(
                e.d.value
                for e in golden.elements
                if str(e.lower) == lower and str(e.upper) == upper
            )
            pct = (theory - d.value) / d.value * 100.0
            assert abs(pct - published) < 0.05

    def test_residual_must_be_positive(self, golden):
        others = [channel("4p1/2", "3d3/2", 500.0)]
        de = energy_difference_au(golden, lab("4s1/2"), lab("4p1/2")).value
        with pytest.raises(ValueError, match="residual"):
            extract_matrix_element(Quantity(7.098, 0.02, NANOSECOND), others, de, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.floats(0.2, 6.0),
        de=st.floats(0.02, 0.5),
        j2=st.sampled_from([1, 3, 5]),
        a_other=st.floats(0.1, 40.0),
    )
    def test_roundtrip_inverts_lifetime(self, d, de, j2, a_other):
        """extract(lifetime(...)) returns the matrix element exactly."""
        upper = {1: "4p1/2", 3: "4p3/2", 5: "3d5/2"}[j2]
        main = DecayChannel(
            lab(upper), lab("4s1/2"), einstein_A(Quantity(d, 0.0, E_A0), de, j2)
        )
        other = channel(upper, "3d3/2", a_other)
        tau = lifetime([main, other])
        back = extract_matrix_element(tau, [other], de, j2)
        assert back.value == pytest.approx(d, rel=1e-12)
