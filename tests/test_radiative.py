import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    A0_CUBED,
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    Dataset,
    DecayChannel,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
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

    @pytest.mark.parametrize("rel", [0.0, 1e-3])
    def test_rate_above_half_the_largest_float_keeps_its_uncertainty(self, golden, rel):
        """A 4p3/2 -> 4s1/2 rate of 1e308 MHz: 2 A overflows, 2 A dd/d does not."""
        de = energy_difference_au(golden, lab("4s1/2"), lab("4p3/2")).value
        d = math.sqrt(1e308 / einstein_A(Quantity(1.0, 0.0, E_A0), de, 3).value)
        a = einstein_A(Quantity(d, rel * d, E_A0), de, 3)
        assert a.value == pytest.approx(1e308, rel=1e-12)
        assert a.unc == pytest.approx(2.0 * rel * a.value, rel=1e-12, abs=0.0)  # 0.0 for rel 0

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

    def test_equals_the_filter_over_all_elements(self, golden):
        """The coupling walk keeps each element ending on `upper`, with the same exact rate."""
        for level in golden.levels:
            upper = level.label
            expected = [
                DecayChannel(
                    upper,
                    el.lower,
                    einstein_A(el.d, energy_difference_au(golden, el.lower, upper).value, upper.j2),
                )
                for el in golden.elements
                if el.upper == upper
            ]
            assert decay_channels(golden, upper) == expected

    @staticmethod
    def built(levels, elements):
        """A dataset made by the constructor, which `validate` would refuse."""
        d = Quantity(2.9, 0.03, E_A0)
        return Dataset(
            [Level(lab(label), energy) for label, energy in levels],
            [ReducedE1(lab(lower), lab(upper), d) for lower, upper in elements],
            Quantity(3.25, 0.17, A0_CUBED),
            {},
        )

    def test_zero_gap_keeps_a_positive_zero_in_the_message(self):
        ds = self.built([("4s1/2", 0.0), ("4p1/2", 0.0)], [("4s1/2", "4p1/2")])
        with pytest.raises(ValueError) as info:
            decay_channels(ds, lab("4p1/2"))
        assert str(info.value) == "transition energy must be positive: 0.0"

    def test_unknown_higher_partner_is_named(self):
        ds = self.built(
            [("4s1/2", 0.0), ("4p1/2", 25191.51)], [("4s1/2", "4p1/2"), ("4p1/2", "5s1/2")]
        )
        with pytest.raises(UnknownLevelError) as info:
            decay_channels(ds, lab("4p1/2"))
        assert info.value.args == ("5s1/2",)


    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_channel_refuses_a_rate_that_is_not_positive(self, rate):
        with pytest.raises(ValueError) as info:
            channel("4p1/2", "4s1/2", rate)
        assert str(info.value) == f"decay rate must be positive: {rate}"


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

    def test_rates_whose_sum_overflows_are_refused(self):
        """Each 8e307 MHz rate is finite; their sum is not, and the lifetime is not 0(0) ns."""
        channels = [channel("4p3/2", lower, 8e307) for lower in ("4s1/2", "3d3/2", "3d5/2")]
        with pytest.raises(ValueError) as info:
            lifetime(channels)
        assert str(info.value) == "decay rates of 4p3/2 are out of range: their sum overflows"

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

    def test_residual_of_exactly_zero_is_refused(self):
        others = [channel("4p1/2", "3d3/2", 125.0)]  # 1000 / 8 ns = 125 MHz exactly
        with pytest.raises(ValueError) as info:
            extract_matrix_element(Quantity(8.0, 0.0, NANOSECOND), others, 0.1, 1)
        assert str(info.value) == (
            "measured lifetime is inconsistent with the other decay channels (residual rate 0 MHz)"
        )

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
