import math
import sys
from fractions import Fraction

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

    def test_overflowing_rate_is_not_blamed_on_its_uncertainty(self):
        """d^2 fits and A/d^2 fits, but their product does not: the rate itself is inf."""
        with pytest.raises(ValueError) as info:
            einstein_A(Quantity(1e154, 1e153, E_A0), 0.1, 1)
        assert "inf MHz" in str(info.value) and "uncertainty" not in str(info.value)

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
        skipped = decay_channels(golden, lab("4p1/2"), skip=lab("4s1/2"))
        assert skipped == [golden_channel(golden, "3d3/2", "4p1/2")]

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

    @pytest.mark.parametrize(
        "tau,others,message",
        [
            (8.0, [("3d3/2", 125.0)],  # 1000 / 8 ns = 125 MHz exactly
             "measured lifetime is inconsistent with the other decay channels "
             "(residual rate 0 MHz)"),
            (0.0, [], "lifetime must be positive: 0.0"),
            (1e300, [("3d3/2", 5e-298, 1e300)],  # sigma_d is about 1e447 e*a0
             "other decay rates of 4p1/2 are out of range: "
             "the matrix element's uncertainty overflows"),
            ((1e-300, 1e10), [("3d3/2", 1.0, 0.5)],
             "lifetime uncertainty 10000000000.0 ns is out of range: "
             "the matrix element's uncertainty overflows"),
            ((1e-3, 1e308), [],  # sigma_tau's power of two overflows as it is applied
             "lifetime uncertainty 1e+308 ns is out of range: "
             "the matrix element's uncertainty overflows"),
        ],
        ids=["residual-of-exactly-zero", "zero-lifetime", "d-unc-named-after-other-rates",
             "d-unc-named-after-lifetime", "lifetime-unc-exponent-overflows"],
    )
    def test_refusal_names_its_input(self, tau, others, message):
        """`tau` is a value or a (value, uncertainty) pair; an other channel, (lower, rate) or
        (lower, rate, uncertainty)."""
        others = [channel("4p1/2", *other) for other in others]
        value, unc = tau if isinstance(tau, tuple) else (tau, 0.0)
        with pytest.raises(ValueError) as info:
            extract_matrix_element(Quantity(value, unc, NANOSECOND), others, 0.1, 1)
        assert str(info.value) == message

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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        others=st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(0.0, 10.0)), max_size=3),
        tau_exp=st.floats(-300.0, 300.0),
        tau_unc_factor=st.floats(0.0, 10.0),
        gap_exp=st.floats(-100.0, 100.0),
        j2=st.sampled_from([1, 3, 5, 7]),
    )
    def test_answer_is_finite_with_the_relative_rule_or_a_named_refusal(
        self, others, tau_exp, tau_unc_factor, gap_exp, j2
    ):
        """Rates of 1e-300 to 1e300 MHz with sigma up to 10 A, a lifetime of 1e-300 to 1e300 ns
        with sigma up to 10 tau: a finite d whose sigma_d / d is half the quadrature sum of the
        residual rate's relative terms (exact, from the same float residual), or a ValueError
        that names an input."""
        channels = [
            channel("4p1/2", "3d3/2", 10.0**rate_exp, factor * 10.0**rate_exp)
            for rate_exp, factor in others
        ]
        tau = Quantity(10.0**tau_exp, tau_unc_factor * 10.0**tau_exp, NANOSECOND)
        gap = 10.0**gap_exp
        try:
            d = extract_matrix_element(tau, channels, gap, j2)
        except ValueError as error:
            message = str(error)
            assert "non-finite" not in message and "Numerical result" not in message
            named = (repr(tau.value), repr(tau.unc), repr(gap), "4p1/2", "measured lifetime")
            assert any(fragment in message for fragment in named), message
            return
        assert math.isfinite(d.value) and d.value > 0 and math.isfinite(d.unc)
        total = 1000.0 / tau.value
        residual = Fraction(total - sum(ch.A.value for ch in channels))
        tau_rel = Fraction(total) / residual * Fraction(tau.unc) / Fraction(tau.value)
        others_rel = Fraction(math.hypot(*(ch.A.unc for ch in channels))) / residual
        expected = Fraction(d.value) * Fraction(math.hypot(float(tau_rel), float(others_rel)))
        assert d.unc == pytest.approx(float(expected / 2), rel=1e-12, abs=1e-320)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        tau_exp=st.floats(-300.0, 300.0),
        unc_exp=st.floats(-320.0, 308.25),
        share=st.floats(1e-3, 0.999),
        other_rel=st.floats(0.0, 1.0),
    )
    def test_lifetime_sigma_is_scaled_without_moving_a_bit(self, tau_exp, unc_exp, share,
                                                            other_rel):
        """sigma_tau's power of two is applied last: wherever total/residual * sigma_tau and
        then / tau stay normal floats, sigma_d is the left-to-right product's to the bit, and
        where only the first product overflows, sigma_d is still the exact value's, or refused
        only when it does not fit."""
        tau = Quantity(10.0**tau_exp, 10.0**unc_exp, NANOSECOND)
        total = 1000.0 / tau.value
        others = [channel("4p1/2", "3d3/2", share * total, other_rel * share * total)]
        residual = total - others[0].A.value
        others_rel = others[0].A.unc / residual
        # the exact sigma_d / d = hypot(tau_rel, others_rel) / 2 as big * sqrt(1 + ratio^2) / 2
        tau_rel = Fraction(total) / Fraction(residual) * Fraction(tau.unc) / Fraction(tau.value)
        big, small = sorted((tau_rel, Fraction(others_rel)))[::-1]
        stretch = math.sqrt(1.0 + float(small / big) ** 2) if big else 1.0
        try:
            d = extract_matrix_element(tau, others, 0.1, 1)
        except ValueError as error:
            assert "the matrix element's uncertainty overflows" in str(error)
            d_value = math.sqrt(residual / einstein_A(Quantity(1.0, 0.0, E_A0), 0.1, 1).value)
            assert Fraction(d_value) * big * Fraction(stretch) / 2 > Fraction(0.99e308)
            return
        expected = float(Fraction(d.value) * big / 2) * stretch
        assert d.unc == pytest.approx(expected, rel=1e-12, abs=1e-320)
        scaled = total / residual * tau.unc
        if sys.float_info.min <= min(tau.unc, scaled, scaled / tau.value) and scaled < math.inf:
            assert d.unc == d.value * (math.hypot(scaled / tau.value, others_rel) / 2.0)
