import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import (
    E_A0,
    MEGAHERTZ,
    NANOSECOND,
    DatasetError,
    DecayChannel,
    LevelLabel,
    Quantity,
    UnknownLevelError,
    decay_channels,
    einstein_A,
    energy_difference_au,
    extract_matrix_element,
    lifetime,
    measured_lifetime,
    parse_dataset,
)
from polkit.dataset import (
    MAX_GAP_AU,
    MAX_RATE_MHZ,
    MAX_TAU_NS,
    MIN_GAP_AU,
    MIN_RATE_MHZ,
    MIN_TAU_NS,
)
from polkit.radiative import extract_pair

lab = LevelLabel.parse

# Each gate input's name, as the refusal names it, and its bounds.
BOUNDS = {
    "A [MHz]": (MIN_RATE_MHZ, MAX_RATE_MHZ),
    "A uncertainty [MHz]": (0.0, MAX_RATE_MHZ),
    "lifetime [ns]": (MIN_TAU_NS, MAX_TAU_NS),
    "lifetime uncertainty [ns]": (0.0, MAX_TAU_NS),
    "gap [hartree]": (MIN_GAP_AU, MAX_GAP_AU),
}


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
        with pytest.raises(ValueError) as info:
            einstein_A(Quantity(0.0, 0.0, E_A0), 0.1, 1)
        assert str(info.value) == "d [e*a0] must lie in [1e-06, 10000], got 0.0"

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            einstein_A(Quantity(1.0, 0.0, E_A0), -0.1, 1)

    @pytest.mark.parametrize(
        "d, unc, message",
        [
            (1.7e153, 0.0, "d [e*a0] must lie in [1e-06, 10000], got 1.7e+153"),
            (1e154, 1e153, "d [e*a0] must lie in [1e-06, 10000], got 1e+154"),
            (1.0, 1e308, "d uncertainty [e*a0] must lie in [0, 10000], got 1e+308"),
            (1e-200, 0.0, "d [e*a0] must lie in [1e-06, 10000], got 1e-200"),
        ],
        ids=["rate-above-half-the-largest-float", "rate-overflows", "rate-unc-overflows",
             "rate-underflows"],
    )
    def test_element_whose_rate_overflowed_is_refused_at_the_gate(self, d, unc, message):
        """Each d gave a rate, or a rate uncertainty, beyond the normal floats at this gap;
        einstein_A now refuses it for its own bounds, and names d before its uncertainty."""
        with pytest.raises(ValueError) as info:
            einstein_A(Quantity(d, unc, E_A0), 0.1, 1)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("rate", [0.0, -1.0, 8e307])
    def test_channel_refuses_a_rate_outside_its_bounds(self, rate):
        """8e307 MHz: three such rates summed to inf, and the lifetime to 0(0) ns."""
        with pytest.raises(ValueError) as info:
            channel("4p1/2", "4s1/2", rate)
        assert str(info.value) == f"A [MHz] must lie in [1e-35, 1e+18], got {rate!r}"


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

    @pytest.mark.parametrize(
        "tau,others,gap,message",
        [
            (8.0, [("3d3/2", 125.0)], 0.1,  # 1000 / 8 ns = 125 MHz exactly
             "measured lifetime is inconsistent with the other decay channels "
             "(residual rate 0 MHz)"),
            (0.0, [], 0.1, "lifetime [ns] must lie in [1e-06, 1e+15], got 0.0"),
            (1e300, [("3d3/2", 1.0, 1e10)], 0.1,  # sigma_d was about 1e447 e*a0
             "lifetime [ns] must lie in [1e-06, 1e+15], got 1e+300"),
            ((1e-300, 1e10), [("3d3/2", 1.0, 0.5)], 0.1,
             "lifetime [ns] must lie in [1e-06, 1e+15], got 1e-300"),
            ((1e-3, 1e308), [], 0.1,  # sigma_tau's power of two overflowed as it was applied
             "lifetime uncertainty [ns] must lie in [0, 1e+15], got 1e+308"),
            (7.0, [], 1e-300,  # A/d^2 underflowed
             "gap [hartree] must lie in [4.55634e-09, 45.5634], got 1e-300"),
        ],
        ids=["residual-of-exactly-zero", "zero-lifetime", "d-unc-overflowed-by-other-rates",
             "d-unc-overflowed-by-lifetime", "lifetime-unc-exponent-overflowed",
             "rate-per-d-squared-underflowed"],
    )
    def test_refusal_names_its_input(self, tau, others, gap, message):
        """`tau` is a value or a (value, uncertainty) pair; an other channel, (lower, rate) or
        (lower, rate, uncertainty)."""
        others = [channel("4p1/2", *other) for other in others]
        value, unc = tau if isinstance(tau, tuple) else (tau, 0.0)
        with pytest.raises(ValueError) as info:
            extract_matrix_element(Quantity(value, unc, NANOSECOND), others, gap, 1)
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
    def test_answer_is_finite_with_the_relative_rule_or_a_bound_refusal(
        self, others, tau_exp, tau_unc_factor, gap_exp, j2
    ):
        """Rates of 1e-300 to 1e300 MHz with sigma up to 10 A, a lifetime of 1e-300 to 1e300 ns
        with sigma up to 10 tau, gaps of 1e-100 to 1e100 hartree: a finite d whose sigma_d / d
        is half the quadrature sum of the residual rate's relative terms (exact, from the same
        float residual), a residual refusal, or a refusal that names an input outside its
        bounds."""
        tau = Quantity(10.0**tau_exp, tau_unc_factor * 10.0**tau_exp, NANOSECOND)
        gap = 10.0**gap_exp
        try:
            channels = [
                channel("4p1/2", "3d3/2", 10.0**rate_exp, factor * 10.0**rate_exp)
                for rate_exp, factor in others
            ]
            d = extract_matrix_element(tau, channels, gap, j2)
        except ValueError as error:
            message = str(error)
            if message.startswith("measured lifetime is inconsistent"):
                return
            name, _, got = message.partition(" must lie in ")
            low, high = BOUNDS[name]
            assert not low <= float(got.partition(", got ")[2]) <= high, message
            return
        assert math.isfinite(d.value) and d.value > 0 and math.isfinite(d.unc)
        total = 1000.0 / tau.value
        residual = Fraction(total - sum(ch.A.value for ch in channels))
        tau_rel = Fraction(total) / residual * Fraction(tau.unc) / Fraction(tau.value)
        others_rel = Fraction(math.hypot(*(ch.A.unc for ch in channels))) / residual
        expected = Fraction(d.value) * Fraction(math.hypot(float(tau_rel), float(others_rel)))
        assert d.unc == pytest.approx(float(expected / 2), rel=1e-12, abs=1e-300)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        tau_exp=st.floats(-6.0, 15.0),
        unc_exp=st.floats(-323.0, 15.0),
        share=st.floats(1e-3, 0.999),
        other_rel=st.floats(0.0, 1.0),
    )
    def test_lifetime_sigma_keeps_the_scaled_form_bits(self, tau_exp, unc_exp, share, other_rel):
        """Inside the bounds, sigma_tau enters as total/residual * sigma_tau / tau, left to
        right: wherever each step stays a normal float, sigma_d is, to the bit, what sigma_tau
        split by frexp and applied last by ldexp gave; and it is always close to the exact
        value."""
        tau = Quantity(10.0**tau_exp, 10.0**unc_exp, NANOSECOND)
        total = 1000.0 / tau.value
        others = [channel("4p1/2", "3d3/2", share * total, other_rel * share * total)]
        residual = total - others[0].A.value
        others_rel = others[0].A.unc / residual
        d = extract_matrix_element(tau, others, 0.1, 1)
        tau_rel = Fraction(total) / Fraction(residual) * Fraction(tau.unc) / Fraction(tau.value)
        exact = Fraction(d.value) * Fraction(math.hypot(float(tau_rel), others_rel)) / 2
        assert d.unc == pytest.approx(float(exact), rel=1e-12, abs=1e-300)
        scaled = total / residual * tau.unc
        if sys.float_info.min <= min(tau.unc, scaled, scaled / tau.value):
            mantissa, exponent = math.frexp(tau.unc)
            split = math.ldexp(total / residual * mantissa / tau.value, exponent)
            assert d.unc == d.value * (math.hypot(split, others_rel) / 2.0)


class TestExtractPair:
    @pytest.mark.parametrize(
        "upper,lower,error,message",
        [
            ("9g9/2", "8g7/2", UnknownLevelError, "'9g9/2'"),
            ("4s1/2", "4p1/2", ValueError, "4s1/2 does not lie above 4p1/2"),
            ("4p1/2", "3d5/2", ValueError, "4p1/2 -> 3d5/2 violates E1 selection rules"),
            ("4s1/2", "3d5/2", ValueError, "4s1/2 does not lie above 3d5/2"),
            # The packaged dataset holds no pair this close: 7p1/2 is added 1e-4 cm^-1 above
            # 4s1/2, with no e1 line, so no structure rule compared their energies.
            ("7p1/2", "4s1/2", DatasetError,
             "7p1/2 -> 4s1/2: gap [cm^-1] must lie in [0.001, 1e+07], got 0.0001"),
        ],
        ids=["unknown-upper-named-first", "not-above", "e1-forbidden",
             "reversed-and-forbidden", "near-degenerate-without-e1-line"],
    )
    def test_refuses_the_pair_before_any_rate(self, golden_text, upper, lower, error, message):
        ds = parse_dataset(golden_text + "level 7p1/2 0.0001\n")
        with pytest.raises(error) as info:
            extract_pair(ds, lab(upper), lab(lower), measured_lifetime(7.0))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "upper,lower,tau,unc",
        [("4p1/2", "4s1/2", 7.098, 0.020), ("4p3/2", "3d5/2", 6.924, 0.019),
         ("5p1/2", "3d3/2", 100.0, 1.0)],  # the last pair has no e1 line
    )
    def test_equals_a_direct_extraction(self, golden, upper, lower, tau, unc):
        upper, lower, tau = lab(upper), lab(lower), measured_lifetime(tau, unc)
        others = [ch for ch in decay_channels(golden, upper) if ch.lower != lower]
        gap = energy_difference_au(golden, lower, upper).value
        assert extract_pair(golden, upper, lower, tau) == (
            extract_matrix_element(tau, others, gap, upper.j2), others)
