"""End-to-end acceptance suite against the reference Ca+ dataset.

One test per release criterion; each prints a single ``ACCEPTANCE n PASS``
line (run with ``pytest -s`` to see them).  Reference numbers are the
published table values frozen here.  Row values are compared at printed
precision (half a unit in the last printed digit, with a 0.005 a0^3 floor
absorbing rounding of the energy inputs); row uncertainties at one unit in
the last printed digit; totals must reproduce the printed digits exactly.
"""

import os
import subprocess
import sys

import pytest

from test_angular import brute_racah_6j, valid_tuples

import polkit
from polkit import (
    SCALAR,
    TENSOR,
    BBRConditions,
    DecayChannel,
    LevelLabel,
    Quantity,
    assemble_breakdown,
    bbr_shift_state,
    clock_bbr_shift,
    einstein_A,
    energy_difference_au,
    extract_matrix_element,
    lifetime,
    wigner6j,
)
from polkit.dataset import MEGAHERTZ, NANOSECOND

lab = LevelLabel.parse

# ---- frozen reference values ------------------------------------------------

GROUND_ROWS = [  # partner, alpha0, unc (None = below display threshold)
    ("4p1/2", 24.4, 0.5),
    ("5p1/2", 0.007, None),
    ("6p1/2", 0.007, None),
    ("4p3/2", 48.4, 1.0),
    ("5p3/2", 0.010, None),
    ("6p3/2", 0.012, None),
]
GROUND_CORE = (3.25, 0.17)
GROUND_TAIL = (0.006, 0.006)
GROUND_TOTAL = ("76.1", "1.1")

DSTATE_ROWS = [  # partner, alpha0, u0, alpha2, u2
    ("4p3/2", 22.78, 0.25, -22.78, 0.25),
    ("5p3/2", 0.011, 0.002, -0.011, 0.002),
    ("6p3/2", 0.004, None, -0.004, None),
    ("4f5/2", 0.120, 0.003, 0.137, 0.003),
    ("5f5/2", 0.039, 0.002, 0.044, 0.002),
    ("6f5/2", 0.018, 0.001, 0.020, 0.001),
    ("7f5/2", 0.010, None, 0.011, None),
    ("8f5/2", 0.006, None, 0.007, None),
    ("9f5/2", 0.004, None, 0.004, None),
    ("10f5/2", 0.003, None, 0.003, None),
    ("11f5/2", 0.002, None, 0.002, None),
    ("12f5/2", 0.002, None, 0.002, None),
    ("4f7/2", 2.392, 0.053, -0.854, 0.019),
    ("5f7/2", 0.773, 0.033, -0.276, 0.012),
    ("6f7/2", 0.350, 0.012, -0.125, 0.004),
    ("7f7/2", 0.191, 0.007, -0.068, 0.003),
    ("8f7/2", 0.117, 0.004, -0.042, 0.002),
    ("9f7/2", 0.077, 0.003, -0.028, 0.001),
    ("10f7/2", 0.054, 0.002, -0.019, 0.001),
    ("11f7/2", 0.039, 0.001, -0.014, 0.001),
    ("12f7/2", 0.029, 0.001, -0.011, None),
]
DSTATE_CORE = (3.25, 0.17)
DSTATE_TAIL_SCALAR = (1.7, 1.1)
DSTATE_TAIL_TENSOR = (-0.5, 0.3)
DSTATE_TOTAL_SCALAR = ("32.0", "1.1")
DSTATE_TOTAL_TENSOR = ("-24.5", "0.4")

A_COEFFICIENTS = {  # (lower, upper) -> MHz
    ("4s1/2", "4p1/2"): 136.0,
    ("4s1/2", "4p3/2"): 139.7,
    ("3d3/2", "4p1/2"): 9.452,
    ("3d3/2", "4p3/2"): 0.997,
    ("3d5/2", "4p3/2"): 8.877,
}


def _decimals(printed: float) -> int:
    text = f"{printed}"
    return len(text.split(".")[1]) if "." in text else 0


def assert_printed(computed: float, printed: float, what: str) -> None:
    tol = max(0.005, 0.5 * 10.0 ** (-_decimals(printed)))
    assert abs(computed - printed) <= tol, f"{what}: {computed!r} vs printed {printed!r}"


def assert_printed_unc(computed: float, printed, what: str) -> None:
    if printed is None:
        assert computed < 5e-4, f"{what}: uncertainty {computed!r} should be below display threshold"
        return
    tol = max(0.005, 10.0 ** (-_decimals(printed)))
    assert abs(computed - printed) <= tol, f"{what}: {computed!r} vs printed {printed!r}"


def _passed(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_ground_state_scalar_table(golden):
    b = assemble_breakdown(golden, lab("4s1/2"), SCALAR)
    rows = {str(c.partner): c for c in b.main}
    assert len(rows) == len(GROUND_ROWS)
    for partner, alpha0, unc in GROUND_ROWS:
        c = rows[partner]
        assert_printed(c.alpha0, alpha0, f"4s1/2-{partner}")
        assert_printed_unc(c.quantity(SCALAR).unc, unc, f"4s1/2-{partner} unc")
    assert_printed(b.core.value, GROUND_CORE[0], "core")
    assert_printed_unc(b.core.unc, GROUND_CORE[1], "core unc")
    assert_printed(b.tail.value, GROUND_TAIL[0], "tail")
    assert_printed_unc(b.tail.unc, GROUND_TAIL[1], "tail unc")
    assert f"{b.total.value:.1f}" == GROUND_TOTAL[0], b.total
    assert f"{b.total.unc:.1f}" == GROUND_TOTAL[1], b.total
    _passed(1, f"4s1/2 scalar table reproduced; total {b.total.value:.1f}({b.total.unc:.1f})")


def test_criterion_2_d_state_tables(golden):
    b0 = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
    b2 = assemble_breakdown(golden, lab("3d5/2"), TENSOR)
    rows = {str(c.partner): c for c in b0.main}
    assert len(rows) == 21
    scalar_rows = tensor_rows = 0
    for partner, a0, u0, a2, u2 in DSTATE_ROWS:
        c = rows[partner]
        assert_printed(c.alpha0, a0, f"3d5/2-{partner} alpha0")
        assert_printed_unc(c.quantity(SCALAR).unc, u0, f"3d5/2-{partner} alpha0 unc")
        scalar_rows += 1
        assert_printed(c.alpha2, a2, f"3d5/2-{partner} alpha2")
        assert_printed_unc(c.quantity(TENSOR).unc, u2, f"3d5/2-{partner} alpha2 unc")
        tensor_rows += 1
    assert_printed(b0.core.value, DSTATE_CORE[0], "core")
    assert_printed_unc(b0.core.unc, DSTATE_CORE[1], "core unc")
    scalar_rows += 1
    assert_printed(b0.tail.value, DSTATE_TAIL_SCALAR[0], "scalar tail")
    assert_printed_unc(b0.tail.unc, DSTATE_TAIL_SCALAR[1], "scalar tail unc")
    scalar_rows += 1
    assert_printed(b2.tail.value, DSTATE_TAIL_TENSOR[0], "tensor tail")
    assert_printed_unc(b2.tail.unc, DSTATE_TAIL_TENSOR[1], "tensor tail unc")
    tensor_rows += 1
    assert (scalar_rows, tensor_rows) == (23, 22)
    assert f"{b0.total.value:.1f}" == DSTATE_TOTAL_SCALAR[0], b0.total
    assert f"{b0.total.unc:.1f}" == DSTATE_TOTAL_SCALAR[1], b0.total
    assert f"{b2.total.value:.1f}" == DSTATE_TOTAL_TENSOR[0], b2.total
    assert f"{b2.total.unc:.1f}" == DSTATE_TOTAL_TENSOR[1], b2.total
    _passed(2, "3d5/2 scalar (23 rows) and tensor (22 rows) tables reproduced; "
               f"totals {b0.total.value:.1f}({b0.total.unc:.1f}) / "
               f"{b2.total.value:.1f}({b2.total.unc:.1f})")


def test_criterion_3_clock_shift_at_300K(golden):
    cond = BBRConditions(temperature=300.0)
    alpha_g = assemble_breakdown(golden, lab("4s1/2"), SCALAR).total
    alpha_e = assemble_breakdown(golden, lab("3d5/2"), SCALAR).total
    clock = clock_bbr_shift(alpha_g, alpha_e, cond)
    assert abs(clock.value - 0.380) <= 0.0005, clock
    assert abs(clock.unc - 0.013) <= 0.001, clock
    _passed(3, f"clock BBR shift {clock.value:.4f} +/- {clock.unc:.4f} Hz")


def test_criterion_4_lifetimes_and_rates(golden):
    def ch(upper, lower, mhz):
        return DecayChannel(lab(upper), lab(lower), Quantity(mhz, 0.0, MEGAHERTZ))

    tau_half = lifetime([ch("4p1/2", "4s1/2", 136.0), ch("4p1/2", "3d3/2", 9.452)])
    tau_three = lifetime(
        [
            ch("4p3/2", "4s1/2", 139.7),
            ch("4p3/2", "3d3/2", 0.997),
            ch("4p3/2", "3d5/2", 8.877),
        ]
    )
    assert abs(tau_half.value - 6.875) <= 0.001, tau_half
    assert abs(tau_three.value - 6.686) <= 0.001, tau_three
    for (lower, upper), published in A_COEFFICIENTS.items():
        el = next(
            e for e in golden.elements
            if str(e.lower) == lower and str(e.upper) == upper
        )
        de = energy_difference_au(golden, el.lower, el.upper).value
        a = einstein_A(el.d, de, el.upper.j2)
        assert abs(a.value - published) <= 0.05, (lower, upper, a)
    _passed(4, f"lifetimes {tau_half.value:.4f} / {tau_three.value:.4f} ns; "
               "all five A-coefficients within 0.05 MHz")


def test_criterion_5_inverse_extraction(golden):
    def channels(pairs):
        out = []
        for lower, upper in pairs:
            el = next(
                e for e in golden.elements
                if str(e.lower) == lower and str(e.upper) == upper
            )
            de = energy_difference_au(golden, el.lower, el.upper).value
            out.append(DecayChannel(el.upper, el.lower, einstein_A(el.d, de, el.upper.j2)))
        return out

    cases = [
        ("4p1/2", 7.098, 0.020, [("3d3/2", "4p1/2")], 2.849, 0.004, 1.7),
        ("4p3/2", 6.924, 0.019, [("3d3/2", "4p3/2"), ("3d5/2", "4p3/2")], 4.023, 0.006, 1.9),
    ]
    summary = []
    for upper, tau, tau_unc, other_pairs, d_ref, unc_ref, pct_ref in cases:
        de = energy_difference_au(golden, lab("4s1/2"), lab(upper)).value
        d = extract_matrix_element(
            Quantity(tau, tau_unc, NANOSECOND), channels(other_pairs), de,
            lab(upper).j2,
        )
        assert abs(d.value - d_ref) <= 0.001, (upper, d)
        assert abs(d.unc - unc_ref) <= 0.001, (upper, d)
        theory = next(
            e.d.value for e in golden.elements
            if str(e.lower) == "4s1/2" and str(e.upper) == upper
        )
        pct = (theory - d.value) / d.value * 100.0
        assert abs(pct - pct_ref) <= 0.05, (upper, pct)
        summary.append(f"{d.value:.4f}({d.unc:.4f}) {pct:.2f}%")
    _passed(5, "extracted elements " + ", ".join(summary))


def _orbit_key(a, b, c, d, e, f):
    """Least member of the 24-element symmetry orbit of {a b c; d e f}: the
    columns permuted, upper and lower swapped in no column or in two.  For
    each of the 4 swap patterns the sorted columns are the least member."""
    keys = []
    for cols in (
        ((a, d), (b, e), (c, f)),
        ((d, a), (e, b), (c, f)),
        ((d, a), (b, e), (f, c)),
        ((a, d), (e, b), (f, c)),
    ):
        (u0, l0), (u1, l1), (u2, l2) = sorted(cols)
        keys.append((u0, u1, u2, l0, l1, l2))
    return min(keys)


def test_criterion_6_angular_identities():
    # symmetry: every valid argument set (all twice-j <= 15) agrees with the
    # first-seen member of its 24-element symmetry orbit
    orbit_values: dict[tuple, tuple] = {}
    checked = 0
    for args in valid_tuples(15):
        value = wigner6j(*args)
        key = _orbit_key(*args)
        seen = orbit_values.get(key)
        if seen is None:
            orbit_values[key] = (value, args)
        else:
            ref = seen[0]
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (args, seen)
        checked += 1

    # oracle: one brute-force Racah evaluation per orbit closes the loop
    oracle_checked = 0
    for key, (value, _) in orbit_values.items():
        ref = brute_racah_6j(*key)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (key, value, ref)
        oracle_checked += 1

    # orthogonality: sum_x (2x+1) {a b x; c d p}{a b x; c d q} = delta_pq/(2p+1)
    # (p, q and the fixed spins stay on the <= 15/2 grid; the completeness
    # sum over x runs over its full natural range)
    ortho_checked = 0
    for a in range(16):
        for b in range(16):
            for c in range(16):
                for d in range(16):
                    ps = [
                        p for p in range(16)
                        if not (a + d + p) % 2 and abs(a - d) <= p <= a + d
                        and not (c + b + p) % 2 and abs(c - b) <= p <= c + b
                    ]
                    if not ps:
                        continue
                    xs = range(max(abs(a - b), abs(c - d)), min(a + b, c + d) + 1, 2)
                    if (a + b + xs.start) % 2:
                        xs = range(xs.start + 1, xs.stop, 2)
                    # each symbol once per p, summed in the order of x
                    sixj = {p: [wigner6j(a, b, x, c, d, p) for x in xs] for p in ps}
                    for p in ps:
                        for q in ps:
                            acc = 0.0
                            for x, u, v in zip(xs, sixj[p], sixj[q]):
                                acc += (x + 1) * u * v
                            expected = 1.0 / (p + 1) if p == q else 0.0
                            assert abs(acc - expected) <= 1e-12, (a, b, c, d, p, q)
                            ortho_checked += 1
    _passed(6, f"6j symmetry on {checked} argument sets, Racah oracle on "
               f"{oracle_checked} orbits, {ortho_checked} orthogonality sums")


def test_criterion_7_polarizability_properties(golden):
    b0 = assemble_breakdown(golden, lab("3d5/2"), SCALAR)
    ratios: dict[int, list[float]] = {}
    for c in b0.main:
        ratios.setdefault(c.partner.j2, []).append(c.alpha2 / c.alpha0)
    for j2, values in ratios.items():
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-12 * abs(values[0]), (j2, values)
    assert abs(ratios[3][0] + 1.0) <= 1e-12

    for state, multipole in (("4s1/2", SCALAR), ("3d5/2", SCALAR), ("3d5/2", TENSOR)):
        b = assemble_breakdown(golden, lab(state), multipole)
        parts = [c.quantity(multipole) for c in b.main] + [b.tail, b.core]
        var = sum(p.unc**2 for p in parts)
        assert abs(b.total.unc**2 - var) <= 1e-12 * var

    alpha = assemble_breakdown(golden, lab("4s1/2"), SCALAR).total
    for t in (77.0, 150.0, 300.0, 451.25):
        one = bbr_shift_state(alpha, BBRConditions(temperature=t)).value
        double = bbr_shift_state(alpha, BBRConditions(temperature=2.0 * t)).value
        assert abs(double - 16.0 * one) <= 1e-12 * abs(16.0 * one), t
    _passed(7, "ratio constancy, -1 block ratio, quadrature identity, quartic law")


def test_criterion_8_cli_determinism(golden_text, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "POLKIT_DATASET"}
    # The child runs the polkit under test, installed or not.
    src = os.path.dirname(os.path.dirname(polkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    commands = [
        ["polarizability", "--state", "4s1/2", "--multipole", "scalar"],
        ["polarizability", "--state", "3d5/2", "--multipole", "tensor"],
        ["bbr"],
        ["lifetime", "--state", "4p3/2"],
    ]
    for command in commands:
        for fmt in ("table", "machine"):
            argv = [sys.executable, "-m", "polkit.cli", *command, "--format", fmt]
            first = subprocess.run(argv, capture_output=True, env=env, check=True)
            second = subprocess.run(argv, capture_output=True, env=env, check=True)
            assert first.stdout == second.stdout, (command, fmt)
            assert first.stdout  # non-empty
    _passed(8, f"{len(commands)} commands byte-identical across runs in both formats")
