import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polkit import tensor_prefactor_C, triangle_ok, wigner6j


def brute_racah_6j(a, b, c, d, e, f):
    """Independent brute-force Racah sum over Fractions (test oracle).

    Arguments are twice-j ints.  No precomputed summation bounds: every term
    with a negative or half-integer factorial argument is skipped.
    """

    def fact(n2):
        if n2 % 2 or n2 < 0:
            return None
        return math.factorial(n2 // 2)

    def tri(x, y, z):
        parts = [fact(x + y - z), fact(x - y + z), fact(-x + y + z), fact(x + y + z + 2)]
        if None in parts:
            return None
        return Fraction(parts[0] * parts[1] * parts[2], parts[3])

    triangles = [tri(a, b, c), tri(a, e, f), tri(d, b, f), tri(d, e, c)]
    if None in triangles:
        return 0.0
    total = Fraction(0)
    for t in range(0, (a + b + c + d + e + f) // 2 + 2):
        denoms = [
            fact(2 * t - a - b - c),
            fact(2 * t - a - e - f),
            fact(2 * t - d - b - f),
            fact(2 * t - d - e - c),
            fact(a + b + d + e - 2 * t),
            fact(b + c + e + f - 2 * t),
            fact(a + c + d + f - 2 * t),
        ]
        if None in denoms:
            continue
        prod = 1
        for x in denoms:
            prod *= x
        total += Fraction((-1) ** t * math.factorial(t + 1), prod)
    if total == 0:
        return 0.0
    pref = triangles[0] * triangles[1] * triangles[2] * triangles[3]
    sign = 1 if total > 0 else -1
    return sign * math.sqrt(float(pref * total * total))


def valid_tuples(max_twice, step=1):
    for a in range(0, max_twice + 1, step):
        for b in range(0, max_twice + 1, step):
            for c in range(abs(a - b), min(a + b, max_twice) + 1, 2):
                for d in range(0, max_twice + 1, step):
                    for f in range(abs(d - b), min(d + b, max_twice) + 1, 2):
                        lo = max(abs(a - f), abs(d - c))
                        hi = min(a + f, d + c, max_twice)
                        for e in range(lo, hi + 1):
                            if (a + e + f) % 2 or (d + e + c) % 2:
                                continue
                            yield (a, b, c, d, e, f)


@st.composite
def sixj_arguments(draw, max_twice=15):
    a = draw(st.integers(0, max_twice))
    b = draw(st.integers(0, max_twice))
    c = draw(st.integers(abs(a - b) // 2, min(a + b, max_twice) // 2)) * 2 + (a + b) % 2
    d = draw(st.integers(0, max_twice))
    f = draw(st.integers(abs(d - b) // 2, min(d + b, max_twice) // 2)) * 2 + (d + b) % 2
    lo = max(abs(a - f), abs(d - c))
    hi = min(a + f, d + c)
    if lo > hi or (lo + a + f) % 2:
        lo_adj = lo + (1 if (lo + a + f) % 2 else 0)
    else:
        lo_adj = lo
    if lo_adj > hi:
        return None
    e = draw(st.integers(0, (hi - lo_adj) // 2)) * 2 + lo_adj
    return (a, b, c, d, e, f)


class TestTriangle:
    def test_half_half_one(self):
        assert triangle_ok(1, 1, 2)

    def test_exceeds_sum(self):
        assert not triangle_ok(1, 1, 4)

    def test_boundary(self):
        assert triangle_ok(5, 2, 3)

    def test_half_integer_perimeter_rejected(self):
        assert not triangle_ok(1, 1, 1)


class TestWigner6j:
    def test_special_case_closed_form(self):
        # {j1 j2 j3; 0 j3 j2} = (-1)^(j1+j2+j3) / sqrt((2j2+1)(2j3+1))
        for a, b, c in [(2, 2, 2), (1, 3, 2), (5, 4, 3), (6, 2, 4), (3, 3, 4)]:
            if (a + b + c) % 2:
                continue
            expected = (-1) ** ((a + b + c) // 2) / math.sqrt((b + 1) * (c + 1))
            assert wigner6j(a, b, c, 0, c, b) == pytest.approx(expected, rel=1e-14)

    def test_one_one_one(self):
        assert wigner6j(2, 2, 2, 0, 2, 2) == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_racah_oracle_value(self):
        got = wigner6j(5, 2, 3, 2, 5, 4)
        want = brute_racah_6j(5, 2, 3, 2, 5, 4)
        assert got == pytest.approx(want, rel=1e-13)

    def test_broken_triad_is_zero(self):
        assert wigner6j(1, 1, 4, 2, 2, 2) == 0.0
        assert wigner6j(2, 2, 2, 2, 2, 5) == 0.0

    def test_oracle_equivalence_exhaustive_small(self):
        for args in valid_tuples(6):
            mine = wigner6j(*args)
            ref = brute_racah_6j(*args)
            assert mine == ref, args

    def test_sympy_spot_checks(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import wigner_6j

        rng = random.Random(20240811)
        pool = list(valid_tuples(15, step=3))
        for args in rng.sample(pool, 40):
            ref = float(wigner_6j(*(sympy.Rational(t, 2) for t in args)))
            assert wigner6j(*args) == pytest.approx(ref, rel=1e-12, abs=1e-15), args

    @settings(max_examples=200, deadline=None)
    @given(sixj_arguments())
    def test_symmetry_orbit(self, args):
        if args is None:
            return
        a, b, c, d, e, f = args
        base = wigner6j(a, b, c, d, e, f)
        orbit = [
            (b, a, c, e, d, f),
            (c, b, a, f, e, d),
            (a, c, b, d, f, e),
            (d, e, c, a, b, f),
            (a, e, f, d, b, c),
            (d, b, f, a, e, c),
        ]
        for other in orbit:
            assert wigner6j(*other) == pytest.approx(base, rel=1e-12, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(0, 8),
        b=st.integers(0, 8),
        c=st.integers(0, 8),
        d=st.integers(0, 8),
    )
    def test_orthogonality(self, a, b, c, d):
        # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta_pq / (2p+1)
        ps = [p for p in range(0, 17) if triangle_ok(a, d, p) and triangle_ok(c, b, p)]
        xs = [x for x in range(0, 17) if triangle_ok(a, b, x) and triangle_ok(c, d, x)]
        for p in ps[:3]:
            for q in ps[:3]:
                acc = sum(
                    (x + 1) * wigner6j(a, b, x, c, d, p) * wigner6j(a, b, x, c, d, q)
                    for x in xs
                )
                expected = 1.0 / (p + 1) if p == q else 0.0
                assert acc == pytest.approx(expected, abs=1e-12)


class TestTensorPrefactor:
    def test_five_halves(self):
        assert tensor_prefactor_C(5) == math.sqrt(50.0 / 1008.0)

    def test_three_halves(self):
        assert tensor_prefactor_C(3) == math.sqrt(30.0 / 720.0)

    def test_vanishes_below_one(self):
        assert tensor_prefactor_C(1) == 0.0
        assert tensor_prefactor_C(0) == 0.0
