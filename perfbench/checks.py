"""Independent expected values and output checks.

Nothing here calls the program.  ``Reference`` recomputes every physics
result from the dataset text with its own formulas; ``sixj_oracle`` is an
exact-rational Racah sum.  The published Ca+ numbers are checked against
the reference model with the acceptance suite's tolerances, so a program
result that matches the reference also matches the fixed points.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from calls import dataset_spec, label_parts

# Pinned literals, the same CODATA-derived values the program documents.
HARTREE_IN_CM = 219474.6313632
RATE_AU_IN_PER_S = 4.1341373336e16
SPEED_OF_LIGHT_AU = 137.035999
POLARIZABILITY_AU_IN_SI = 2.48832e-8
BBR_FIELD_300K = 831.9

# Published values: (state, multipole) -> printed total and uncertainty.
FIXED_POLARIZABILITY = {
    ("4s1/2", "scalar"): ("76.1", "1.1"),
    ("3d5/2", "scalar"): ("32.0", "1.1"),
    ("3d5/2", "tensor"): ("-24.5", "0.4"),
}
FIXED_CLOCK_300K = (0.380, 0.0005, 0.013, 0.001)  # value, tol, unc, tol
FIXED_A_MHZ = {  # (lower, upper) -> MHz, within 0.05 MHz
    ("4s1/2", "4p1/2"): 136.0,
    ("4s1/2", "4p3/2"): 139.7,
    ("3d3/2", "4p1/2"): 9.452,
    ("3d3/2", "4p3/2"): 0.997,
    ("3d5/2", "4p3/2"): 8.877,
}
FIXED_EXTRACT = {  # upper -> tau, tau_unc, d, d_unc (d and unc within 0.001)
    "4p1/2": (7.098, 0.020, 2.849, 0.004),
    "4p3/2": (6.924, 0.019, 4.023, 0.006),
}

REL = 1e-9  # program vs reference, same formulas in another summation order


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---- Wigner 6j oracle -------------------------------------------------------


def triad(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def sixj_exact(t1, t2, t3, t4, t5, t6) -> tuple[int, Fraction]:
    """(sign, square) of {j1 j2 j3; j4 j5 j6} from twice-j ints, exactly.

    Brute-force Racah sum: every z from 0 up is tried and terms with a
    negative factorial argument are skipped, so no summation bounds are
    derived.  Broken triangles give (0, 0).
    """
    triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
    if not all(triad(*t) for t in triads):
        return 0, Fraction(0)
    fact = math.factorial
    delta = Fraction(1)
    for a, b, c in triads:
        delta *= Fraction(
            fact((a + b - c) // 2) * fact((a - b + c) // 2) * fact((b + c - a) // 2),
            fact((a + b + c) // 2 + 1),
        )
    lows = [sum(t) // 2 for t in triads]
    highs = [(t1 + t2 + t4 + t5) // 2, (t2 + t3 + t5 + t6) // 2, (t3 + t1 + t6 + t4) // 2]
    total = Fraction(0)
    for z in range((t1 + t2 + t3 + t4 + t5 + t6) // 2 + 2):
        args = [z - lo for lo in lows] + [hi - z for hi in highs]
        if min(args) < 0:
            continue
        denom = 1
        for k in args:
            denom *= fact(k)
        total += Fraction((-1) ** z * fact(z + 1), denom)
    if total == 0:
        return 0, Fraction(0)
    return (1 if total > 0 else -1), delta * total * total


def sixj_oracle(*twice: int) -> float:
    """The 6j symbol as the float nearest its exact value (within one ulp)."""
    sign, square = sixj_exact(*twice)
    if sign == 0:
        return 0.0
    p, q = square.numerator, square.denominator
    k = max(0, (q.bit_length() - p.bit_length()) // 2 + 80)
    root = math.isqrt((p << (2 * k)) // q)
    return sign * float(Fraction(root, 1 << k))


def sixj_agrees(value: float, oracle: float, ulps: int = 4) -> bool:
    if oracle == 0.0:
        return value == 0.0
    return abs(value - oracle) <= ulps * math.ulp(oracle)


# ---- physics reference model ------------------------------------------------


def _tensor_prefactor(j2: int) -> float:
    j = Fraction(j2, 2)
    return math.sqrt(float(5 * j * (2 * j - 1) / (6 * (j + 1) * (2 * j + 1) * (2 * j + 3))))


class Reference:
    """Expected results for one dataset, from the benchmark's own formulas."""

    def __init__(self, text: str):
        spec = dataset_spec(text)
        self.energy = dict(spec["levels"])
        self.e1 = spec["e1"]
        self.core = spec["core"]
        self.tails = {(lab, mult): (v, u) for lab, mult, v, u in spec["tails"]}
        self._coefs: dict = {}

    def coupled_states(self) -> list[str]:
        states = {lab for lo, up, _, _ in self.e1 for lab in (lo, up)}
        return sorted(states, key=lambda s: (self.energy[s], s))

    def _coefficients(self, state: str, multipole: str) -> list[tuple[int, float]]:
        """(e1 index, c) with contribution c * d**2, for each element coupling state."""
        key = (state, multipole)
        if key not in self._coefs:
            jv = label_parts(state)[2]
            rows = []
            for i, (lo, up, _, _) in enumerate(self.e1):
                if state not in (lo, up):
                    continue
                partner = up if state == lo else lo
                de = (self.energy[partner] - self.energy[state]) / HARTREE_IN_CM
                if multipole == "scalar":
                    c = 2.0 / (3.0 * (jv + 1)) / de
                else:
                    jk = label_parts(partner)[2]
                    phase = -1 if ((jv + jk) // 2 + 1) % 2 else 1
                    sixj = sixj_oracle(jv, 2, jk, 2, jv, 4)
                    c = -4.0 * _tensor_prefactor(jv) * phase * sixj / de
                rows.append((i, c))
            self._coefs[key] = rows
        return self._coefs[key]

    def polarizability(self, state: str, multipole: str, d=None) -> tuple[float, float]:
        """Total and quadrature uncertainty; ``d`` replaces the e1 values."""
        d = d or [x[2] for x in self.e1]
        value, var = 0.0, 0.0
        for i, c in self._coefficients(state, multipole):
            term = c * d[i] ** 2
            value += term
            var += (2.0 * abs(term) * self.e1[i][3] / d[i]) ** 2
        tail = self.tails.get((state, multipole), (0.0, 0.0))
        value += tail[0]
        var += tail[1] ** 2
        if multipole == "scalar":
            value += self.core[0]
            var += self.core[1] ** 2
        return value, math.sqrt(var)

    def clock(self, temperature: float, eta: float, d=None) -> tuple[float, set]:
        """4s1/2 -> 3d5/2 shift in Hz and its uncertainty, plain and core-correlated."""
        ag, ug = self.polarizability("4s1/2", "scalar", d)
        ae, ue = self.polarizability("3d5/2", "scalar", d)
        factor = -0.5 * BBR_FIELD_300K**2 * (temperature / 300.0) ** 4 * (1.0 + eta)
        factor *= POLARIZABILITY_AU_IN_SI
        quad = abs(factor) * math.sqrt(ug**2 + ue**2)
        core = abs(factor) * math.sqrt(max(ug**2 + ue**2 - 2.0 * self.core[1] ** 2, 0.0))
        return factor * (ae - ag), {quad, core}

    def _rate(self, lower: str, upper: str, d: float, unc: float) -> tuple[float, float]:
        de = (self.energy[upper] - self.energy[lower]) / HARTREE_IN_CM
        per_d2 = self._per_d2(de, label_parts(upper)[2])
        value = per_d2 * d**2
        return value, 2.0 * value * unc / d

    @staticmethod
    def _per_d2(de: float, j2_upper: int) -> float:
        rate_au = (4.0 / 3.0) * de**3 / SPEED_OF_LIGHT_AU**3 / (j2_upper + 1)
        return rate_au * RATE_AU_IN_PER_S / 1e6

    def channels(self, upper: str, d=None) -> dict[str, tuple[float, float]]:
        d = d or [x[2] for x in self.e1]
        return {
            lo: self._rate(lo, up, d[i], unc)
            for i, (lo, up, _, unc) in enumerate(self.e1)
            if up == upper
        }

    def lifetime(self, upper: str, d=None) -> tuple[float, float]:
        rates = self.channels(upper, d).values()
        total = sum(a for a, _ in rates)
        return 1000.0 / total, 1000.0 * math.sqrt(sum(u**2 for _, u in rates)) / total**2

    def extract(self, upper: str, lower: str, tau: float, tau_unc: float, d=None):
        others = [a for lo, a in self.channels(upper, d).items() if lo != lower]
        residual = 1000.0 / tau - sum(a for a, _ in others)
        de = (self.energy[upper] - self.energy[lower]) / HARTREE_IN_CM
        value = math.sqrt(residual / self._per_d2(de, label_parts(upper)[2]))
        rate_unc = math.hypot(1000.0 * tau_unc / tau**2, math.sqrt(sum(u**2 for _, u in others)))
        return value, value * rate_unc / (2.0 * residual)

    def fixed_point_errors(self) -> list[str]:
        """Departures of this model from the published Ca+ numbers."""
        errors = []
        for (state, mult), (value, unc) in FIXED_POLARIZABILITY.items():
            v, u = self.polarizability(state, mult)
            if (f"{v:.1f}", f"{u:.1f}") != (value, unc):
                errors.append(f"{state} {mult}: {v:.1f}({u:.1f}) != {value}({unc})")
        v, uncs = self.clock(300.0, 0.0)
        ref, tol, ref_unc, unc_tol = FIXED_CLOCK_300K
        if abs(v - ref) > tol or any(abs(u - ref_unc) > unc_tol for u in uncs):
            errors.append(f"clock shift {v} {sorted(uncs)}")
        for (lower, upper), published in FIXED_A_MHZ.items():
            a = self.channels(upper)[lower][0]
            if abs(a - published) > 0.05:
                errors.append(f"A {lower}-{upper}: {a}")
        for upper, (tau, tau_unc, d_ref, unc_ref) in FIXED_EXTRACT.items():
            d, u = self.extract(upper, "4s1/2", tau, tau_unc)
            if abs(d - d_ref) > 0.001 or abs(u - unc_ref) > 0.001:
                errors.append(f"extract {upper}: {d}({u})")
        return errors


# ---- output checks ----------------------------------------------------------


class Expect:
    """The result a valid command must report: one value and its admissible uncertainties."""

    def __init__(self, value: float, uncs):
        self.value = value
        self.uncs = set(uncs) if isinstance(uncs, (set, list, tuple)) else {uncs}

    def unc_ok(self, unc: float, tol: float) -> bool:
        return any(abs(unc - u) <= tol for u in self.uncs)


_NUMBER = r"[0-9][0-9.]*(?:e[-+]?[0-9]+)?"
_TOKEN = re.compile(rf"(?<![\w./])(-?{_NUMBER})(?:\(({_NUMBER})\))?(?![\w/])")


def _decimals(text: str) -> int | None:
    """Printed decimals of a rounded number; None for a full-precision repr."""
    if "e" in text:
        return None
    places = len(text.split(".")[1]) if "." in text else 0
    return places if places <= 3 else None


def table_matches(stdout: str, expect: Expect) -> bool:
    """Some value(unc) token of a table shows the expected result at its printed precision.

    Layout-agnostic on purpose: the report format may change, the physics may not.
    """
    for value_text, unc_text in _TOKEN.findall(stdout):
        try:
            value = float(value_text)
        except ValueError:
            continue
        places = _decimals(value_text)
        if places is None:
            if not close(value, expect.value):
                continue
        elif abs(value - expect.value) > 0.5 * 10.0**-places * (1 + 1e-9) + 1e-12:
            continue
        if not unc_text:
            if "." in value_text or "e" in value_text:
                return True
            continue
        unc = float(unc_text)
        if places is None:
            tol = 1e-6 * max(unc, 1e-300)
        elif "." not in unc_text and places:
            unc, tol = unc * 10.0**-places, 0.5 * 10.0**-places + 1e-12
        else:
            tol = 0.5 * 10.0 ** -(_decimals(unc_text) or 0) + 1e-12
        if expect.unc_ok(unc, tol):
            return True
    return False


def machine_matches(stdout: str, expect: Expect, report_cls) -> bool:
    """JSON output: some totals quantity matches and the report round-trips."""
    payload = json.loads(stdout)
    report = report_cls.from_json(stdout)
    if report_cls.from_json(report.to_json()) != report:
        return False
    for entry in payload.get("totals", {}).values():
        if isinstance(entry, dict) and {"value", "unc"} <= entry.keys():
            if close(entry["value"], expect.value) and expect.unc_ok(
                entry["unc"], 1e-6 * max(entry["unc"], 1e-300)
            ):
                return True
    return False
