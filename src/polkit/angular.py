"""Exact angular-momentum coupling coefficients.

Every angular momentum j is passed as the int twice its value (``j2``), as
in :attr:`polkit.dataset.LevelLabel.j2`.  Wigner 6j symbols are evaluated
with the Racah single-sum formula in integer arithmetic: the series is
summed over one common integer denominator, and the only floating-point
operations are one correctly rounded int/int division and one square root,
so there is no cancellation error.  Arguments out of the triangle conditions
return 0 by convention.
"""

from __future__ import annotations

import math


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    """True iff |a-b| <= c <= a+b and a+b+c is an integer (twice-j arguments)."""
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def wigner6j(j2_1: int, j2_2: int, j2_3: int, j2_4: int, j2_5: int, j2_6: int) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} of twice-j ints; 0 for broken triangles."""
    triads = ((j2_1, j2_2, j2_3), (j2_1, j2_5, j2_6), (j2_4, j2_2, j2_6), (j2_4, j2_5, j2_3))
    if not all(triangle_ok(*triad) for triad in triads):
        return 0.0

    # Racah sum over t in [lo, hi], in units of full (not twice) spins.
    a = [sum(triad) // 2 for triad in triads]
    b = [(j2_1 + j2_2 + j2_4 + j2_5) // 2, (j2_2 + j2_3 + j2_5 + j2_6) // 2,
         (j2_3 + j2_1 + j2_6 + j2_4) // 2]
    lo, hi = max(a), min(b)
    # Term t is (-1)^t (t+1)! / (prod (t-a_i)! prod (b_j-t)!).  Over the common
    # denominator D = prod (hi-a_i)! prod (b_j-lo)! each term is the integer
    # (t+1)! prod (hi-a_i)!/(t-a_i)! prod (b_j-lo)!/(b_j-t)!, so sum = s / D.
    s = 0
    for t in range(lo, hi + 1):
        term = math.factorial(t + 1)
        for ai in a:
            term *= math.perm(hi - ai, hi - t)
        for bj in b:
            term *= math.perm(bj - lo, t - lo)
        s += -term if t % 2 else term
    if s == 0:
        return 0.0

    # value = sqrt(prod Delta^2) * s / D with Delta(abc)^2 = (a+b-c)! (a-b+c)!
    # (-a+b+c)! / (a+b+c+1)!; taken as sign * sqrt(num / den) so that one
    # rounding and one sqrt are involved.
    num = s * s
    den = 1
    for ai in a:
        den *= math.factorial(hi - ai)
    for bj in b:
        den *= math.factorial(bj - lo)
    den *= den
    for ta, tb, tc in triads:
        num *= (
            math.factorial((ta + tb - tc) // 2)
            * math.factorial((ta - tb + tc) // 2)
            * math.factorial((tb + tc - ta) // 2)
        )
        den *= math.factorial((ta + tb + tc) // 2 + 1)
    magnitude = math.sqrt(num / den)
    return -magnitude if s < 0 else magnitude


# The kernel's historical name; only the benchmark (perfbench) still imports it.
_wigner6j_twice = wigner6j


def tensor_prefactor_C(j2: int) -> float:
    """Prefactor of the tensor polarizability sum for a state of spin j = j2/2.

    C = sqrt(5 j (2j-1) / (6 (j+1) (2j+1) (2j+3))); zero when j < 1, where
    the tensor part vanishes identically.
    """
    if j2 < 2:
        return 0.0
    return math.sqrt(5 * j2 * (j2 - 1) / (6 * (j2 + 1) * (j2 + 2) * (j2 + 3)))
