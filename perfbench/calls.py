"""The program calls that make up one operation of each workload.

This module imports only the standard library and ``polkit``, so running it
as a script measures what a workload pays before its first timed operation:
interpreter start, ``import polkit`` and the first program call.

    PYTHONPATH=src python perfbench/calls.py <workload>

``run.py`` times that script from outside to obtain ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGED_DATASET = ROOT / "src" / "polkit" / "data" / "ca_plus.dat"

_L_LETTERS = "spdfg"
_LABEL = re.compile(r"^([0-9]+)([spdfg])([0-9]+)/2$")


def label_parts(text: str) -> tuple[int, int, int]:
    """(n, l, twice-j) of a label such as ``4p3/2``."""
    m = _LABEL.match(text)
    if m is None:
        raise ValueError(f"bad label {text!r}")
    return int(m.group(1)), _L_LETTERS.index(m.group(2)), int(m.group(3))


def dataset_spec(text: str) -> dict:
    """Split dataset text into plain records, without using the program's parser."""
    spec: dict = {"levels": [], "e1": [], "core": None, "tails": []}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind, args = fields[0], fields[1:]
        if kind == "level":
            spec["levels"].append((args[0], float(args[1])))
        elif kind == "e1":
            spec["e1"].append((args[0], args[1], float(args[2]), float(args[3])))
        elif kind == "core":
            spec["core"] = (float(args[0]), float(args[1]))
        elif kind == "tail":
            spec["tails"].append((args[0], args[1], float(args[2]), float(args[3])))
        else:
            raise ValueError(f"unknown directive {kind!r}")
    return spec


def cli_main(main, argv: list[str]) -> tuple[int, str, str]:
    """Call ``polkit.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def angular_arg(polkit, twice_j: int):
    """An angular momentum as the radiative functions take it.

    ``HalfInt`` while the package exports it, else the plain twice-j int the
    package plans to move to.
    """
    half_int = getattr(polkit, "HalfInt", None)
    return half_int(twice_j) if half_int is not None else twice_j


def build_dataset(polkit, spec: dict, d_values: list[float]):
    """Build a ``Dataset`` through the public constructors, with e1 values replaced."""
    labels = {}
    levels = []
    for text, energy in spec["levels"]:
        label = polkit.LevelLabel(*label_parts(text))
        labels[text] = label
        levels.append(polkit.Level(label, energy))
    elements = [
        polkit.ReducedE1(labels[lo], labels[up], polkit.Quantity(d, unc, polkit.E_A0))
        for (lo, up, _, unc), d in zip(spec["e1"], d_values)
    ]
    core = polkit.Quantity(spec["core"][0], spec["core"][1], polkit.A0_CUBED)
    tails = {
        (labels[text], multipole): polkit.Quantity(value, unc, polkit.A0_CUBED)
        for text, multipole, value, unc in spec["tails"]
    }
    return polkit.Dataset(tuple(levels), tuple(elements), core, tails), labels


MC_UPPERS = ("4p1/2", "4p3/2")


def mc_draw(api, polkit, ds, labels, temperature: float, taus: dict) -> dict:
    """One Monte-Carlo draw: polarizabilities, clock shift, lifetimes, extraction.

    ``api`` supplies the program functions (the package itself, or traced
    wrappers of them); ``taus`` maps each 4p upper state to a (tau, unc) pair
    in ns for the inverse extraction towards 4s1/2.
    """
    ground, excited = labels["4s1/2"], labels["3d5/2"]
    g = api.assemble_breakdown(ds, ground, polkit.SCALAR)
    e0 = api.assemble_breakdown(ds, excited, polkit.SCALAR)
    e2 = api.assemble_breakdown(ds, excited, polkit.TENSOR)
    clock = api.clock_bbr_shift(
        g.total, e0.total, polkit.BBRConditions(temperature=temperature)
    )
    out = {"ground": g, "excited": e0, "tensor": e2, "clock": clock}
    for name in MC_UPPERS:
        upper = labels[name]
        j_upper = angular_arg(polkit, upper.j2)
        channels = []
        for el in ds.elements:
            if el.upper == upper:
                delta_e = polkit.energy_difference_au(ds, el.lower, upper).value
                rate = api.einstein_A(el.d, delta_e, j_upper)
                channels.append(polkit.DecayChannel(upper, el.lower, rate))
        tau = api.lifetime(channels)
        others = [ch for ch in channels if ch.lower != ground]
        delta_e = polkit.energy_difference_au(ds, ground, upper).value
        tau_expt = polkit.Quantity(taus[name][0], taus[name][1], polkit.NANOSECOND)
        d = api.extract_matrix_element(tau_expt, others, delta_e, j_upper)
        out[name] = {"channels": channels, "lifetime": tau, "others": others,
                     "delta_e": delta_e, "j_upper": j_upper, "d": d}
    return out


MEASURED_TAUS = {"4p1/2": (7.098, 0.020), "4p3/2": (6.924, 0.019)}
FIRST_SIXJ = (4, 2, 6, 2, 4, 4)


def first_call(workload: str) -> None:
    """Import the program and make the workload's first program call."""
    if workload == "cli_inprocess":
        import polkit.cli

        cli_main(polkit.cli.main, ["bbr"])
    elif workload == "physics_montecarlo":
        import polkit

        spec = dataset_spec(PACKAGED_DATASET.read_text(encoding="utf-8"))
        ds, labels = build_dataset(polkit, spec, [d for _, _, d, _ in spec["e1"]])
        mc_draw(polkit, polkit, ds, labels, 300.0, MEASURED_TAUS)
    elif workload == "sixj_sweep":
        from polkit.angular import _wigner6j_twice

        if hasattr(_wigner6j_twice, "cache_clear"):
            _wigner6j_twice.cache_clear()
        _wigner6j_twice(*FIRST_SIXJ)
    else:
        raise SystemExit(f"no in-process first call for workload {workload!r}")


if __name__ == "__main__":
    first_call(sys.argv[1])
