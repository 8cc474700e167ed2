"""Seeded input generators.  The same seed always gives the same inputs.

Every generator is an endless stream; a run consumes as much of it as fits
in its measuring time.
"""

from __future__ import annotations

import random
from array import array
from decimal import Decimal
from pathlib import Path

from calls import MEASURED_TAUS, label_parts

# ---- CLI argv mix -----------------------------------------------------------

INVALID_SHARE = 0.10
DATASET_FILE_SHARE = 0.30
FULL_PRECISION_SHARE = 0.25
GOOD_VARIANTS = 6

# name -> expected exit code of the invalid calls in the timed mix
INVALID_KINDS = {
    "unknown_state": 2,
    "malformed_label": 1,
    "tensor_on_j_half": 3,
    "dataset_syntax_error": 2,
    "dataset_semantic_error": 2,
}
# Open defects of the program (non-finite values are accepted): name -> the
# documented exit code.  The timed mix, in which no operation may fail, leaves
# them out; every CLI run probes each of them once before timing and reports
# whether it still stands (see ``defect_probes``).
KNOWN_DEFECTS = {
    "bbr_nan_temperature": 1,
    "dataset_nan_uncertainty": 2,
}


def _number_forms(token: str, rng: random.Random) -> str:
    """Another spelling of the same decimal number, hence the same float."""
    form = rng.randrange(3)
    if form == 1:
        return format(Decimal(token), "e")
    if form == 2 and "." in token and "e" not in token.lower():
        return token + "0" * rng.randrange(1, 3)
    return token


def dataset_variant(text: str, rng: random.Random) -> str:
    """The dataset with shuffled lines, new comments and whitespace, same physics."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = [fields for fields in lines if fields]
    rng.shuffle(lines)
    out = [f"# variant of the packaged Ca+ dataset ({len(lines)} directives)"]
    for i, fields in enumerate(lines):
        if rng.random() < 0.1:
            out.append("" if rng.random() < 0.5 else f"   # note {i}")
        cells = [fields[0]] + [
            _number_forms(f, rng) if f[0].isdigit() and "/" not in f else f
            for f in fields[1:]
        ]
        line = rng.choice(["", " ", "\t"]) + "".join(
            cell + rng.choice([" ", "  ", "\t"]) for cell in cells
        ).rstrip()
        if rng.random() < 0.2:
            line += f"  # line {i}"
        out.append(line + rng.choice(["", " ", "\t"]))
    return "\n".join(out) + "\n"


def _with_line(text: str, line: str, rng: random.Random) -> str:
    lines = text.splitlines()
    lines.insert(rng.randrange(1, len(lines) + 1), line)
    return "\n".join(lines) + "\n"


def write_dataset_files(text: str, seed: int, directory: Path) -> dict[str, list[str]]:
    """Write seeded dataset files; returns their paths by role.

    Roles: ``good`` (same physics as the packaged file), and one file for
    each of ``dataset_syntax_error``, ``dataset_semantic_error`` and
    ``dataset_nan_uncertainty``.
    """
    rng = random.Random(f"datasets-{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for k in range(GOOD_VARIANTS):
        files[f"good{k}"] = dataset_variant(text, rng)
    files["dataset_syntax_error"] = _with_line(
        dataset_variant(text, rng),
        rng.choice(["level 5d3/2 14x", "e1 4s1/2 4p1/2 2.8982", "bogus 1 2"]),
        rng,
    )
    files["dataset_semantic_error"] = _with_line(
        dataset_variant(text, rng),
        rng.choice(["e1 4s1/2 3d3/2 1.0 0.1", "level 4p1/2 25191.51"]),
        rng,
    )
    lines = dataset_variant(text, rng).splitlines()
    e1_rows = [i for i, line in enumerate(lines) if line.split()[:1] == ["e1"]]
    row = rng.choice(e1_rows)
    fields = lines[row].split("#", 1)[0].split()
    lines[row] = " ".join(fields[:4] + ["nan"])
    files["dataset_nan_uncertainty"] = "\n".join(lines) + "\n"

    paths: dict[str, list[str]] = {"good": []}
    for name, content in files.items():
        path = directory / f"{name}.dat"
        path.write_text(content, encoding="utf-8")
        paths.setdefault("good" if name.startswith("good") else name, []).append(str(path))
    return paths


def _valid_command(rng: random.Random, states: list[str]) -> tuple[list[str], str, tuple]:
    """(argv, kind, params) of a command that must succeed."""
    r = rng.random()
    if r < 0.33:
        state = rng.choice(states)
        return ["polarizability", "--state", state], "polarizability", (state, "scalar")
    if r < 0.55:
        state = rng.choice([s for s in states if label_parts(s)[2] >= 3])
        argv = ["polarizability", "--state", state, "--multipole", "tensor"]
        return argv, "polarizability", (state, "tensor")
    if r < 0.78:
        if rng.random() < 0.2:
            return ["bbr"], "bbr", (300.0, 0.0)
        # fixed-point spelling: argparse takes "-1e-05" for an option, "-0.00001" not
        temperature = f"{rng.uniform(50.0, 600.0):.3f}"
        eta = "0.0" if rng.random() < 0.5 else f"{rng.uniform(-0.05, 0.05):.5f}"
        argv = ["bbr", "--temperature", temperature, "--eta", eta]
        return argv, "bbr", (float(temperature), float(eta))
    upper = rng.choice(sorted(MEASURED_TAUS))
    if r < 0.89:
        return ["lifetime", "--state", upper], "lifetime", (upper,)
    tau, tau_unc = MEASURED_TAUS[upper]
    if rng.random() >= 0.2:
        tau = float(f"{rng.gauss(tau, tau_unc):.4f}")
    argv = ["extract", "--upper", upper, "--lower", "4s1/2",
            "--tau-ns", f"{tau:.4f}", "--tau-unc-ns", f"{tau_unc:.4f}"]
    return argv, "extract", (upper, "4s1/2", tau, tau_unc)


def cli_ops(seed: int, states: list[str], files: dict[str, list[str]]):
    """Endless seeded argv mix, as (argv, expect).

    ``expect`` is ("ok", kind, params) for a command that must succeed with
    the given physics, or ("exit", code, invalid_kind) for one that must be
    refused with that exit code.
    """
    rng = random.Random(f"cli-{seed}")
    half_states = [s for s in states if label_parts(s)[2] == 1]
    while True:
        dataset = None
        if rng.random() < INVALID_SHARE:
            kind = rng.choice(sorted(INVALID_KINDS))
            expect = ("exit", INVALID_KINDS[kind], kind)
            if kind == "unknown_state":
                argv = [rng.choice(["polarizability", "lifetime"]), "--state",
                        rng.choice(["5d5/2", "7p1/2", "13f7/2", "7s1/2"])]
            elif kind == "malformed_label":
                argv = ["polarizability", "--state", rng.choice(["4x1/2", "4s3/2", "p3/2", "4p3"])]
            elif kind == "tensor_on_j_half":
                argv = ["polarizability", "--state", rng.choice(half_states),
                        "--multipole", "tensor"]
            else:
                argv = _valid_command(rng, states)[0]
                dataset = files[kind][0]
        else:
            argv, kind, params = _valid_command(rng, states)
            expect = ("ok", kind, params)
            if rng.random() < DATASET_FILE_SHARE:
                dataset = rng.choice(files["good"])
        if dataset is not None:
            argv += ["--dataset", dataset]
        argv += ["--format", rng.choice(["table", "machine"])]
        if rng.random() < FULL_PRECISION_SHARE:
            argv.append("--full-precision")
        yield argv, expect


def defect_probes(files: dict[str, list[str]]) -> list[tuple[str, list[str], int]]:
    """(kind, argv, documented exit code) of each known-defect input."""
    return [
        ("bbr_nan_temperature", ["bbr", "--temperature", "nan"],
         KNOWN_DEFECTS["bbr_nan_temperature"]),
        ("dataset_nan_uncertainty", ["bbr", "--dataset", files["dataset_nan_uncertainty"][0]],
         KNOWN_DEFECTS["dataset_nan_uncertainty"]),
    ]


# ---- Monte-Carlo draws ------------------------------------------------------


def mc_draws(seed: int, spec: dict):
    """Endless seeded draws of (e1 values, temperature, taus); draw 0 is nominal."""
    rng = random.Random(f"mc-{seed}")
    nominal = [d for _, _, d, _ in spec["e1"]]
    yield nominal, 300.0, dict(MEASURED_TAUS)
    while True:
        values = []
        for d, unc in ((d, unc) for _, _, d, unc in spec["e1"]):
            x = rng.gauss(d, unc)
            while x <= 0.0:
                x = rng.gauss(d, unc)
            values.append(x)
        temperature = rng.uniform(100.0, 600.0)
        taus = {k: (rng.gauss(tau, unc), unc) for k, (tau, unc) in MEASURED_TAUS.items()}
        yield values, temperature, taus


# ---- 6j tuples --------------------------------------------------------------

MAX_TWICE_J = 15
BROKEN_PROB = 0.1  # chance that a broken tuple precedes each valid one
VALID_COUNT = 363_196  # valid tuples with every twice-j <= 15


def pack(t) -> int:
    a, b, c, d, e, f = t
    return a | b << 4 | c << 8 | d << 12 | e << 16 | f << 20


def unpack(p: int) -> tuple[int, int, int, int, int, int]:
    return (p & 15, p >> 4 & 15, p >> 8 & 15, p >> 12 & 15, p >> 16 & 15, p >> 20 & 15)


def valid_sixj() -> array:
    """Every argument set {a b c; d e f} with twice-j <= 15 that meets all triangle rules."""
    m = MAX_TWICE_J
    out = array("l")
    for a in range(m + 1):
        for b in range(m + 1):
            for c in range(abs(a - b), min(a + b, m) + 1, 2):
                for d in range(m + 1):
                    for f in range(abs(d - b), min(d + b, m) + 1, 2):
                        lo = max(abs(a - f), abs(d - c))
                        lo += (lo + a + f) % 2
                        hi = min(a + f, d + c, m)
                        if (a + f + d + c) % 2:
                            continue
                        base = a | b << 4 | c << 8 | d << 12 | f << 20
                        out.extend(base | e << 16 for e in range(lo, hi + 1, 2))
    return out


def sixj_passes(seed: int):
    """Endless seeded passes over the valid tuples, each a packed ``array``.

    A pass visits every valid tuple once in a seeded order.  Before each,
    with probability ``BROKEN_PROB``, it inserts a broken tuple: that tuple
    with one argument shifted by one, which fails the triangle parity rule.
    No tuple repeats within a pass.
    """
    rng = random.Random(f"sixj-{seed}")
    valid = valid_sixj()
    while True:
        order = array("l", valid)
        rng.shuffle(order)
        seen: set[int] = set()
        sweep = array("l")
        for p in order:
            if rng.random() < BROKEN_PROB:
                t = list(unpack(p))
                k = rng.randrange(6)
                t[k] += 1 if t[k] == 0 or (t[k] < MAX_TWICE_J and rng.random() < 0.5) else -1
                q = pack(t)
                if q not in seen:
                    seen.add(q)
                    sweep.append(q)
            sweep.append(p)
        yield sweep
