"""Command-line front end.

Subcommands: ``polarizability``, ``bbr``, ``lifetime``, ``extract``.
The dataset is taken from ``--dataset``, else the ``POLKIT_DATASET``
environment variable, else the packaged Ca+ reference file.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 computation precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from importlib import resources
from typing import Any, Sequence

from .bbr import BBRConditions, bbr_shift_state, clock_bbr_shift
from .dataset import (
    NANOSECOND,
    SCALAR,
    TENSOR,
    Dataset,
    DatasetError,
    LevelLabel,
    Quantity,
    UnknownLevelError,
    energy_difference_au,
    parse_dataset,
)
from .polarizability import assemble_breakdown
from .radiative import DecayChannel, einstein_A, extract_matrix_element, lifetime
from .report import Report, quantity_to_dict, render_table

ENV_DATASET = "POLKIT_DATASET"
BUILTIN_DATASET = "<builtin ca_plus.dat>"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PRECONDITION = 3


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@functools.cache
def builtin_dataset_text() -> str:
    return resources.files("polkit").joinpath("data/ca_plus.dat").read_text("utf-8")


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, str]:
    path = args.dataset or os.environ.get(ENV_DATASET)
    if path:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
        return parse_dataset(text), path
    return parse_dataset(builtin_dataset_text()), BUILTIN_DATASET


def _parse_label(text: str) -> LevelLabel:
    try:
        return LevelLabel.parse(text)
    except DatasetError as exc:
        raise UsageError(str(exc)) from exc


def _emit(report: Report, args: argparse.Namespace) -> int:
    if args.format == "machine":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(render_table(report, full_precision=args.full_precision))
    return EXIT_OK


def _decay_channels(ds: Dataset, upper: LevelLabel) -> list[DecayChannel]:
    channels = []
    for el in ds.elements_coupling(upper):
        if el.upper != upper:
            continue
        delta_e = energy_difference_au(ds, el.lower, upper).value
        rate = einstein_A(el.d, delta_e, upper.j2)
        channels.append(DecayChannel(upper, el.lower, rate))
    return channels


def cmd_polarizability(args: argparse.Namespace) -> int:
    ds, path = _load_dataset(args)
    state = _parse_label(args.state)
    breakdown = assemble_breakdown(ds, state, args.multipole)
    rows = []
    for contrib in breakdown.main:
        row: dict[str, Any] = {
            "transition": contrib.transition,
            "d": quantity_to_dict(contrib.d),
            "alpha0": quantity_to_dict(contrib.alpha0),
        }
        if contrib.alpha2 is not None:
            row["alpha2"] = quantity_to_dict(contrib.alpha2)
        rows.append(row)
    report = Report(
        kind="polarizability",
        inputs={"dataset": path, "state": str(state), "multipole": args.multipole},
        rows=tuple(rows),
        totals={
            "tail": quantity_to_dict(breakdown.tail),
            "core": quantity_to_dict(breakdown.core),
            "total": quantity_to_dict(breakdown.total),
        },
    )
    return _emit(report, args)


def cmd_bbr(args: argparse.Namespace) -> int:
    if args.temperature <= 0:
        raise UsageError(f"temperature must be positive, got {args.temperature}")
    ds, path = _load_dataset(args)
    ground = _parse_label(args.ground)
    excited = _parse_label(args.excited)
    cond = BBRConditions(temperature=args.temperature, eta=args.eta)
    alpha_g = assemble_breakdown(ds, ground, SCALAR).total
    alpha_e = assemble_breakdown(ds, excited, SCALAR).total
    rows = []
    for state, alpha in ((ground, alpha_g), (excited, alpha_e)):
        rows.append(
            {
                "state": str(state),
                "alpha0": quantity_to_dict(alpha),
                "shift": quantity_to_dict(bbr_shift_state(alpha, cond)),
            }
        )
    report = Report(
        kind="bbr",
        inputs={
            "dataset": path,
            "ground": str(ground),
            "excited": str(excited),
            "temperature": args.temperature,
            "eta": args.eta,
        },
        rows=tuple(rows),
        totals={
            "clock": quantity_to_dict(clock_bbr_shift(alpha_g, alpha_e, cond)),
            "clock_core_correlated": quantity_to_dict(
                clock_bbr_shift(alpha_g, alpha_e, cond, ds.core_alpha.unc)
            ),
        },
    )
    return _emit(report, args)


def cmd_lifetime(args: argparse.Namespace) -> int:
    ds, path = _load_dataset(args)
    state = _parse_label(args.state)
    ds.level(state)
    channels = _decay_channels(ds, state)
    if not channels:
        raise ValueError(f"state {state} has no decay channels in the dataset")
    tau = lifetime(channels)
    rows = tuple(
        {
            "upper": str(ch.upper),
            "lower": str(ch.lower),
            "A": quantity_to_dict(ch.A),
        }
        for ch in channels
    )
    report = Report(
        kind="lifetime",
        inputs={"dataset": path, "state": str(state)},
        rows=rows,
        totals={"lifetime": quantity_to_dict(tau)},
    )
    return _emit(report, args)


def cmd_extract(args: argparse.Namespace) -> int:
    if args.tau_ns <= 0:
        raise UsageError(f"lifetime must be positive, got {args.tau_ns}")
    if args.tau_unc_ns < 0:
        raise UsageError(f"lifetime uncertainty must be non-negative, got {args.tau_unc_ns}")
    ds, path = _load_dataset(args)
    upper = _parse_label(args.upper)
    lower = _parse_label(args.lower)
    ds.level(upper)
    ds.level(lower)
    others = [ch for ch in _decay_channels(ds, upper) if ch.lower != lower]
    delta_e = energy_difference_au(ds, lower, upper).value
    if delta_e <= 0:
        raise ValueError(f"{upper} does not lie above {lower}")
    tau = Quantity(args.tau_ns, args.tau_unc_ns, NANOSECOND)
    d = extract_matrix_element(tau, others, delta_e, upper.j2)
    totals: dict[str, Any] = {"d_extracted": quantity_to_dict(d)}
    for el in ds.elements_coupling(upper):
        if el.partner(upper) == lower:
            totals["d_theory"] = quantity_to_dict(el.d)
            totals["percent_difference"] = (el.d.value - d.value) / d.value * 100.0
            break
    rows = tuple(
        {
            "upper": str(ch.upper),
            "lower": str(ch.lower),
            "A": quantity_to_dict(ch.A),
        }
        for ch in others
    )
    report = Report(
        kind="extract",
        inputs={
            "dataset": path,
            "upper": str(upper),
            "lower": str(lower),
            "tau_ns": args.tau_ns,
            "tau_unc_ns": args.tau_unc_ns,
        },
        rows=rows,
        totals=totals,
    )
    return _emit(report, args)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", help="dataset file path (default: $POLKIT_DATASET or builtin)")
    sub.add_argument("--format", choices=("table", "machine"), default="table")
    sub.add_argument("--full-precision", action="store_true", help="disable display rounding")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _ArgumentParser(
        prog="polkit",
        description="Static polarizabilities, BBR clock shifts, and radiative lifetimes.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("polarizability", parents=[], help="per-state polarizability breakdown")
    p.add_argument("--state", required=True, help="state label, e.g. 4s1/2")
    p.add_argument("--multipole", choices=(SCALAR, TENSOR), default=SCALAR)
    _add_common(p)
    p.set_defaults(func=cmd_polarizability)

    p = subparsers.add_parser("bbr", help="blackbody shift of a clock transition")
    p.add_argument("--ground", default="4s1/2")
    p.add_argument("--excited", default="3d5/2")
    p.add_argument("--temperature", type=_finite_float, default=300.0, help="kelvin")
    p.add_argument("--eta", type=_finite_float, default=0.0, help="dynamic correction")
    _add_common(p)
    p.set_defaults(func=cmd_bbr)

    p = subparsers.add_parser("lifetime", help="radiative lifetime of a state")
    p.add_argument("--state", required=True, help="upper state label")
    _add_common(p)
    p.set_defaults(func=cmd_lifetime)

    p = subparsers.add_parser("extract", help="matrix element from a measured lifetime")
    p.add_argument("--upper", required=True)
    p.add_argument("--lower", required=True)
    p.add_argument("--tau-ns", type=_finite_float, required=True, help="measured lifetime, ns")
    p.add_argument("--tau-unc-ns", type=_finite_float, default=0.0, help="lifetime uncertainty, ns")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"polkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownLevelError as exc:
        print(f"polkit: error: unknown state {exc.args[0]}", file=sys.stderr)
        return EXIT_DATA
    except DatasetError as exc:
        print(f"polkit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ArithmeticError) as exc:
        print(f"polkit: error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
