"""Command-line front end.

Subcommands: ``polarizability``, ``bbr``, ``lifetime``, ``extract``.
The dataset is taken from ``--dataset``, else the ``POLKIT_DATASET``
environment variable, else the packaged Ca+ reference file.  Each command
parses its arguments, calls one report builder of :mod:`polkit.report` and
renders the result.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 computation precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Sequence

from .dataset import (
    SCALAR,
    TENSOR,
    UNSIGNED_NUMBER,
    Dataset,
    DatasetError,
    LevelLabel,
    UnknownLevelError,
    builtin_dataset_text,
    parse_dataset,
    parse_number,
)
from .report import (
    Report,
    bbr_report,
    extract_report,
    lifetime_report,
    polarizability_report,
    render_table,
)

ENV_DATASET = "POLKIT_DATASET"
BUILTIN_DATASET = "<builtin ca_plus.dat>"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PRECONDITION = 3


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, so `--eta -1e-3` would read
        # as a missing value; no option string here looks like a number.
        self._negative_number_matcher = re.compile(
            rf"-(?:{UNSIGNED_NUMBER})\Z", re.ASCII | re.IGNORECASE
        )

    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: the dataset number grammar, exit 1."""
    try:
        return parse_number(text, "number")
    except DatasetError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, str]:
    path = args.dataset
    if path is None:
        path = os.environ.get(ENV_DATASET) or None  # an empty variable is unset
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
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


def cmd_polarizability(args: argparse.Namespace) -> int:
    ds, path = _load_dataset(args)
    return _emit(polarizability_report(ds, path, _parse_label(args.state), args.multipole), args)


def cmd_bbr(args: argparse.Namespace) -> int:
    if args.temperature <= 0:
        raise UsageError(f"temperature must be positive, got {args.temperature}")
    ds, path = _load_dataset(args)
    ground, excited = _parse_label(args.ground), _parse_label(args.excited)
    return _emit(bbr_report(ds, path, ground, excited, args.temperature, args.eta), args)


def cmd_lifetime(args: argparse.Namespace) -> int:
    ds, path = _load_dataset(args)
    return _emit(lifetime_report(ds, path, _parse_label(args.state)), args)


def cmd_extract(args: argparse.Namespace) -> int:
    if args.tau_ns <= 0:
        raise UsageError(f"lifetime must be positive, got {args.tau_ns}")
    if args.tau_unc_ns < 0:
        raise UsageError(f"lifetime uncertainty must be non-negative, got {args.tau_unc_ns}")
    ds, path = _load_dataset(args)
    upper, lower = _parse_label(args.upper), _parse_label(args.lower)
    return _emit(extract_report(ds, path, upper, lower, args.tau_ns, args.tau_unc_ns), args)


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
    except SystemExit as exc:  # raised only by the -h/--help action, after printing
        return exc.code
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
