"""Command-line front end.

Subcommands: ``polarizability``, ``bbr``, ``lifetime``, ``extract``.
The dataset is the file that ``--dataset``, else ``POLKIT_DATASET``, names, read
and parsed at each call, else the packaged Ca+ file, parsed once per process.
Each command parses its arguments, calls one report builder of
:mod:`polkit.report` and renders the result.

One table, ``_COMMANDS``, declares the subcommands and their options.  An argv
in the documented grammar is read from it directly, without argparse or ``re``:
the subcommand, then full option names, each at most once, with its value in
the next token (a listed choice, a number that ``parse_number`` takes, or a
string that does not start with ``-``) and every required option present.  Any
other argv (``--help``, an abbreviation such as ``--temp``, ``--opt=value``, a
repeat, ``--``, a stray token or a refused value) goes to the argparse parser
built from the same table, so help, refusals and exit codes keep its output.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 computation precondition failure.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .dataset import (
    NUMBER_PATTERN,
    SCALAR,
    TENSOR,
    Dataset,
    DatasetError,
    LevelLabel,
    UnknownLevelError,
    builtin_dataset,
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


def _load_dataset(args: SimpleNamespace) -> tuple[Dataset, str]:
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
    return builtin_dataset(), BUILTIN_DATASET


def _parse_label(text: str) -> LevelLabel:
    try:
        return LevelLabel.parse(text)
    except DatasetError as exc:
        raise UsageError(str(exc)) from exc


def _emit(report: Report, args: SimpleNamespace) -> int:
    if args.format == "machine":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(render_table(report, full_precision=args.full_precision))
    return EXIT_OK


def cmd_polarizability(args: SimpleNamespace) -> int:
    ds, path = _load_dataset(args)
    return _emit(polarizability_report(ds, path, _parse_label(args.state), args.multipole), args)


def cmd_bbr(args: SimpleNamespace) -> int:
    if args.temperature <= 0:
        raise UsageError(f"temperature must be positive, got {args.temperature}")
    ds, path = _load_dataset(args)
    ground, excited = _parse_label(args.ground), _parse_label(args.excited)
    return _emit(bbr_report(ds, path, ground, excited, args.temperature, args.eta), args)


def cmd_lifetime(args: SimpleNamespace) -> int:
    ds, path = _load_dataset(args)
    return _emit(lifetime_report(ds, path, _parse_label(args.state)), args)


def cmd_extract(args: SimpleNamespace) -> int:
    if args.tau_ns <= 0:
        raise UsageError(f"lifetime must be positive, got {args.tau_ns}")
    if args.tau_unc_ns < 0:
        raise UsageError(f"lifetime uncertainty must be non-negative, got {args.tau_unc_ns}")
    ds, path = _load_dataset(args)
    upper, lower = _parse_label(args.upper), _parse_label(args.lower)
    return _emit(extract_report(ds, path, upper, lower, args.tau_ns, args.tau_unc_ns), args)


# Each subcommand's handler, help and options in help order; an option's settings are
# its add_argument keywords, with `type: float` for the float flags.
_COMMON = {
    "--dataset": {"help": "dataset file path (default: $POLKIT_DATASET or builtin)"},
    "--format": {"choices": ("table", "machine"), "default": "table"},
    "--full-precision": {
        "action": "store_true", "default": False, "help": "disable display rounding"
    },
}
_COMMANDS = {
    "polarizability": (cmd_polarizability, "per-state polarizability breakdown", {
        "--state": {"required": True, "help": "state label, e.g. 4s1/2"},
        "--multipole": {"choices": (SCALAR, TENSOR), "default": SCALAR},
        **_COMMON,
    }),
    "bbr": (cmd_bbr, "blackbody shift of a clock transition", {
        "--ground": {"default": "4s1/2"},
        "--excited": {"default": "3d5/2"},
        "--temperature": {"type": float, "default": 300.0, "help": "kelvin"},
        "--eta": {"type": float, "default": 0.0, "help": "dynamic correction"},
        **_COMMON,
    }),
    "lifetime": (cmd_lifetime, "radiative lifetime of a state", {
        "--state": {"required": True, "help": "upper state label"},
        **_COMMON,
    }),
    "extract": (cmd_extract, "matrix element from a measured lifetime", {
        "--upper": {"required": True},
        "--lower": {"required": True},
        "--tau-ns": {"type": float, "required": True, "help": "measured lifetime, ns"},
        "--tau-unc-ns": {"type": float, "default": 0.0, "help": "lifetime uncertainty, ns"},
        **_COMMON,
    }),
}


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that argparse gives `argv` when `argv` is in the documented
    grammar; None for any other argv, which is argparse's to decide."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        if "action" in kw:  # store_true: takes no value
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or "choices" in kw and text not in kw["choices"]:
            return None
        if "type" in kw:  # a float flag
            try:  # a negative number that parse_number takes, argparse reads as a value too
                given[flag] = parse_number(text, "number")
            except DatasetError:
                return None
        elif text.startswith("-"):
            return None
        else:
            given[flag] = text
    values = {"command": argv[0], "func": func}
    for flag, kw in options.items():
        if flag not in given and kw.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, kw.get("default"))
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """The argparse parser of ``_COMMANDS``, built once per process and only for an
    argv that ``_fast_args`` leaves to it; ``parse_args`` leaves it unchanged."""
    import argparse
    import re

    class _ArgumentParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            # argparse's own pattern misses exponents, so `--eta -1e-3` would read
            # as a missing value.  argparse asks it only of strings that begin with
            # '-', and no option string here looks like a number.
            self._negative_number_matcher = re.compile(NUMBER_PATTERN)

        def error(self, message: str) -> None:  # exit 1, not argparse's 2
            raise UsageError(message)

    def _finite_float(text: str) -> float:
        """argparse type of the float flags: the dataset number grammar, exit 1."""
        try:
            return parse_number(text, "number")
        except DatasetError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = _ArgumentParser(
        prog="polkit",
        description="Static polarizabilities, BBR clock shifts, and radiative lifetimes.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _COMMANDS.items():
        p = subparsers.add_parser(command, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **(dict(kw, type=_finite_float) if "type" in kw else kw))
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_args(argv) or build_parser().parse_args(argv, SimpleNamespace())
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
