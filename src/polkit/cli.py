"""Command-line front end.

Subcommands: ``polarizability``, ``bbr``, ``lifetime``, ``extract``.
The dataset is the file that ``--dataset``, else ``POLKIT_DATASET``, names, a regular
file of at most ``MAX_DATASET_BYTES``, read at each call and parsed once per distinct
text, else the packaged Ca+ file, parsed once per process.
Each command reads its arguments and returns the :class:`~polkit.report.Report` of
one builder of :mod:`polkit.report`; ``main`` writes it as a table or as JSON.  A flag
is checked by the library call that owns its input (``LevelLabel.parse``,
``BBRConditions``, ``measured_lifetime``), whose refusal is a usage error.

``read_args`` reads every argv from one table, ``_COMMANDS``, as argparse did.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 computation precondition failure.
"""

from __future__ import annotations

import codecs
import errno
import os
import stat
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .bbr import BBRConditions
from .dataset import SCALAR, TENSOR, Dataset, DatasetError, LevelLabel, UnknownLevelError
from .dataset import MAX_DATASET_BYTES, builtin_dataset, number_literal, parse_dataset
from .dataset import parse_number
from .radiative import measured_lifetime
from .report import Report, bbr_report, extract_report, lifetime_report, polarizability_report
from .report import render_table

ENV_DATASET = "POLKIT_DATASET"
BUILTIN_DATASET = "<builtin ca_plus.dat>"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PRECONDITION = 3


class UsageError(Exception):
    pass


def _read_dataset(path: str) -> str:
    """The text of the dataset file at `path`: a regular file of at most MAX_DATASET_BYTES
    bytes of UTF-8, a byte-order mark allowed; anything else is a DatasetError."""
    try:
        # Bytes from the descriptor, no file object: the parser splits the lines.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO with no writer opens at once
        try:
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):  # os.open opens one; refused in open()'s words
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not stat.S_ISREG(info.st_mode):
                raise DatasetError(f"cannot read dataset {path!r}: not a regular file")
            # read(n) allocates n bytes first, so read the stated size and one byte, and
            # read on, to the bound and one byte in all, only while a file holds other
            # than it states (/proc's).
            data = os.read(fd, min(info.st_size, MAX_DATASET_BYTES) + 1)
            while len(data) != info.st_size:
                more = os.read(fd, MAX_DATASET_BYTES + 1 - len(data))
                if not more:
                    break
                data += more
        finally:
            os.close(fd)
        if len(data) > MAX_DATASET_BYTES:
            raise DatasetError(
                f"cannot read dataset {path!r}: larger than {MAX_DATASET_BYTES} bytes"
            )
        if data[:3] == codecs.BOM_UTF8:  # as utf-8-sig reads it, error positions included
            data = data[3:]
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc


def _load_dataset(args: SimpleNamespace) -> tuple[Dataset, str]:
    path = args.dataset
    if path is None:
        path = os.environ.get(ENV_DATASET) or None  # an empty variable is unset
    if path is not None:
        return parse_dataset(_read_dataset(path)), path
    return builtin_dataset(), BUILTIN_DATASET


def _flag(check: Callable, *values: object):
    """`check(*values)`, the library call that owns a flag's input; a refusal is a usage error."""
    try:
        return check(*values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_polarizability(args: SimpleNamespace) -> Report:
    ds, path = _load_dataset(args)
    return polarizability_report(ds, path, _flag(LevelLabel.parse, args.state), args.multipole)


def cmd_bbr(args: SimpleNamespace) -> Report:
    if args.temperature <= 0:  # the library's T = 0 is the zero-field limit
        raise UsageError(f"temperature must be positive, got {args.temperature}")
    cond = _flag(BBRConditions, args.temperature, args.eta)
    ds, path = _load_dataset(args)
    ground, excited = _flag(LevelLabel.parse, args.ground), _flag(LevelLabel.parse, args.excited)
    return bbr_report(ds, path, ground, excited, cond)


def cmd_lifetime(args: SimpleNamespace) -> Report:
    ds, path = _load_dataset(args)
    return lifetime_report(ds, path, _flag(LevelLabel.parse, args.state))


def cmd_extract(args: SimpleNamespace) -> Report:
    tau = _flag(measured_lifetime, args.tau_ns, args.tau_unc_ns)
    ds, path = _load_dataset(args)
    upper, lower = _flag(LevelLabel.parse, args.upper), _flag(LevelLabel.parse, args.lower)
    return extract_report(ds, path, upper, lower, tau)


# Each subcommand's handler, help and options in help order; an option's settings are
# named as argparse's add_argument keywords, with `type: float` for the float flags.
_COMMON = {
    "--dataset": {"help": "dataset file path (default: $POLKIT_DATASET or builtin)"},
    "--format": {"choices": ("table", "machine"), "default": "table"},
    "--full-precision": {"action": "store_true", "default": False, "help": "no display rounding"},
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


# The namespace attribute of each flag, as argparse names it.
_DEST = {flag: flag[2:].replace("-", "_") for *_, flags in _COMMANDS.values() for flag in flags}
_HELP = ("-h", "--help")
_DESCRIPTION = "Static polarizabilities, BBR clock shifts, and radiative lifetimes."


def _classify(options: dict, token: str) -> tuple[str | None, str | None] | None:
    """None for a value, else (flag, attached value or None), the flag None if unknown."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in options or name in _HELP:
        return name, value if eq else None
    if token[1] == "-":  # a unique prefix names a long flag, and a prefix of two is refused
        matches = [flag for flag in ("--help", *options) if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":  # -hX is -h with X attached, and -hh is -h -h
        return "-h", token[2:].lstrip("h") or None
    if number_literal(token) is None and " " not in token:
        return None, None
    return None  # a number, finite or not, is a value, and so is a token with a space


def _value(name: str, kw: dict, text: str):
    """`text` read as the value of a flag with settings `kw`, or a UsageError."""
    if "type" in kw:  # a float flag
        try:
            return parse_number(text, "number")
        except DatasetError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    if "choices" in kw and text not in kw["choices"]:
        listed = ", ".join(map(repr, kw["choices"]))
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")
    return text


# Tokens are read in order, as argparse reads them: a unique prefix names a long flag, a
# flag's value may follow `=`, the last of a repeated flag counts, and a value that starts
# with `-` is taken only if it is a number, `-` or holds a space.  So help answers when it
# is reached, unless an earlier token is refused; a missing flag or a stray token is
# refused last.
def read_args(argv: Sequence[str]) -> SimpleNamespace | str:
    """argparse's namespace of `argv` under `_COMMANDS`, the help it asks for, or a UsageError."""
    extras, given, options, command, i = [], {}, {}, None, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if token == "--" and (command or i == len(argv)):  # no flag takes a later token
            extras += argv[i - 1 :]
            break
        # a flag spelled out in full, else as _classify reads it; a `--` here is the subcommand
        kind = (token, None) if token in options else token != "--" and _classify(options, token)
        flag, value = kind or (None, None)
        kw = options.get(flag)
        if not kind and command is None:  # the subcommand
            command = _value("command", {"choices": _COMMANDS}, token)
            options = _COMMANDS[command][2]
        elif flag is None:
            extras.append(token)
        elif kw is None or "action" in kw:  # help or a store_true flag: takes no value
            if value is not None:
                name = "-h/--help" if kw is None else flag
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if kw is None:
                return _help_text(command)
            given[flag] = True
        else:
            if value is None:
                value = argv[i] if i < len(argv) else "--"  # no token left reads as `--`
                if value == "--" or value[:1] == "-" and _classify(options, value):
                    raise UsageError(f"argument {flag}: expected one argument")
                i += 1
            given[flag] = _value(flag, kw, value)
    if command is None:
        raise UsageError("the following arguments are required: command")
    values, missing = {"command": command, "func": _COMMANDS[command][0]}, []
    for flag, kw in options.items():
        if flag not in given and kw.get("required"):
            missing.append(flag)
        values[_DEST[flag]] = given.get(flag, kw.get("default"))
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _help_text(command: str | None) -> str:
    """The help of the program or of one subcommand, in one layout, from the table."""
    rows = {"-h, --help": "show this help and exit"}
    if command is None:
        usage = "{" + ",".join(_COMMANDS) + "} ...\n\n" + _DESCRIPTION
        rows.update((name, summary) for name, (_, summary, _) in _COMMANDS.items())
    else:
        usage = f"{command} [options]\n\n{_COMMANDS[command][1]}"
        for flag, kw in _COMMANDS[command][2].items():
            value = "{%s}" % ",".join(kw["choices"]) if "choices" in kw else _DEST[flag].upper()
            left = flag if "action" in kw else f"{flag} {value}"
            rows[left] = kw.get("help", "") + (" (required)" if kw.get("required") else "")
    lines = "".join(f"  {left:<27}{right}".rstrip() + "\n" for left, right in rows.items())
    return f"usage: polkit {usage}\n\n{lines}"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help that argv asks for
            sys.stdout.write(args)
        elif args.format == "machine":
            sys.stdout.write(args.func(args).to_json())
        else:
            sys.stdout.write(render_table(args.func(args), full_precision=args.full_precision))
        return EXIT_OK
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
