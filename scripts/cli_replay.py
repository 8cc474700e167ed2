"""Replay polkit CLI calls in one process and record what each call prints.

    PYTHONPATH=src python scripts/cli_replay.py record CALLS.json
    PYTHONPATH=src python scripts/cli_replay.py replay CALLS.json OUT.json
    python scripts/cli_replay.py compare OLD.json NEW.json

``record`` collects the calls: every ``polkit.cli.main`` call that the tier-1
suite under ``tests/`` makes (which covers ``tests/cli_golden.json``, the README
commands and every dataset file a test writes), then a sweep of the packaged
Ca+ dataset: every level through ``polarizability`` (scalar and tensor),
``lifetime`` and ``bbr --excited``, and ``extract`` for every E1 element, each
as a table, a full-precision table and machine output.  A dataset file named
by ``--dataset`` or ``POLKIT_DATASET`` is stored with the call, a directory as a
directory, which ``replay`` recreates empty, and a FIFO as a FIFO, which ``replay``
recreates with no writer, so its refusal replays too; any other path is kept as is.

``replay`` runs each recorded call against the ``polkit`` on ``sys.path`` and
writes its exit code, stdout and stderr.  Replaying one CALLS file from two
checkouts and comparing the two OUT files shows every output that a change
moves: ``compare`` prints each call whose exit code, stdout or stderr differs,
with its argv and the old and new value of each stream that moved, then a count
line, and exits 1 if any call moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import stat
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = "POLKIT_DATASET"
PLACEHOLDER = "<dataset>"


def _stored(path: str | None) -> dict | None:
    """A dataset path as the call saw it: the file's bytes, a directory, a FIFO, or the path
    itself.  A FIFO is never opened: with no writer, a blocking open waits for one."""
    if path is None:
        return None
    try:
        mode = os.stat(path).st_mode
        if stat.S_ISDIR(mode):  # a test's directory may be gone by the time of a replay
            return {"dir": True}
        if stat.S_ISFIFO(mode):
            return {"fifo": True}
        return {"hex": pathlib.Path(path).read_bytes().hex()}
    except OSError:
        return {"path": path}


def _capture(argv: list[str] | None) -> dict:
    argv = list(sys.argv[1:] if argv is None else argv)
    call = {"argv": argv, "dataset": None, "env": _stored(os.environ.get(ENV))}
    if "--dataset" in argv[:-1]:
        i = argv.index("--dataset") + 1
        call["dataset"] = _stored(argv[i])
        if "path" not in call["dataset"]:
            call["argv"] = argv[:i] + [PLACEHOLDER] + argv[i + 1:]
    return call


def _sweep(polkit) -> list[dict]:
    ds = polkit.builtin_dataset()
    commands = []
    for level in ds.levels:
        state = str(level.label)
        commands += [["polarizability", "--state", state, "--multipole", m]
                     for m in ("scalar", "tensor")]
        commands += [["lifetime", "--state", state], ["bbr", "--excited", state]]
    for el in ds.elements:
        commands.append(["extract", "--upper", str(el.upper), "--lower", str(el.lower),
                         "--tau-ns", "7.0", "--tau-unc-ns", "0.02"])
    formats = ([], ["--full-precision"], ["--format", "machine"])
    return [{"argv": c + f, "dataset": None, "env": None} for c in commands for f in formats]


def record(calls_path: str) -> None:
    import pytest

    import polkit
    import polkit.cli

    calls: list[dict] = []
    real_main = polkit.cli.main

    def recording_main(argv=None):
        calls.append(_capture(argv))
        return real_main(argv)

    polkit.cli.main = recording_main  # before the test modules import it
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        polkit.cli.main = real_main
    if code != 0:
        sys.exit(f"the test suite failed (exit {code}); no calls written")
    calls += _sweep(polkit)
    pathlib.Path(calls_path).write_text(json.dumps(calls, indent=1) + "\n", encoding="utf-8")
    print(f"{len(calls)} calls written to {calls_path}")


def _materialize(stored: dict | None, path: pathlib.Path) -> str | None:
    """The path a replayed call reads: `path` holding the stored bytes, an empty directory
    or a FIFO with no writer next to it for a stored one, or the stored path itself.  The
    directory and the FIFO have paths of their own, so that writing `path` opens neither."""
    if stored is None:
        return None
    if "path" in stored:
        return stored["path"]
    if "dir" in stored:
        path = path.with_suffix(".d")
        path.mkdir(exist_ok=True)
    elif "fifo" in stored:
        path = path.with_suffix(".fifo")
        if not path.is_fifo():
            os.mkfifo(path)
    else:
        path.write_bytes(bytes.fromhex(stored["hex"]))
    return str(path)


def replay(calls_path: str, out_path: str) -> None:
    from polkit.cli import main

    calls = json.loads(pathlib.Path(calls_path).read_text(encoding="utf-8"))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        flag_file, env_file = pathlib.Path(tmp, "flag.dat"), pathlib.Path(tmp, "env.dat")
        for call in calls:
            flag_path = _materialize(call["dataset"], flag_file)
            argv = [flag_path if a == PLACEHOLDER else a for a in call["argv"]]
            env_path = _materialize(call["env"], env_file)
            saved = os.environ.pop(ENV, None)
            if env_path is not None:
                os.environ[ENV] = env_path
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                os.environ.pop(ENV, None)
                if saved is not None:
                    os.environ[ENV] = saved
            results.append({
                "argv": call["argv"],
                "exit": code,
                "stdout": out.getvalue().replace(tmp, "<tmp>"),
                "stderr": err.getvalue().replace(tmp, "<tmp>"),
            })
    pathlib.Path(out_path).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} calls replayed into {out_path}")


STREAMS = ("exit", "stdout", "stderr")


def compare(old_path: str, new_path: str) -> int:
    """Print each call whose output moved between two replays; return their count."""
    old, new = (
        json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in (old_path, new_path)
    )
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        sys.exit(f"{old_path} and {new_path} are not replays of one CALLS file")
    moved = 0
    for before, after in zip(old, new):
        streams = [key for key in STREAMS if before[key] != after[key]]
        if streams:
            moved += 1
            print(json.dumps(before["argv"]))
            for key in streams:
                print(f"  {key}: {before[key]!r} -> {after[key]!r}")
    print(f"{moved} of {len(old)} calls moved")
    return moved


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"] and len(sys.argv) == 3:
        record(sys.argv[2])
    elif sys.argv[1:2] == ["replay"] and len(sys.argv) == 4:
        replay(sys.argv[2], sys.argv[3])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
    else:
        sys.exit(__doc__)
