"""scripts/cli_replay.py stores each --dataset path so that a later replay reads what the call
read, and ``compare`` names every call whose output moved between two replays."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest
from test_dataset import unblocked

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cli_replay.py"
spec = importlib.util.spec_from_file_location("cli_replay", SCRIPT)
cli_replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_replay)


@pytest.mark.parametrize("kind", ["file", "directory", "fifo", "missing"])
def test_stored_dataset_replays_as_the_call_saw_it(tmp_path, kind):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs a FIFO")
    source = tmp_path / "recorded" / "source.dat"
    source.parent.mkdir()
    if kind == "file":
        source.write_bytes(b"level 4s1/2 0\n\xff")
    elif kind == "directory":
        source.mkdir()
    elif kind == "fifo":
        os.mkfifo(source)  # no writer: a blocking open of it would wait for one
    with unblocked():  # a recorder that opens the FIFO fails here rather than hang
        call = json.loads(json.dumps(cli_replay._capture(["lifetime", "--dataset", str(source)])))
    if kind in ("file", "fifo"):
        source.unlink()
    elif kind == "directory":
        source.rmdir()  # as pytest deletes an old temporary directory

    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    path = cli_replay._materialize(call["dataset"], replay_dir / "flag.dat")
    if kind == "missing":
        assert call["argv"][-1] == path == str(source)
        assert not source.exists()
    else:
        assert call["argv"][-1] == cli_replay.PLACEHOLDER
        assert pathlib.Path(path).parent == replay_dir
    if kind == "file":
        assert pathlib.Path(path).read_bytes() == b"level 4s1/2 0\n\xff"
    if kind == "directory":
        assert pathlib.Path(path).is_dir() and not any(pathlib.Path(path).iterdir())
    if kind == "fifo":
        assert call["dataset"] == {"fifo": True} and pathlib.Path(path).is_fifo()
        assert path != str(replay_dir / "flag.dat")  # a later call's flag.dat write opens a file


def _replay_file(path, results):
    path.write_text(json.dumps([{"argv": argv, "exit": code, "stdout": out, "stderr": err}
                                for argv, code, out, err in results]))
    return str(path)


def test_compare_names_each_moved_call_and_stream(tmp_path, capsys):
    calls = [(["bbr"], 0, "shift 0.380(13)\n", ""), (["lifetime"], 2, "", "polkit: bad\n"),
             (["extract"], 0, "d 2.9\n", "")]
    old = _replay_file(tmp_path / "old.json", calls)
    assert cli_replay.compare(old, old) == 0
    assert capsys.readouterr().out == "0 of 3 calls moved\n"

    moved = [calls[0], (["lifetime"], 3, "", "polkit: worse\n"), (["extract"], 0, "d 2.9", "")]
    new = _replay_file(tmp_path / "new.json", moved)
    assert cli_replay.compare(old, new) == 2
    assert capsys.readouterr().out.splitlines() == [
        '["lifetime"]',
        "  exit: 2 -> 3",
        "  stderr: 'polkit: bad\\n' -> 'polkit: worse\\n'",
        '["extract"]',
        "  stdout: 'd 2.9\\n' -> 'd 2.9'",
        "2 of 3 calls moved",
    ]

    run = [sys.executable, str(SCRIPT), "compare"]
    assert subprocess.run(run + [old, old], capture_output=True).returncode == 0
    assert subprocess.run(run + [old, new], capture_output=True).returncode == 1
    other = _replay_file(tmp_path / "other.json", calls[:2])
    child = subprocess.run(run + [old, other], capture_output=True, text=True)
    assert child.returncode == 1 and "not replays of one CALLS file" in child.stderr
