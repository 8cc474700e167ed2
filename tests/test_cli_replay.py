"""scripts/cli_replay.py stores each --dataset path so that a later replay reads what the call read."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cli_replay.py"
spec = importlib.util.spec_from_file_location("cli_replay", SCRIPT)
cli_replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_replay)


@pytest.mark.parametrize("kind", ["file", "directory", "missing"])
def test_stored_dataset_replays_as_the_call_saw_it(tmp_path, kind):
    source = tmp_path / "recorded" / "source.dat"
    source.parent.mkdir()
    if kind == "file":
        source.write_bytes(b"level 4s1/2 0\n\xff")
    elif kind == "directory":
        source.mkdir()
    call = json.loads(json.dumps(cli_replay._capture(["lifetime", "--dataset", str(source)])))
    if kind == "file":
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
