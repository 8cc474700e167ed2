"""scripts/line_counts.py counts a module's lines as ROADMAP.md counts ``src/polkit``: blank and
comment lines do not count, docstrings and code with a trailing comment do."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "line_counts.py"
spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
line_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_counts)


def test_counts_each_module_and_the_change_from_a_base(tmp_path):
    head, base = tmp_path / "head", tmp_path / "base"
    head.mkdir()
    base.mkdir()
    (head / "a.py").write_text('"""Doc."""\n\n# comment\n    # indented\nx = 1  # trailing\n')
    (head / "new.py").write_text("y = 2\n")
    (base / "a.py").write_text("x = 1\n")
    (base / "gone.py").write_text("z = 3\n\n")
    assert line_counts.counts(str(head)) == {"a.py": 2, "new.py": 1, "total": 3}
    assert line_counts.table(line_counts.counts(str(head))).splitlines()[2:] == [
        "| `a.py` | 2 |", "| `new.py` | 1 |", "| `total` | 3 |",
    ]
    table = line_counts.table(line_counts.counts(str(head)), line_counts.counts(str(base)))
    assert table.splitlines()[2:] == [
        "| `a.py` | 2 | 1 | +1 |",
        "| `gone.py` | - | 1 | -1 |",
        "| `new.py` | 1 | - | +1 |",
        "| `total` | 3 | 2 | +1 |",
    ]
