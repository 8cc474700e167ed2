"""scripts/draw_frames.py counts the polkit Python frames of a Monte-Carlo draw; a draw's total
stays at or under the count the valid path was flattened to, as a ceiling: Python 3.12 and
later inline comprehensions and count fewer."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "draw_frames.py"
spec = importlib.util.spec_from_file_location("draw_frames", SCRIPT)
draw_frames = importlib.util.module_from_spec(spec)
spec.loader.exec_module(draw_frames)

# Frames per draw on Python 3.11: 207, against 328 before the valid path was flattened.
CEILING = 207


def test_a_draw_stays_under_its_frame_ceiling():
    frames = draw_frames.count(draws=10)
    assert frames["polarizability._main_rows"] == 2  # 4s1/2, and 3d5/2 once for both multipoles
    assert frames["radiative.einstein_A"] == 5  # the channels of 4p1/2 and 4p3/2
    assert 0 < frames["total"] <= CEILING, frames


def test_the_table_lists_each_function_then_the_total_beside_a_base():
    head = {"dataset.LevelLabel.__new__": 27.0, "polarizability._sigma": 0.5, "total": 27.5}
    base = {"dataset.LevelLabel.__new__": 27.0, "dataset.require_unit": 43.0, "total": 70.0}
    assert draw_frames.table(head).splitlines()[2:] == [
        "| `dataset.LevelLabel.__new__` | 27 |", "| `polarizability._sigma` | 0.5 |",
        "| `total` | 27.5 |",
    ]
    assert draw_frames.table(head, base).splitlines()[2:] == [
        "| `dataset.LevelLabel.__new__` | 27 | 27 | +0 |",
        "| `polarizability._sigma` | 0.5 | - | +0.5 |",
        "| `dataset.require_unit` | - | 43 | -43 |",
        "| `total` | 27.5 | 70 | -42.5 |",
    ]
