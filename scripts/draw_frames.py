"""Count the polkit Python frames of one Monte-Carlo draw, by function, as a Markdown table.

    PYTHONPATH=src python scripts/draw_frames.py [BASE_SRC]
    PYTHONPATH=src python scripts/draw_frames.py --json

A draw is one operation of perfbench's ``physics_montecarlo`` workload: ``build_dataset``
of ``perfbench/calls.py`` on seeded e1 values from ``perfbench/inputs.py``'s ``mc_draws``,
then ``mc_draw``.  After one warm-up draw, ``cProfile`` counts the calls of each function
defined in the imported ``polkit`` package over 100 draws; the table lists the calls per
draw of each, most first, then their total.  Given BASE_SRC, a ``src`` directory such as a
base commit's, the same draws are also counted with that ``polkit`` in a subprocess, and
the table adds its counts and the change.  ``--json`` prints the counts as a JSON object.

A function is named ``<module>.<qualified name>``; Python 3.10 has no qualified name of a
code object, so there methods of one name in one module share a row.  Python 3.12 and
later inline comprehensions, so they count fewer frames than 3.11 does.
"""

from __future__ import annotations

import cProfile
import json
import os
import pathlib
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import calls  # noqa: E402
import inputs  # noqa: E402

DRAWS = 100
SEED = 1


def count(draws: int = DRAWS) -> dict[str, float]:
    """Calls per draw of each polkit function, most first, then their ``total``."""
    import polkit

    package = os.path.dirname(os.path.abspath(polkit.__file__))
    spec = calls.dataset_spec(calls.PACKAGED_DATASET.read_text(encoding="utf-8"))
    stream = inputs.mc_draws(SEED, spec)

    def draw() -> None:
        values, temperature, taus = next(stream)
        ds, labels = calls.build_dataset(polkit, spec, values)
        calls.mc_draw(polkit, polkit, ds, labels, temperature, taus)

    draw()  # warm: the structure, label and 6j memos hold what every later draw reads
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(draws):
        draw()
    profile.disable()
    frames: dict[str, int] = {}
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, types.CodeType):
            continue  # a builtin
        if os.path.dirname(os.path.abspath(code.co_filename)) != package:
            continue
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        name = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        frames[name] = frames.get(name, 0) + entry.callcount
    most_first = sorted(frames.items(), key=lambda item: (-item[1], item[0]))
    per_draw = {name: n / draws for name, n in most_first}
    per_draw["total"] = sum(frames.values()) / draws
    return per_draw


def table(head: dict[str, float], base: dict[str, float] | None = None) -> str:
    """The Markdown table of `head`'s counts, with `base`'s and the change when given: head's
    functions in its order, then those only the base calls, then the totals."""
    names = [name for name in head if name != "total"]
    names += [name for name in base or {} if name not in head] + ["total"]

    def cell(counts: dict[str, float], name: str) -> str:
        return f"{counts[name]:g}" if name in counts else "-"

    if base is None:
        rows = ["| function | frames per draw |", "| --- | ---: |"]
        rows += [f"| `{name}` | {cell(head, name)} |" for name in names]
    else:
        rows = ["| function | frames per draw | base | change |", "| --- | ---: | ---: | ---: |"]
        rows += [
            f"| `{name}` | {cell(head, name)} | {cell(base, name)} | "
            f"{head.get(name, 0) - base.get(name, 0):+g} |"
            for name in names
        ]
    return "\n".join(rows) + "\n"


def main(argv: list[str]) -> None:
    if argv == ["--json"]:
        print(json.dumps(count()))
        return
    if len(argv) > 1:
        sys.exit(__doc__)
    base = None
    if argv:
        env = dict(os.environ, PYTHONPATH=argv[0])
        out = subprocess.run([sys.executable, __file__, "--json"], env=env, check=True,
                             capture_output=True, text=True).stdout
        base = json.loads(out)
    sys.stdout.write(table(count(), base))


if __name__ == "__main__":
    main(sys.argv[1:])
