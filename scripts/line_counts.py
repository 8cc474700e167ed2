"""Print the line count of each polkit module as a Markdown table.

    python scripts/line_counts.py SRC [BASE_SRC]

SRC and BASE_SRC are ``src/polkit`` directories, e.g. of the working tree and
of a base commit checked out beside it.  A line counts unless it is blank or
its first non-blank character is ``#``, which is how ROADMAP.md counts
``src/polkit``; docstrings count.  Given BASE_SRC, the table also lists the
base's counts and the change.
"""

from __future__ import annotations

import pathlib
import sys


def counts(src: str) -> dict[str, int]:
    """Counted lines of each module of `src` by file name, then their ``total``."""
    result = {}
    for path in sorted(pathlib.Path(src).glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        result[path.name] = sum(1 for line in lines if line.strip() and line.lstrip()[0] != "#")
    result["total"] = sum(result.values())
    return result


def table(head: dict[str, int], base: dict[str, int] | None = None) -> str:
    """The Markdown table of `head`'s counts, with `base`'s and the change when given."""
    names = sorted((set(head) | set(base or {})) - {"total"}) + ["total"]
    if base is None:
        rows = ["| module | lines |", "| --- | ---: |"]
        rows += [f"| `{name}` | {head[name]} |" for name in names]
    else:
        rows = ["| module | lines | base | change |", "| --- | ---: | ---: | ---: |"]
        rows += [
            f"| `{name}` | {head.get(name, '-')} | {base.get(name, '-')} | "
            f"{head.get(name, 0) - base.get(name, 0):+d} |"
            for name in names
        ]
    return "\n".join(rows) + "\n"


def main(argv: list[str]) -> None:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    sys.stdout.write(table(counts(argv[0]), counts(argv[1]) if len(argv) == 2 else None))


if __name__ == "__main__":
    main(sys.argv[1:])
