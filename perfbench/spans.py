"""Spans around the calls into each layer, kept in memory until the run ends.

A span name is ``<layer>.<what>``; the layers are the program's modules.
Spans record name, start, end, parent span and operation id.  A layer's
self time is its spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("import", "cli", "dataset", "angular", "polarizability", "bbr", "radiative", "report")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1  # -1 while the benchmark checks results between operations
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, name_of=None, on_result=None):
        """``fn`` recorded as span ``name``.

        ``name_of(args, kwargs)`` may pick the span name per call, and
        ``on_result(result)`` may update ``counts`` inside the span.
        """
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.open(nid if name_of is None else self.name_id(name_of(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                self.close(sid)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, name_of=None, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; a missing name is recorded as absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__module__', '')}.{owner.__name__}.{attr}"
                               if isinstance(owner, type) else f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, name_of, on_result))

    def summary(self, ops: int) -> dict:
        """Per-name call count, mean duration and mean self time; per-layer self time per op."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name: dict[str, list[float]] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            name = self.names[self.name[i]]
            own = dur[i] - child[i]
            acc = per_name.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += own
            layer = name.split(".", 1)[0]
            if self.op[i] >= 0 and layer in layer_self:
                layer_self[layer] += own
        return {
            "names": {k: {"calls": c, "mean_us": t / c * 1e6, "self_us": s / c * 1e6}
                      for k, (c, t, s) in per_name.items()},
            "layer_self_ms_per_op": {k: v * 1e3 / max(ops, 1) for k, v in layer_self.items()},
            "counts": dict(self.counts),
            "spans": n,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": self.names,
                "name": self.name.tolist(),
                "start_s": self.start.tolist(),
                "end_s": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            }, handle)


# ---- import layer -----------------------------------------------------------

IMPORT_MODULES = (
    "polkit", "polkit.angular", "polkit.bbr", "polkit.cli", "polkit.constants",
    "polkit.dataset", "polkit.polarizability", "polkit.radiative", "polkit.report",
    "argparse", "json", "dataclasses", "fractions", "decimal", "importlib.resources",
)


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """module -> (self_us, cumulative_us) from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        out.setdefault(name.strip(), (int(self_us), int(cum_us)))
    return out


def import_metrics(samples: list[dict[str, tuple[int, int]]], floor_s: list[float]) -> dict:
    """Median over runs of the ``import.*`` metrics; a module never imported counts 0."""
    med = statistics.median
    metrics = {
        "import.total_ms": med([s.get("polkit.cli", (0, 0))[1] for s in samples]) / 1e3,
        "import.python_floor_ms": med(floor_s) * 1e3,
        "import.self_ms": med([
            sum(v[0] for k, v in s.items() if k.split(".")[0] == "polkit") for s in samples
        ]) / 1e3,
    }
    for module in IMPORT_MODULES:
        metrics[f"import.self_us.{module}"] = med([s.get(module, (0, 0))[0] for s in samples])
    return metrics
