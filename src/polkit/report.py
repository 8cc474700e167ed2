"""Deterministic report model and rendering.

Every command produces a :class:`Report`; the same report renders either
as a fixed-width table or as JSON (the machine format, which round-trips
through :func:`Report.from_json`).  All display rounding happens here and
uses round-half-even, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .dataset import Quantity


def _fmt_value(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    if text.lstrip("-").strip("0") in ("", "."):
        text = f"{0.0:.{decimals}f}"  # avoid "-0.000"
    return text


def format_value_unc(value: float, unc: float) -> str:
    """Render value(unc) in compact parenthesized notation.

    The uncertainty is shown to two significant digits when its leading
    digit is 1 or 2, otherwise one; the value is rounded to the same
    decimal place, capped at three decimals.  An uncertainty that rounds
    to zero at that precision is omitted.
    """
    if unc <= 0.0 or not math.isfinite(unc):
        return _fmt_value(value, 3)
    exponent = math.floor(math.log10(unc))
    sig = 2 if unc / 10.0**exponent < 3.0 else 1
    decimals = min(3, max(0, sig - 1 - exponent))
    unc_rounded = round(unc, decimals)
    if unc_rounded == 0.0:
        return _fmt_value(value, 3)
    text = _fmt_value(value, decimals)
    if unc_rounded >= 1.0:
        return f"{text}({unc_rounded:.{decimals}f})"
    return f"{text}({int(round(unc_rounded * 10.0**decimals)):d})"


def format_quantity(q: Quantity, full_precision: bool = False) -> str:
    if full_precision:
        return f"{q.value!r}({q.unc!r})" if q.unc else repr(q.value)
    return format_value_unc(q.value, q.unc)


def quantity_to_dict(q: Quantity) -> dict[str, Any]:
    return {"value": q.value, "unc": q.unc, "unit": q.unit}


@dataclass(frozen=True)
class Report:
    """A command's result: echoed inputs, ordered rows, and totals."""

    kind: str
    inputs: Mapping[str, Any]
    rows: tuple[Mapping[str, Any], ...]
    totals: Mapping[str, Any]

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "rows": [dict(row) for row in self.rows],
            "totals": dict(self.totals),
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        payload = json.loads(text)
        return cls(
            kind=payload["kind"],
            inputs=payload["inputs"],
            rows=tuple(payload["rows"]),
            totals=payload["totals"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return (
            self.kind == other.kind
            and dict(self.inputs) == dict(other.inputs)
            and [dict(r) for r in self.rows] == [dict(r) for r in other.rows]
            and dict(self.totals) == dict(other.totals)
        )


def _column_widths(rows: Sequence[Sequence[str]]) -> list[int]:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return widths


def render_grid(rows: Sequence[Sequence[str]]) -> str:
    """Left-align the first column, right-align the rest, two-space gutter."""
    widths = _column_widths(rows)
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _fq(entry: Mapping[str, Any], full: bool) -> str:
    return format_quantity(
        Quantity(entry["value"], entry["unc"], entry["unit"]), full_precision=full
    )


def render_table(report: Report, full_precision: bool = False) -> str:
    """Render a report as the human-readable table for its kind."""
    if report.kind == "polarizability":
        return _render_polarizability(report, full_precision)
    if report.kind == "bbr":
        return _render_bbr(report, full_precision)
    if report.kind == "lifetime":
        return _render_lifetime(report, full_precision)
    if report.kind == "extract":
        return _render_extract(report, full_precision)
    raise ValueError(f"unknown report kind {report.kind!r}")


def _render_polarizability(report: Report, full: bool) -> str:
    multipole = report.inputs["multipole"]
    alpha_key = "alpha0" if multipole == "scalar" else "alpha2"
    header = [
        f"# polarizability  state={report.inputs['state']}  multipole={multipole}",
        f"# dataset: {report.inputs['dataset']}",
    ]
    grid: list[list[str]] = [["contribution", "d [e*a0]", f"{alpha_key} [a0^3]"]]
    for row in report.rows:
        grid.append([row["transition"], _fq(row["d"], full), _fq(row[alpha_key], full)])
    grid.append(["tail", "", _fq(report.totals["tail"], full)])
    if multipole == "scalar":
        grid.append(["core", "", _fq(report.totals["core"], full)])
    grid.append(["total", "", _fq(report.totals["total"], full)])
    return "\n".join(header) + "\n" + render_grid(grid) + "\n"


def _render_bbr(report: Report, full: bool) -> str:
    inputs = report.inputs
    header = [
        f"# bbr  clock={inputs['ground']} -> {inputs['excited']}"
        f"  T={inputs['temperature']} K  eta={inputs['eta']}",
        f"# dataset: {inputs['dataset']}",
    ]
    grid: list[list[str]] = [["state", "alpha0 [a0^3]", "shift [Hz]"]]
    for row in report.rows:
        grid.append([row["state"], _fq(row["alpha0"], full), _fq(row["shift"], full)])
    lines = [
        f"clock shift [Hz]: {_fq(report.totals['clock'], full)}  (quadrature)",
        "clock shift [Hz]: "
        f"{_fq(report.totals['clock_core_correlated'], full)}  (core-correlated)",
    ]
    return "\n".join(header) + "\n" + render_grid(grid) + "\n" + "\n".join(lines) + "\n"


def _render_lifetime(report: Report, full: bool) -> str:
    header = [
        f"# lifetime  state={report.inputs['state']}",
        f"# dataset: {report.inputs['dataset']}",
    ]
    grid: list[list[str]] = [["channel", "A [MHz]"]]
    for row in report.rows:
        grid.append([f"{row['upper']} -> {row['lower']}", _fq(row["A"], full)])
    tau = _fq(report.totals["lifetime"], full)
    return "\n".join(header) + "\n" + render_grid(grid) + f"\nlifetime [ns]: {tau}\n"


def _render_extract(report: Report, full: bool) -> str:
    inputs = report.inputs
    header = [
        f"# extract  transition={inputs['upper']} -> {inputs['lower']}"
        f"  tau={inputs['tau_ns']}({inputs['tau_unc_ns']}) ns",
        f"# dataset: {inputs['dataset']}",
    ]
    grid: list[list[str]] = [["other channel", "A [MHz]"]]
    for row in report.rows:
        grid.append([f"{row['upper']} -> {row['lower']}", _fq(row["A"], full)])
    lines = [f"extracted d [e*a0]: {_fq(report.totals['d_extracted'], full)}"]
    if "d_theory" in report.totals:
        lines.append(f"dataset d [e*a0]:   {_fq(report.totals['d_theory'], full)}")
        lines.append(
            "difference from dataset value: "
            f"{report.totals['percent_difference']:.2f} %"
        )
    return "\n".join(header) + "\n" + render_grid(grid) + "\n" + "\n".join(lines) + "\n"
