"""Deterministic report model, report builders and rendering.

Each report kind (``polarizability``, ``bbr``, ``lifetime``, ``extract``)
has a builder that computes a :class:`Report` from a dataset, next to the
renderer of its table; the library functions a builder calls check its inputs,
so this module only builds and renders.  Every builder takes the dataset and ``source``, the
name echoed as the report's ``dataset`` input (a path, or the builtin tag).
The same report renders either as a fixed-width table or as JSON (the
machine format, which round-trips through :func:`Report.from_json`).  All
display rounding happens here and uses round-half-even, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence

from .bbr import BBRConditions, bbr_shift_state, clock_bbr_shift
from .dataset import SCALAR, TENSOR, Dataset, LevelLabel, Quantity, Record, _setters
from .polarizability import assemble_breakdown
from .radiative import DecayChannel, decay_channels, extract_pair, lifetime


def _fmt_value(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    if text.lstrip("-").strip("0") in ("", "."):
        text = f"{0.0:.{decimals}f}"  # avoid "-0.000"
    return text


# From this uncertainty on, a table prints value and uncertainty over the uncertainty's
# power of ten, with that power after them: a huge uncertainty is not a long integer.
EXPONENT_FORM_UNC = 1e6


def format_value_unc(value: float, unc: float) -> str:
    """Render value(unc) in compact parenthesized notation.

    The uncertainty is shown to two significant digits when its leading
    digit is 1 or 2, otherwise one; the value is rounded to the same
    decimal place, capped at three decimals.  Below 100 the uncertainty
    keeps its integer digits (``483(47)``); from 100 on it is rounded to its
    significant digits, and the value to the same place (``12300(1200)``).
    From ``EXPONENT_FORM_UNC`` on, both are printed over the uncertainty's
    power of ten, which follows them (``0(4)e+307``).  An uncertainty that is
    not positive at three decimals is omitted.  A non-finite value or
    uncertainty is a ValueError.
    """
    if not (math.isfinite(value) and math.isfinite(unc)):
        raise ValueError(f"cannot render non-finite {value!r}({unc!r})")
    # Checked before the log: 10.0**exponent underflows to 0 for a subnormal unc.
    if round(unc, 3) <= 0.0:
        return _fmt_value(value, 3)
    exponent = math.floor(math.log10(unc))
    if unc >= EXPONENT_FORM_UNC:  # unc / scale is below 100, so this recurses once
        scale = 10.0**exponent
        return f"{format_value_unc(value / scale, unc / scale)}e{exponent:+03d}"
    sig = 2 if unc / 10.0**exponent < 3.0 else 1
    place = sig - 1 - exponent  # the decimal place of the uncertainty's last digit
    if unc >= 100.0:  # place <= -1: round both to tens or beyond
        return f"{_fmt_value(round(value, place), 0)}({round(unc, place):.0f})"
    decimals = min(3, max(0, place))
    unc_rounded = round(unc, decimals)
    text = _fmt_value(value, decimals)
    if unc_rounded >= 1.0:
        return f"{text}({unc_rounded:.{decimals}f})"
    return f"{text}({int(round(unc_rounded * 10.0**decimals)):d})"


def format_quantity(q: Quantity, full_precision: bool = False) -> str:
    if full_precision:
        return f"{q.value!r}({q.unc!r})" if q.unc else repr(q.value)
    return format_value_unc(q.value, q.unc)


def quantity_to_dict(q: Quantity) -> dict[str, object]:
    return {"value": q.value, "unc": q.unc, "unit": q.unit}


def _quantity_from_dict(obj: dict[str, object]) -> object:
    if obj.keys() == {"value", "unc", "unit"}:
        return Quantity(obj["value"], obj["unc"], obj["unit"])
    return obj


_Map = Mapping[str, object]


class Report(Record):
    """A command's result: echoed inputs, ordered rows, and totals.

    Rows and totals hold :class:`Quantity` values; JSON writes each as a
    ``{"value", "unc", "unit"}`` object and reads it back as a Quantity.
    """

    __slots__ = _fields = ("kind", "inputs", "rows", "totals")

    def __init__(self, kind: str, inputs: _Map, rows: tuple[_Map, ...], totals: _Map) -> None:
        _set_kind(self, kind)
        _set_inputs(self, inputs)
        _set_rows(self, rows)
        _set_totals(self, totals)

    def to_json(self) -> str:
        import json  # here, so that table output does not load it

        payload = {
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "rows": [dict(row) for row in self.rows],
            "totals": dict(self.totals),
        }
        return (
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=quantity_to_dict)
            + "\n"
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        import json

        payload = json.loads(text, object_hook=_quantity_from_dict)
        return cls(
            kind=payload["kind"],
            inputs=payload["inputs"],
            rows=tuple(payload["rows"]),
            totals=payload["totals"],
        )


_set_kind, _set_inputs, _set_rows, _set_totals = _setters(Report)


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


# A renderer gets the report and a Quantity formatter; it returns the title
# line, the grid rows and the lines after the grid.
_Format = Callable[[Quantity], str]
_Table = tuple[str, list[list[str]], list[str]]


def polarizability_report(ds: Dataset, source: str, state: LevelLabel, multipole: str) -> Report:
    """Per-transition breakdown of one state's scalar or tensor polarizability."""
    breakdown = assemble_breakdown(ds, state, multipole)
    rows = []
    for contrib in breakdown.main:
        row = {"transition": contrib.transition, "d": contrib.d, "alpha0": contrib.quantity(SCALAR)}
        if contrib.alpha2 is not None:
            row["alpha2"] = contrib.quantity(TENSOR)
        rows.append(row)
    return Report(
        kind="polarizability",
        inputs={"dataset": source, "state": str(state), "multipole": multipole},
        rows=tuple(rows),
        totals={"tail": breakdown.tail, "core": breakdown.core, "total": breakdown.total},
    )


def _render_polarizability(report: Report, fq: _Format) -> _Table:
    multipole = report.inputs["multipole"]
    alpha_key = "alpha0" if multipole == SCALAR else "alpha2"
    grid = [["contribution", "d [e*a0]", f"{alpha_key} [a0^3]"]]
    grid += [[row["transition"], fq(row["d"]), fq(row[alpha_key])] for row in report.rows]
    totals = ("tail", "core", "total") if multipole == SCALAR else ("tail", "total")
    grid += [[key, "", fq(report.totals[key])] for key in totals]
    return f"# polarizability  state={report.inputs['state']}  multipole={multipole}", grid, []


def bbr_report(
    ds: Dataset, source: str, ground: LevelLabel, excited: LevelLabel, cond: BBRConditions
) -> Report:
    """BBR shifts of the two clock states and of the transition between them."""
    alpha_g = assemble_breakdown(ds, ground, SCALAR).total
    alpha_e = assemble_breakdown(ds, excited, SCALAR).total
    rows = tuple(
        {"state": str(state), "alpha0": alpha, "shift": bbr_shift_state(alpha, cond)}
        for state, alpha in ((ground, alpha_g), (excited, alpha_e))
    )
    return Report(
        kind="bbr",
        inputs={
            "dataset": source,
            "ground": str(ground),
            "excited": str(excited),
            "temperature": cond.temperature,
            "eta": cond.eta,
        },
        rows=rows,
        totals={
            "clock": clock_bbr_shift(alpha_g, alpha_e, cond),
            "clock_core_correlated": clock_bbr_shift(alpha_g, alpha_e, cond, ds.core_alpha.unc),
        },
    )


def _render_bbr(report: Report, fq: _Format) -> _Table:
    inputs, totals = report.inputs, report.totals
    grid = [["state", "alpha0 [a0^3]", "shift [Hz]"]]
    grid += [[row["state"], fq(row["alpha0"]), fq(row["shift"])] for row in report.rows]
    title = (
        f"# bbr  clock={inputs['ground']} -> {inputs['excited']}"
        f"  T={inputs['temperature']} K  eta={inputs['eta']}"
    )
    return title, grid, [
        f"clock shift [Hz]: {fq(totals['clock'])}  (quadrature)",
        f"clock shift [Hz]: {fq(totals['clock_core_correlated'])}  (core-correlated)",
    ]


def _channel_rows(channels: Sequence[DecayChannel]) -> tuple[dict[str, object], ...]:
    return tuple({"upper": str(ch.upper), "lower": str(ch.lower), "A": ch.A} for ch in channels)


def _channel_grid(report: Report, first: str, fq: _Format) -> list[list[str]]:
    return [[first, "A [MHz]"]] + [
        [f"{row['upper']} -> {row['lower']}", fq(row["A"])] for row in report.rows
    ]


def lifetime_report(ds: Dataset, source: str, state: LevelLabel) -> Report:
    """Decay channels and radiative lifetime of one state."""
    channels = decay_channels(ds, state)
    if not channels:
        raise ValueError(f"state {state} has no decay channels in the dataset")
    return Report(
        kind="lifetime",
        inputs={"dataset": source, "state": str(state)},
        rows=_channel_rows(channels),
        totals={"lifetime": lifetime(channels)},
    )


def _render_lifetime(report: Report, fq: _Format) -> _Table:
    return (
        f"# lifetime  state={report.inputs['state']}",
        _channel_grid(report, "channel", fq),
        [f"lifetime [ns]: {fq(report.totals['lifetime'])}"],
    )


def extract_report(
    ds: Dataset, source: str, upper: LevelLabel, lower: LevelLabel, tau: Quantity
) -> Report:
    """Matrix element of upper -> lower from `tau`, a measured lifetime of `upper` in ns.

    When the dataset holds that element, the totals also carry it as ``d_theory``
    and its ``percent_difference`` from the extracted value.
    """
    d, others = extract_pair(ds, upper, lower, tau)
    totals: dict[str, object] = {"d_extracted": d}
    for partner, el, _ in ds.couplings(upper):
        if partner == lower:
            totals["d_theory"] = el.d
            totals["percent_difference"] = (el.d.value - d.value) / d.value * 100.0
            break
    return Report(
        kind="extract",
        inputs={
            "dataset": source,
            "upper": str(upper),
            "lower": str(lower),
            "tau_ns": tau.value,
            "tau_unc_ns": tau.unc,
        },
        rows=_channel_rows(others),
        totals=totals,
    )


def _render_extract(report: Report, fq: _Format) -> _Table:
    inputs, totals = report.inputs, report.totals
    lines = [f"extracted d [e*a0]: {fq(totals['d_extracted'])}"]
    if "d_theory" in totals:
        lines.append(f"dataset d [e*a0]:   {fq(totals['d_theory'])}")
        lines.append(f"difference from dataset value: {totals['percent_difference']:.2f} %")
    title = (
        f"# extract  transition={inputs['upper']} -> {inputs['lower']}"
        f"  tau={inputs['tau_ns']}({inputs['tau_unc_ns']}) ns"
    )
    return title, _channel_grid(report, "other channel", fq), lines


_RENDERERS = {
    "polarizability": _render_polarizability,
    "bbr": _render_bbr,
    "lifetime": _render_lifetime,
    "extract": _render_extract,
}


def render_table(report: Report, full_precision: bool = False) -> str:
    """Render a report as the human-readable table for its kind."""
    render = _RENDERERS.get(report.kind)
    if render is None:
        raise ValueError(f"unknown report kind {report.kind!r}")
    title, grid, lines = render(report, lambda q: format_quantity(q, full_precision))
    dataset = f"# dataset: {report.inputs['dataset']}"
    return "\n".join([title, dataset, render_grid(grid), *lines]) + "\n"
