import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import zipfile
from types import ModuleType, SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polkit
import polkit.cli
import polkit.dataset
from polkit import (
    E_A0,
    MEGAHERTZ,
    BBRConditions,
    Dataset,
    DecayChannel,
    Level,
    LevelLabel,
    Quantity,
    Report,
    builtin_dataset,
    builtin_dataset_text,
    decay_channels,
    format_value_unc,
    lifetime,
    measured_lifetime,
    parse_dataset,
    render_table,
)
from polkit.cli import BUILTIN_DATASET, main
from polkit.dataset import MAX_DATASET_BYTES, parse_number
from polkit.report import bbr_report, extract_report, lifetime_report, polarizability_report
from test_dataset import NUMBER_PATTERN, dataset_fields

README_COMMANDS = [
    ["polarizability", "--state", "4s1/2", "--multipole", "scalar"],
    ["polarizability", "--state", "3d5/2", "--multipole", "tensor"],
    ["bbr"],
    ["bbr", "--temperature", "600", "--eta", "0.0"],
    ["lifetime", "--state", "4p1/2"],
    ["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "7.098", "--tau-unc-ns", "0.020"],
]


GOLDEN_CLI = json.loads(
    pathlib.Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8")
)


def readme_reports(ds):
    """The report of each README command, built by the library in the same order."""
    lab = LevelLabel.parse
    return [
        polarizability_report(ds, BUILTIN_DATASET, lab("4s1/2"), "scalar"),
        polarizability_report(ds, BUILTIN_DATASET, lab("3d5/2"), "tensor"),
        bbr_report(ds, BUILTIN_DATASET, lab("4s1/2"), lab("3d5/2"), BBRConditions(300.0, 0.0)),
        bbr_report(ds, BUILTIN_DATASET, lab("4s1/2"), lab("3d5/2"), BBRConditions(600.0, 0.0)),
        lifetime_report(ds, BUILTIN_DATASET, lab("4p1/2")),
        extract_report(ds, BUILTIN_DATASET, lab("4p1/2"), lab("4s1/2"),
                       measured_lifetime(7.098, 0.020)),
    ]


def test_readme_library_example(capsys):
    """The README's python block runs, and each print rounds to the numbers in its comment."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].split()[:2] for line in block.splitlines() if "print(" in line]
    assert len(printed) == len(comments) == 2
    for line, expected in zip(printed, comments):
        values = [float(token) for token in line.split()]
        rounded = [f"{v:.{len(e.split('.')[1])}f}" for v, e in zip(values, expected)]
        assert rounded == expected, (line, expected)


def test_all_lists_each_public_name_of_the_package_once():
    """`polkit.__all__` is every public non-module name that `polkit/__init__.py` imports
    or defines: a name imported but not listed, or listed but not imported, fails."""
    public = {
        name for name, value in vars(polkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(polkit.__all__) == sorted(public)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _equal_forms(x):
    """`x` and the numbers equal to it that a memo key cannot tell apart: its int or float,
    and the other signed zero."""
    forms = [x, -x] if x == 0 else [x]
    if isinstance(x, int):
        forms.append(float(x))
    elif x.is_integer():
        forms.append(int(x))
    return forms


MEMO_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5.0, -76.0, 1e12, -5e9, 1.7976931348623157e308]),
    st.integers(-10**7, 10**7),
    st.integers(-10**7, 10**7).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
MEMO_UNCS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.0004999, 0.0005, 1.0, 3.0, 100.0, 1e6]),
    st.floats(min_value=0.0, max_value=0.0005),  # no digit at three decimals
    st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormal
    st.floats(min_value=1e6, max_value=1.7976931348623157e308),  # the exponent form
    st.integers(0, 10**7),
    st.floats(min_value=0.0, max_value=1e7),
)


class TestFormatting:
    @pytest.mark.parametrize(
        "value,unc,expected",
        [
            (76.060718, 1.097079, "76.1(1.1)"),
            (31.969, 1.0657, "32.0(1.1)"),
            (-24.5017, 0.3908, "-24.5(4)"),
            (22.77908, 0.24940, "22.78(25)"),
            (24.39302, 0.48816, "24.4(5)"),
            (48.37532, 0.96765, "48.4(1.0)"),
            (3.25, 0.17, "3.25(17)"),
            (0.379643, 0.013169, "0.380(13)"),
            (0.006, 0.006, "0.006(6)"),
            (0.00698, 0.00015, "0.007"),
            (2.849, 0.0044, "2.849(4)"),
            (1.7, 1.02, "1.7(1.0)"),
            (136.037, 2.72, "136.0(2.7)"),
            (5.0, 0.0, "5.000"),
            (-0.0001, 0.00002, "0.000"),
            (3.25, 5e-324, "3.250"),
            (3.25, 1e-323, "3.250"),
            (1.0, 3.0, "1(3)"),  # a leading digit of exactly 3 gets one digit
            (0.5, 0.003, "0.500(3)"),
            (483.2, 47.3, "483(47)"),  # below 100 the uncertainty keeps its integer digits
            (12345.6, 1234.5, "12300(1200)"),  # from 100 on, rounded to significant digits
            (123456.0, 345.0, "123500(300)"),
            (0.0, 999999.9, "0(1000000)"),  # rounds up to the bound, still fixed-point
            (1e12, 1.5e6, "1000000.0(1.5)e+06"),  # from EXPONENT_FORM_UNC on, over 10**6
            (-5e9, 2.5e6, "-5000.0(2.5)e+06"),
            (3.0, 3.656751558653931e307, "0(4)e+307"),
            (1.7976931348623157e308, 1.7976931348623157e308, "1.8(1.8)e+308"),
        ],
    )
    def test_value_unc_rendering(self, value, unc, expected):
        assert format_value_unc(value, unc) == expected

    @pytest.mark.parametrize(
        "value,unc",
        [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_rejected(self, value, unc):
        """At every call: the memo keeps no refusal."""
        messages = set()
        for _ in range(3):
            before = format_value_unc.cache_info()
            with pytest.raises(ValueError, match="non-finite") as info:
                format_value_unc(value, unc)
            messages.add(str(info.value))
            after = format_value_unc.cache_info()
            assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        assert len(messages) == 1

    @given(value=MEMO_VALUES, unc=MEMO_UNCS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_the_memo_prints_the_text_of_every_equal_key(self, value, unc):
        """The first form of a key fills the memo; every equal form then reads that entry
        and must get the text that formatting it afresh gives."""
        for v in _equal_forms(value):
            for u in _equal_forms(unc):
                assert format_value_unc(v, u) == format_value_unc.__wrapped__(v, u), (v, u)


class TestReportModel:
    def test_json_roundtrip(self):
        report = Report(
            kind="bbr",
            inputs={"dataset": "x.dat", "temperature": 300.0},
            rows=({"state": "4s1/2", "alpha0": Quantity(76.06, 1.1, "a0^3")},),
            totals={"clock": Quantity(0.3796, 0.0132, "Hz")},
        )
        assert Report.from_json(report.to_json()) == report
        clock = json.loads(report.to_json())["totals"]["clock"]
        assert clock == {"value": 0.3796, "unc": 0.0132, "unit": "Hz"}

    def test_readme_reports_hold_quantities_and_roundtrip(self, golden, capsys):
        for argv, report in zip(README_COMMANDS, readme_reports(golden)):
            code, out, _ = run_cli(capsys, *argv, "--format", "machine")
            assert (code, out) == (0, report.to_json())
            assert Report.from_json(out) == report
            for row in report.rows:
                assert {type(v) for v in row.values()} <= {str, Quantity}
            for key, value in report.totals.items():
                assert type(value) is (float if key == "percent_difference" else Quantity)

    def test_json_is_sorted_and_stable(self):
        report = Report(kind="x", inputs={"b": 1, "a": 2}, rows=(), totals={})
        assert report.to_json() == report.to_json()
        payload = json.loads(report.to_json())
        assert list(payload) == sorted(payload)

    def test_table_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError) as info:
            render_table(Report("nope", {"dataset": "x"}, (), {}))
        assert str(info.value) == "unknown report kind 'nope'"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_refuses_non_finite(self, value):
        report = Report(kind="x", inputs={}, rows=(), totals={"t": value})
        with pytest.raises(ValueError):
            report.to_json()

    def test_extract_rows_are_the_decay_channels_but_the_replaced_one(self):
        """For every E1 element of the packaged dataset, measured at the dataset's own lifetime
        of its upper state, the other-channel rows are decay_channels less the replaced one."""
        ds = builtin_dataset()
        for el in ds.elements:
            channels = decay_channels(ds, el.upper)
            tau = lifetime(channels)
            report = extract_report(ds, "builtin", el.upper, el.lower, tau)
            assert report.rows == tuple(
                {"upper": str(ch.upper), "lower": str(ch.lower), "A": ch.A}
                for ch in channels
                if ch.lower != el.lower
            )
            assert report.totals["d_extracted"].value == pytest.approx(el.d.value, rel=1e-9)


class TestCLI:
    def test_polarizability_table_ends_with_total(self, capsys):
        code, out, err = run_cli(
            capsys, "polarizability", "--state", "4s1/2", "--multipole", "scalar"
        )
        assert code == 0 and err == ""
        assert out.rstrip().splitlines()[-1].split() == ["total", "76.1(1.1)"]

    def test_tensor_table_ends_with_total(self, capsys):
        code, out, _ = run_cli(
            capsys, "polarizability", "--state", "3d5/2", "--multipole", "tensor"
        )
        assert code == 0
        assert out.rstrip().splitlines()[-1].split() == ["total", "-24.5(4)"]

    def test_bbr_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "bbr")
        assert code == 0
        assert "clock shift [Hz]: 0.380(13)  (quadrature)" in out
        assert "(core-correlated)" in out

    def test_bbr_double_temperature_scales_16x(self, capsys):
        _, out300, _ = run_cli(capsys, "bbr", "--format", "machine")
        _, out600, _ = run_cli(capsys, "bbr", "--temperature", "600", "--format", "machine")
        clock300 = json.loads(out300)["totals"]["clock"]["value"]
        clock600 = json.loads(out600)["totals"]["clock"]["value"]
        assert clock600 == pytest.approx(16.0 * clock300, rel=1e-12)

    def test_lifetime_table(self, capsys):
        code, out, _ = run_cli(capsys, "lifetime", "--state", "4p1/2")
        assert code == 0
        assert "4p1/2 -> 4s1/2" in out and "4p1/2 -> 3d3/2" in out
        assert "lifetime [ns]: 6.87" in out

    def test_extract_reports_percent_difference(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extract", "--upper", "4p1/2", "--lower", "4s1/2",
            "--tau-ns", "7.098", "--tau-unc-ns", "0.020",
        )
        assert code == 0
        assert "extracted d [e*a0]: 2.849(4)" in out
        assert "1.74 %" in out

    def test_extract_e1_forbidden_pair_is_precondition_error(self, capsys):
        code, out, err = run_cli(
            capsys, "extract", "--upper", "4p1/2", "--lower", "3d5/2", "--tau-ns", "5"
        )
        assert (code, out) == (3, "")
        assert err == "polkit: error: 4p1/2 -> 3d5/2 violates E1 selection rules\n"

    def test_machine_format_roundtrips(self, capsys):
        code, out, _ = run_cli(
            capsys, "polarizability", "--state", "3d5/2", "--format", "machine"
        )
        assert code == 0
        report = Report.from_json(out)
        assert report.kind == "polarizability"
        assert Report.from_json(report.to_json()) == report
        assert len(report.rows) == 21

    def test_repeated_runs_identical(self, capsys):
        argv = ("bbr", "--format", "machine")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_full_precision_bypasses_rounding(self, capsys):
        _, out, _ = run_cli(
            capsys, "polarizability", "--state", "4s1/2", "--full-precision"
        )
        assert "2.8982" in out  # unrounded dataset value visible

    @pytest.mark.parametrize(
        "argv",
        [
            ["polarizability", "--state", "9g9/2"],
            ["lifetime", "--state", "9g9/2"],
            ["extract", "--upper", "9g9/2", "--lower", "4s1/2"],
            ["extract", "--upper", "4p1/2", "--lower", "9g9/2"],
            ["extract", "--upper", "9g9/2", "--lower", "9g7/2"],  # the upper is named first
        ],
        ids=["polarizability", "lifetime", "extract-upper", "extract-lower", "extract-both"],
    )
    def test_unknown_state_is_data_error(self, capsys, argv):
        if argv[0] == "extract":
            argv = [*argv, "--tau-ns", "7.098"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "polkit: error: unknown state 9g9/2\n"

    def test_malformed_label_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polarizability", "--state", "9z9/2")
        assert code == 1
        assert "label" in err

    @pytest.mark.parametrize("label", ["\u0664s1/2", "4s1/2\n"])
    def test_non_ascii_digit_or_newline_label_is_usage_error(self, capsys, label):
        code, out, err = run_cli(capsys, "polarizability", "--state", label)
        assert code == 1
        assert "bad level label" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bbr", "--temperature", "0"], "temperature must be positive, got 0.0"),
            (["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "0"],
             "lifetime [ns] must lie in [1e-06, 1e+15], got 0.0"),
            (["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "7",
              "--tau-unc-ns", "-0.02"],
             "lifetime uncertainty [ns] must lie in [0, 1e+15], got -0.02"),
        ],
        ids=["temperature", "tau", "tau-unc"],
    )
    def test_out_of_domain_float_flag_is_usage_error(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"polkit: error: {message}\n")

    @pytest.mark.parametrize(
        "flag,value",
        [("--temperature", "nan"), ("--temperature", "inf"), ("--eta", "nan"),
         ("--tau-ns", "inf"), ("--tau-unc-ns", "nan")],
    )
    def test_non_finite_float_flag_is_usage_error(self, capsys, flag, value):
        command = "extract" if flag.startswith("--tau") else "bbr"
        argv = [command, flag, value]
        if command == "extract":
            argv += ["--upper", "4p1/2", "--lower", "4s1/2"]
            if flag != "--tau-ns":
                argv += ["--tau-ns", "7.098"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "non-finite number" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["3_00", "\u0663\u0660\u0660", "\uff13\uff10\uff10"])
    def test_float_flag_takes_ascii_decimal_only(self, capsys, value):
        code, out, err = run_cli(capsys, "bbr", "--temperature", value)
        assert code == 1
        assert f"argument --temperature: bad number {value!r}" in err
        assert out == ""

    def test_negative_exponent_flag_value(self, capsys):
        for fmt in ([], ["--format", "machine"]):
            code, out, err = run_cli(capsys, "bbr", "--eta", "-1e-3", *fmt)
            assert (code, err) == (0, "")
            assert out == run_cli(capsys, "bbr", "--eta", "-0.001", *fmt)[1]

    @pytest.mark.parametrize("argv", [["--help"], ["bbr", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: polkit")
        assert err == ""

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bbr", "--nonsense")
        assert code == 1

    def test_ground_state_has_no_channels(self, capsys):
        code, _, err = run_cli(capsys, "lifetime", "--state", "4s1/2")
        assert code == 3
        assert "no decay channels" in err

    def test_tensor_for_s_state_is_precondition_error(self, capsys):
        code, _, err = run_cli(
            capsys, "polarizability", "--state", "4s1/2", "--multipole", "tensor"
        )
        assert code == 3
        assert "tensor" in err

    def test_inconsistent_lifetime_is_precondition_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "5000",
        )
        assert code == 3
        assert "residual" in err

    def test_missing_dataset_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "bbr", "--dataset", "/nonexistent.dat")
        assert code == 2
        assert "cannot read dataset" in err

    @pytest.mark.parametrize("env_dataset", [None, "packaged"])
    def test_empty_dataset_flag_is_data_error(self, capsys, monkeypatch, golden_text, tmp_path,
                                              env_dataset):
        if env_dataset:
            path = tmp_path / "packaged.dat"
            path.write_text(golden_text)
            monkeypatch.setenv("POLKIT_DATASET", str(path))
        else:
            monkeypatch.delenv("POLKIT_DATASET", raising=False)
        code, out, err = run_cli(capsys, "bbr", "--dataset", "")
        assert (code, out) == (2, "")
        assert err.startswith("polkit: error: cannot read dataset '': ")

    def test_empty_env_var_is_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("POLKIT_DATASET", "")
        code, out, _ = run_cli(capsys, "bbr", "--format", "machine")
        assert code == 0
        assert json.loads(out)["inputs"]["dataset"] == BUILTIN_DATASET

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "binary.dat"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "bbr", "--dataset", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"polkit: error: cannot read dataset {str(path)!r}: ")

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-byte-over"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_dataset_file_size_is_bounded(self, tmp_path, capsys, monkeypatch, golden_text,
                                          over, source):
        """The packaged text padded by a comment to MAX_DATASET_BYTES parses; one byte more
        is refused, naming the bound, whether --dataset or POLKIT_DATASET names the file."""
        data = golden_text.encode("utf-8") + b"#"
        data += b"x" * (MAX_DATASET_BYTES - len(data) - 1 + over) + b"\n"
        path = tmp_path / "padded.dat"
        path.write_bytes(data)
        argv = ["bbr", "--format", "machine"]
        if source == "flag":
            argv += ["--dataset", str(path)]
        else:
            monkeypatch.setenv("POLKIT_DATASET", str(path))
        code, out, err = run_cli(capsys, *argv)
        if over:
            assert (code, out, err) == (2, "", f"polkit: error: cannot read dataset "
                                        f"{str(path)!r}: larger than 1048576 bytes\n")
        else:
            assert (code, err) == (0, "") and json.loads(out)["inputs"]["dataset"] == str(path)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-byte-over"])
    def test_a_file_that_holds_more_than_it_states_is_read_to_the_bound(
        self, tmp_path, capsys, monkeypatch, golden_text, over
    ):
        """As a /proc file states 0 bytes: the read goes past the stated size, up to the
        bound, and the bound still holds."""
        data = golden_text.encode("utf-8") + b"#"
        data += b"x" * (MAX_DATASET_BYTES - len(data) - 1 + over) + b"\n"
        path = tmp_path / "unstated.dat"
        path.write_bytes(data)
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], 0,
                                                                     *fstat(fd)[7:])))
        code, out, err = run_cli(capsys, "bbr", "--dataset", str(path))
        monkeypatch.undo()
        if over:
            assert (code, out, err) == (2, "", f"polkit: error: cannot read dataset "
                                        f"{str(path)!r}: larger than 1048576 bytes\n")
        else:
            assert (code, out, err) == run_cli(capsys, "bbr", "--dataset", str(path))

    def test_a_file_that_is_not_regular_is_refused(self, capsys):
        assert run_cli(capsys, "bbr", "--dataset", os.devnull) == (
            2, "", f"polkit: error: cannot read dataset {os.devnull!r}: not a regular file\n"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_a_fifo_with_no_writer_is_refused_without_blocking(self, tmp_path):
        """Run in a child with a timeout, so that a blocking open fails the test, not hangs it."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(polkit.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        child = subprocess.run([sys.executable, "-m", "polkit.cli", "bbr", "--dataset", str(fifo)],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", f"polkit: error: cannot read dataset {str(fifo)!r}: not a regular file\n"
        )

    def test_a_byte_order_mark_is_read_past(self, tmp_path, capsys, golden_text):
        """A UTF-8 byte-order mark before the packaged text changes no number of the report."""
        reports = []
        for name, mark in (("plain.dat", b""), ("bom.dat", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(mark + golden_text.encode("utf-8"))
            code, out, err = run_cli(capsys, "bbr", "--dataset", str(path), "--format", "machine")
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["inputs"].pop("dataset") == str(path)
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("data", [b"\xef\xbb\xbf\xff", b"\xef\xbb",
                                      b"\xef\xbb\xbfcore 3\xe2\x82", b"core 3.25 0.17\n\xe2\x82"])
    def test_bytes_that_are_not_utf_8_are_refused_as_utf_8_sig_refuses_them(self, tmp_path,
                                                                          capsys, data):
        """A byte-order mark is read past, and a decoding error names the positions
        that the utf-8-sig codec names."""
        path = tmp_path / "bad.dat"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8-sig")
        assert run_cli(capsys, "bbr", "--dataset", str(path)) == (
            2, "", f"polkit: error: cannot read dataset {str(path)!r}: {info.value}\n"
        )

    def test_a_directory_is_refused_in_the_words_of_open(self, tmp_path, capsys):
        with pytest.raises(IsADirectoryError) as info:
            open(tmp_path, "rb")
        assert run_cli(capsys, "bbr", "--dataset", str(tmp_path)) == (
            2, "", f"polkit: error: cannot read dataset {str(tmp_path)!r}: {info.value}\n"
        )

    @pytest.mark.parametrize(
        "packaged,text,message",
        [(False, "level 4s1/2 zero\n", "line 1: bad energy 'zero'"),
         (True, "core 3.25 0.17\n", "line 75: duplicate core entry"),
         (True, "tail 4s1/2 scalar 0 0\n", "line 75: duplicate tail entry for 4s1/2 scalar")],
        ids=["bad-number", "second-core", "second-tail"],
    )
    def test_corrupt_dataset_reports_line(self, tmp_path, capsys, golden_text, packaged, text,
                                          message):
        """`text` alone, or appended to the packaged text."""
        path = tmp_path / "bad.dat"
        path.write_text(golden_text + text if packaged else text)
        assert run_cli(capsys, "bbr", "--dataset", str(path)) == (
            2, "", f"polkit: error: {message}\n"
        )

    def test_env_var_selects_dataset(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "mini.dat"
        path.write_text(
            "level 4s1/2 0.0\nlevel 4p1/2 25191.51\n"
            "e1 4s1/2 4p1/2 2.898 0.029\ncore 3.25 0.17\n"
        )
        monkeypatch.setenv("POLKIT_DATASET", str(path))
        code, out, _ = run_cli(
            capsys, "polarizability", "--state", "4s1/2", "--format", "machine"
        )
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["dataset"] == str(path)
        assert len(report["rows"]) == 1

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLKIT_DATASET", "/nonexistent.dat")
        golden = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src" / "polkit" / "data" / "ca_plus.dat"
        )
        code, out, _ = run_cli(
            capsys, "bbr", "--dataset", golden, "--format", "machine"
        )
        assert code == 0
        assert json.loads(out)["inputs"]["dataset"] == golden

    def test_subnormal_uncertainty_renders(self, tmp_path, capsys):
        path = tmp_path / "subnormal.dat"
        path.write_text(
            "level 4s1/2 0.0\nlevel 4p1/2 25191.51\n"
            "e1 4s1/2 4p1/2 2.898 0.029\ncore 3.25 5e-324\n"
        )
        code, out, err = run_cli(
            capsys, "polarizability", "--state", "4s1/2", "--dataset", str(path)
        )
        assert code == 0 and err == ""
        assert [line.split() for line in out.splitlines() if line.startswith("core")] == [
            ["core", "3.250"]
        ]

    def test_negative_zero_uncertainty_prints_unsigned(self, tmp_path, capsys):
        """A σ of -0.0, from a dataset or from --tau-unc-ns, is printed as 0.0: the table's
        title and the machine format carry no sign."""
        argv = ["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "7.098"]
        code, out, err = run_cli(capsys, *argv, "--tau-unc-ns", "-0.0")
        assert (code, err) == (0, "")
        assert out.startswith("# extract  transition=4p1/2 -> 4s1/2  tau=7.098(0.0) ns\n")
        assert out == run_cli(capsys, *argv, "--tau-unc-ns", "0.0")[1]
        code, out, err = run_cli(capsys, *argv, "--tau-unc-ns", "-0.0", "--format", "machine")
        assert (code, err) == (0, "")
        assert '"tau_unc_ns": 0.0,' in out and "-0.0" not in out
        path = tmp_path / "negative-zero.dat"
        path.write_text(
            "level 4s1/2 0.0\nlevel 4p1/2 25191.51\n"
            "e1 4s1/2 4p1/2 2.898 -0.0\ncore 3.25 -0.0\ntail 4s1/2 scalar 0.5 -0.0\n"
        )
        for fmt in ([], ["--full-precision"], ["--format", "machine"]):
            code, out, err = run_cli(
                capsys, "polarizability", "--state", "4s1/2", "--dataset", str(path), *fmt
            )
            assert (code, err) == (0, "") and "-0.0" not in out
        report = json.loads(out)
        assert [report["totals"][key]["unc"] for key in ("core", "tail")] == [0.0, 0.0]
        assert math.copysign(1.0, report["rows"][0]["d"]["unc"]) == 1.0

    def test_extract_without_dataset_element_omits_comparison(self, tmp_path, capsys):
        path = tmp_path / "mini.dat"
        path.write_text(
            "level 4s1/2 0.0\nlevel 3d3/2 13650.19\nlevel 4p1/2 25191.51\n"
            "e1 3d3/2 4p1/2 2.46354 0.012\ncore 3.25 0.17\n"
        )
        code, out, _ = run_cli(
            capsys,
            "extract", "--upper", "4p1/2", "--lower", "4s1/2",
            "--tau-ns", "7.098", "--dataset", str(path), "--format", "machine",
        )
        assert code == 0
        totals = json.loads(out)["totals"]
        assert "d_extracted" in totals
        assert "d_theory" not in totals and "percent_difference" not in totals


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(1e-320, 1e308), st.floats(0.0, 10.0)), min_size=1, max_size=4))
@example([(1e-320, 0.0)])  # the lifetime overflowed
@example([(1e-305, 10.0)])  # a lifetime of 1e308 ns fitted, its uncertainty did not
@example([(1.5e307, 10.0), (1.5e307, 10.0)])  # the quadrature sum of the uncertainties overflowed
@example([(1e308, 0.0), (1e308, 0.0)])  # the rate sum overflowed
def test_lifetime_answers_or_refuses_a_channel_outside_the_box(rates):
    """Any channel set, rates from 1e-320 to 1e308 MHz and uncertainties up to 10x the rate:
    DecayChannel refuses a rate or uncertainty outside its bounds, naming it, and every set
    it takes gets a finite lifetime with the summed rate's relative uncertainty."""
    upper = LevelLabel.parse("4p3/2")
    try:
        channels = [
            DecayChannel(upper, LevelLabel.parse(lower),
                         Quantity(rate, min(rate * factor, sys.float_info.max), MEGAHERTZ))
            for (rate, factor), lower in zip(rates, ("4s1/2", "3d3/2", "3d5/2", "4p1/2"))
        ]
    except ValueError as error:
        assert str(error).startswith(("A [MHz] must lie in [1e-35, 1e+18], got ",
                                      "A uncertainty [MHz] must lie in [0, 1e+18], got ")
                                     ), error
        return
    tau = lifetime(channels)
    assert math.isfinite(tau.value) and math.isfinite(tau.unc)
    total = math.fsum(ch.A.value for ch in channels)
    rel = math.hypot(*(ch.A.unc for ch in channels)) / total
    assert tau.value == 1000.0 / total
    assert tau.unc == pytest.approx(tau.value * rel, rel=1e-9, abs=1e-300)


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    """Table output needs none of them, and reading argv needs neither argparse nor re; a
    fresh site-free interpreter, which no start-up hook has loaded them into, shows what
    `import polkit.cli` and each call load.  Help, an abbreviated flag (which prints what
    the full flag prints) and a refused number load neither either."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(polkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "\n".join([
        "import io, sys",
        "unwanted = {'dataclasses', 'inspect', 'json', 'typing', 'importlib.resources',",
        "            'argparse', 'gettext', 'locale', 're'}",
        "before = set(sys.modules)",
        "import polkit.cli",
        "print('import', *sorted(unwanted & (set(sys.modules) - before)))",
        "def run(*argv):",
        "    stdout, sys.stdout = sys.stdout, io.StringIO()",
        "    stderr, sys.stderr = sys.stderr, io.StringIO()",
        "    try:",
        "        return polkit.cli.main(list(argv)), sys.stdout.getvalue()",
        "    finally:",
        "        sys.stdout, sys.stderr = stdout, stderr",
        "code, _ = run('bbr')",
        "print('bbr', code, *sorted(unwanted & (set(sys.modules) - before)))",
        "code, _ = run('--help')",
        "print('help', code, *sorted(unwanted & (set(sys.modules) - before)))",
        "full, abbreviated = run('bbr', '--temperature', '310'), run('bbr', '--temp', '310')",
        "print('abbreviated', abbreviated[0], abbreviated == full,",
        "      *sorted(unwanted & (set(sys.modules) - before)))",
        "code, _ = run('bbr', '--temperature', 'nan')",
        "print('refused', code, *sorted(unwanted & (set(sys.modules) - before)))",
    ])
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert child.stdout.splitlines() == [
        "import", "bbr 0", "help 0", "abbreviated 0 True", "refused 1"
    ]


@pytest.mark.parametrize(
    "argv",
    [["bbr"], ["polarizability", "--state", "3d5/2", "--multipole", "tensor", "--format", "machine"]],
    ids=["bbr", "polarizability"],
)
def test_cli_runs_from_a_zipped_package(tmp_path, capsys, argv):
    """The packaged dataset is read through the package's own loader, so polkit imported
    from a zip prints what it prints in process."""
    package = pathlib.Path(polkit.__file__).parent
    archive = tmp_path / "polkit.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.suffix in (".py", ".dat"):
                zf.write(path, path.relative_to(package.parent))
    env = dict(os.environ, PYTHONPATH=str(archive), PYTHONIOENCODING="utf-8")
    code = (
        "import sys, zipimport, polkit.cli; "
        "assert isinstance(polkit.cli.__loader__, zipimport.zipimporter), polkit.cli.__file__; "
        "sys.exit(polkit.cli.main(sys.argv[1:]))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, env=env, cwd=tmp_path
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert main(argv) == 0
    assert child.stdout == capsys.readouterr().out.encode("utf-8")


class TestWarmProcess:
    """Repeated ``main`` calls in one process give the output of fresh ones."""

    def _steps(self, tmp_path, golden_text):
        syntax = tmp_path / "syntax.dat"
        syntax.write_text(golden_text + "core 3.25\n")
        semantic = tmp_path / "semantic.dat"
        semantic.write_text(golden_text.replace("core 3.25", "core -3.25"))
        user = tmp_path / "user.dat"
        user_argv = ["polarizability", "--state", "4s1/2", "--dataset", str(user)]
        return [
            *README_COMMANDS,
            ["bbr", "--nonsense"],
            ["bbr", "--dataset", str(syntax)],
            ["lifetime", "--state", "4p1/2", "--dataset", str(semantic), "--format", "machine"],
            (user, golden_text),
            user_argv,
            (user, golden_text.replace("core 3.25", "core 4.25")),
            user_argv,
        ]

    def _run(self, capsys, steps, fresh):
        results = []
        for step in steps:
            if isinstance(step, tuple):
                path, text = step
                path.write_text(text)  # rewritten in place between calls
                continue
            if fresh:
                builtin_dataset.cache_clear()
                parse_dataset.cache_clear()
                LevelLabel.parse.cache_clear()
            results.append(run_cli(capsys, *step))
        return results

    def test_cached_state_changes_no_output(self, tmp_path, capsys, golden_text):
        steps = self._steps(tmp_path, golden_text)
        warm = self._run(capsys, steps, fresh=False) + self._run(capsys, steps, fresh=False)
        fresh = self._run(capsys, steps, fresh=True) + self._run(capsys, steps, fresh=True)
        assert warm == fresh

        n = len(warm) // 2
        assert warm[:n] == warm[n:]
        assert [code for code, _, _ in warm[: len(README_COMMANDS)]] == [0] * len(README_COMMANDS)
        usage, syntax, semantic, before, after = warm[len(README_COMMANDS) : n]
        assert usage[0] == 1
        assert syntax[0] == 2 and "line" in syntax[2]
        assert semantic[0] == 2 and "core polarizability must be positive" in semantic[2]
        assert (before[0], after[0]) == (0, 0)
        assert before[1].splitlines()[-1].split() == ["total", "76.1(1.1)"]
        assert after[1].splitlines()[-1].split() == ["total", "77.1(1.1)"]

    def test_fresh_runs_clear_the_label_cache(self, capsys):
        self._run(capsys, [["bbr"]], fresh=True)
        one = LevelLabel.parse.cache_info()
        assert one.misses == 27  # each distinct label of the packaged dataset, once
        self._run(capsys, [["bbr"], ["bbr"]], fresh=True)
        assert LevelLabel.parse.cache_info() == one  # the second call started empty too
        self._run(capsys, [["bbr"]], fresh=False)
        warm = LevelLabel.parse.cache_info()
        assert warm.misses == 27 and warm.hits > one.hits


class TestBuiltinDataset:
    """The packaged dataset is parsed once per process; a dataset file is read at every
    call and parsed once per distinct text."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Count calls of parse_dataset under both names the program calls it by."""
        calls = []

        def counting(text):
            calls.append(text)
            return parse_dataset(text)

        monkeypatch.setattr(polkit.dataset, "parse_dataset", counting)
        monkeypatch.setattr(polkit.cli, "parse_dataset", counting)
        builtin_dataset.cache_clear()
        parse_dataset.cache_clear()
        yield calls
        builtin_dataset.cache_clear()  # drop what was parsed under the patch

    def test_default_calls_parse_the_packaged_file_once(self, capsys, parses):
        results = [run_cli(capsys, "bbr") for _ in range(5)]
        assert len(parses) == 1
        assert results == [results[0]] * 5 and results[0][0] == 0

    def test_one_shared_dataset_equal_to_a_fresh_parse(self):
        assert builtin_dataset() is builtin_dataset()
        assert builtin_dataset() == parse_dataset(builtin_dataset_text())

    def test_a_dataset_file_is_read_at_every_call_and_parsed_once_per_text(
        self, tmp_path, capsys, monkeypatch, parses
    ):
        path = tmp_path / "copy.dat"
        path.write_text(builtin_dataset_text(), encoding="utf-8")
        flag = [run_cli(capsys, "bbr", "--dataset", str(path)) for _ in range(5)]
        monkeypatch.setenv("POLKIT_DATASET", str(path))
        env = [run_cli(capsys, "bbr") for _ in range(5)]
        assert len(parses) == 10  # each call reads the file and passes its text on
        assert parse_dataset.cache_info().misses == 1
        assert flag == env == [flag[0]] * 5 and flag[0][0] == 0
        path.write_text(builtin_dataset_text().replace("core 3.25", "core 4.25"), encoding="utf-8")
        rewritten = [run_cli(capsys, "bbr") for _ in range(2)]
        assert len(parses) == 12 and parse_dataset.cache_info().misses == 2
        assert rewritten[0] == rewritten[1] and rewritten[0][0] == 0
        assert rewritten[0][1].splitlines()[3].split() == ["4s1/2", "77.1(1.1)", "-0.664(9)"]
        assert flag[0][1].splitlines()[3].split() == ["4s1/2", "76.1(1.1)", "-0.655(9)"]

    def test_a_refused_parse_is_not_cached(self, monkeypatch, parses):
        monkeypatch.setattr(polkit.dataset, "builtin_dataset_text", lambda: "core 3.25\n")
        for _ in range(2):
            with pytest.raises(polkit.DatasetError, match="line 1: expected"):
                builtin_dataset()
        assert len(parses) == 2

    def test_golden_entries_share_one_dataset_in_any_order(self, capsys):
        """No warm state leaks between calls: every golden entry prints its bytes in file
        order, reversed, and after refusals on the shared dataset, from one parse."""
        def replay(cases):
            for case in cases:
                expected = (case["exit"], case["stdout"], case["stderr"])
                assert run_cli(capsys, *case["argv"]) == expected, case["argv"]

        builtin_dataset.cache_clear()
        replay(GOLDEN_CLI)
        replay(reversed(GOLDEN_CLI))
        assert run_cli(capsys, "polarizability", "--state", "4s1/2", "--multipole", "tensor")[0] == 3
        assert run_cli(capsys, "polarizability", "--state", "5d5/2")[0] == 2
        replay(GOLDEN_CLI)
        ds = builtin_dataset()
        assert builtin_dataset.cache_info().misses == 1
        assert set(ds._rows) <= {level.label for level in ds.levels}  # at most one per level


LABELS = ["4s1/2", "4p1/2", "4p3/2", "3d3/2", "3d5/2", "9g9/2", "\u0664s1/2", "7x1/2"]
NUMBERS = ["nan", "1e400", "-1e-3", "2_9", "\u0663", "0", "-5", "300", "7.098", "0.02", "1e308",
           "1e-300"]
FLAG_VALUES = {
    "--state": LABELS, "--ground": LABELS, "--excited": LABELS, "--upper": LABELS,
    "--lower": LABELS, "--temperature": NUMBERS, "--eta": NUMBERS, "--tau-ns": NUMBERS,
    "--tau-unc-ns": NUMBERS, "--multipole": ["scalar", "tensor", "vector"],
    "--format": ["table", "machine", "json"], "--full-precision": [], "-h": [], "--help": [],
}
COMMAND_FLAGS = {
    "polarizability": ["--state", "--multipole"],
    "bbr": ["--ground", "--excited", "--temperature", "--eta"],
    "lifetime": ["--state"],
    "extract": ["--upper", "--lower", "--tau-ns", "--tau-unc-ns"],
}


@pytest.fixture(scope="module")
def dataset_paths(tmp_path_factory):
    """The packaged dataset, a file that is not UTF-8, a directory and a missing file."""
    root = tmp_path_factory.mktemp("datasets")
    (root / "binary.dat").write_bytes(b"\x7fELF\x02\x01\xff\xfe\x00")
    packaged = pathlib.Path(__file__).resolve().parent.parent / "src/polkit/data/ca_plus.dat"
    return [str(packaged), str(root / "binary.dat"), str(root), str(root / "missing.dat")]


@st.composite
def argvs(draw, dataset_paths):
    """A subcommand with some of its flags (edge values among the values) and stray tokens."""
    values = {**FLAG_VALUES, "--dataset": dataset_paths}
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command] + ["--dataset", "--format", "--full-precision"]:
        if draw(st.booleans()):
            argv.append(flag)
            if values[flag]:
                argv.append(draw(st.sampled_from(values[flag])))
    anything = st.sampled_from(sorted(values) + sorted({v for vs in values.values() for v in vs}))
    return argv + draw(st.lists(anything, max_size=1))


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_main_returns_documented_exit_code(self, dataset_paths, data):
        argv = data.draw(argvs(dataset_paths))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def order_path(tmp_path_factory):
    """One dataset file, rewritten with each line order."""
    return tmp_path_factory.mktemp("order") / "order.dat"


def machine_outputs(path, text, calls):
    """(exit code, stdout, stderr) of each of `calls` in machine form, on `text` written to
    `path`."""
    path.write_text(text, encoding="utf-8")
    outputs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--dataset", str(path), "--format", "machine"])
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_reports_do_not_depend_on_the_order_of_the_dataset_lines(order_path, data):
    """A valid dataset whose e1 lines carry distinct d values, and the same lines in a drawn
    order: every polarizability, bbr, lifetime and extract call prints the same bytes, so a
    decay channel's row and a rate sum depend on the physics alone."""
    levels, elements, core, tails = data.draw(dataset_fields(kinds=()))
    levels = [Level(label, energy * 5000.0) for label, energy in levels]  # optical gaps
    values = data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(elements),
                                max_size=len(elements), unique=True))
    elements = [el._replace(d=Quantity(d, d / 100.0, E_A0)) for el, d in zip(elements, values)]
    ds = Dataset(levels, elements, core, tails)
    labels = [str(level.label) for level in levels]
    calls = [["bbr", "--ground", labels[0], "--excited", labels[1]]]
    for label in labels:
        calls += [["polarizability", "--state", label, "--multipole", m]
                  for m in ("scalar", "tensor")]
        calls.append(["lifetime", "--state", label])
    for el in elements:  # tau: the upper level's own lifetime, so the element's d comes back
        tau = lifetime(decay_channels(ds, el.upper))
        calls.append(["extract", "--upper", str(el.upper), "--lower", str(el.lower),
                      "--tau-ns", repr(tau.value), "--tau-unc-ns", repr(tau.unc)])
    text = ds.to_text()
    permuted = "\n".join(data.draw(st.permutations(text.splitlines()))) + "\n"
    assert machine_outputs(order_path, permuted, calls) == machine_outputs(order_path, text,
                                                                           calls)


JUNK = ["--temp", "--form", "--full", "--eta=-1e-3", "--state=4s1/2", "--", "-", "-x", "", "x",
        "bbr", "-h", "--help", "-1e-3", "--temperature", "--upper", "--full-precision", "json",
        "vector", "-a.dat", "-inf", "--f", "--he", "--full-precision=1"]
TOP_JUNK = ["--x", "-x", "-5", "--he", "x", "--", "-a b"]
OWN_VALUES = {**FLAG_VALUES, "--dataset": ["a.dat", ""], "--multipole": ["scalar", "tensor"],
              "--format": ["table", "machine"]}
SPELLINGS = ["+5", "3_00", "\u0663\u0660\u0660", "-.5", "1.", "-inf", "1E3", " 5", "-4s1/2",
             "-1e400", "-nan", "-", "-a b"]


@st.composite
def grammar_argvs(draw):
    """Mostly a subcommand with its flags in any order: its own flags nearly always and
    the common ones half the time, now and then twice, with values mostly from the flag's
    own pool; now and then junk as the subcommand, a value or an extra token anywhere,
    or before the subcommand."""
    command = draw(st.sampled_from([*sorted(COMMAND_FLAGS)] * 4 + ["bb", "--help", ""]))
    common = ("--dataset", "--format", "--full-precision")
    flags = [(flag, [0] + [1] * 10 + [2]) for flag in COMMAND_FLAGS.get(command, [])]
    flags += [(flag, [0] * 5 + [1] * 5 + [2]) for flag in common]
    pairs = []
    for flag, counts in flags:
        for _ in range(draw(st.sampled_from(counts))):
            value = draw(st.sampled_from(OWN_VALUES[flag] * 8 + SPELLINGS + JUNK))
            pairs.append([flag] if flag == "--full-precision" else [flag, value])
    argv = [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(0, draw(st.sampled_from(TOP_JUNK)))
    return argv


def argparse_oracle():
    """The argparse parser that the CLI read argv with before `read_args`, built from the
    same table: its error hook raises UsageError, and a number, negative or not, reads
    as a value, by the dataset grammar."""

    class _ArgumentParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(NUMBER_PATTERN)

        def error(self, message: str) -> None:
            raise polkit.cli.UsageError(message)

    def _finite_float(text: str) -> float:
        try:
            return parse_number(text, "number")
        except polkit.DatasetError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = _ArgumentParser(prog="polkit", description=polkit.cli._DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in polkit.cli._COMMANDS.items():
        p = subparsers.add_parser(command, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **(dict(kw, type=_finite_float) if "type" in kw else kw))
        p.set_defaults(func=func)
    return parser


ORACLE = argparse_oracle()


def oracle_args(argv):
    """argparse's namespace of `argv`, as `read_args` returns one; help exits."""
    return ORACLE.parse_args(argv, SimpleNamespace())


def answer(reader, argv):
    """What `reader` makes of `argv`: vars() of its namespace, "help" or "refused"."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = reader(argv)
        except polkit.cli.UsageError:
            return "refused"
        except SystemExit:  # argparse's help action, after printing
            return "help"
    return "help" if isinstance(args, str) else vars(args)


def main_with(reader, argv):
    """Exit code and stdout of `main(argv)` when `reader` reads the argv."""
    stdout = io.StringIO()
    with mock.patch.object(polkit.cli, "read_args", reader), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help action, after printing
            code = exc.code
    return code, stdout.getvalue()


def version_dependent(argv):
    """Whether argparse's answer to `argv` depends on the Python release: a `--` before
    the subcommand, or a help flag and an ambiguous prefix.  Up to 3.13.0, argparse takes
    `--` for the subcommand and refuses an ambiguous prefix before reading any token;
    later releases take the token after `--`, and refuse the prefix only on reaching it."""
    first = next((i for i, token in enumerate(argv) if token in COMMAND_FLAGS), len(argv))
    helps = any(token == "-h" or token.startswith("--h") for token in argv)
    return "--" in argv[:first] or helps and "--f" in argv  # the ambiguous prefix drawn


class TestReadArgs:
    """`read_args` reads every argv as the argparse parser of the same table did, and its
    refusals print argparse's messages as they read on Python 3.10 to 3.13.0."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=grammar_argvs())
    def test_main_answers_as_argparse_did(self, argv):
        if version_dependent(argv):
            return  # pinned in test_version_dependent_argv_is_pinned
        expected = answer(oracle_args, argv)
        assert answer(polkit.cli.read_args, argv) == expected
        (code, out), oracle = main_with(polkit.cli.read_args, argv), main_with(oracle_args, argv)
        assert code == oracle[0]
        assert out == oracle[1] or expected == "help"  # only the help text may differ

    @pytest.mark.parametrize(
        "argv", [*README_COMMANDS, *(case["argv"] for case in GOLDEN_CLI if case["exit"] == 0),
                 ["bbr", "--temp", "310"], ["bbr", "--temp=310"], ["bbr", "--full"],
                 ["bbr", "--eta", "0", "--eta", "1"], ["bbr", "--eta", "-1e-3"],
                 ["bbr", "--ground", "-5"], ["bbr", "--ground=-x"], ["bbr", "--dataset", "-"],
                 ["bbr", "--ground", "-a b"], ["bbr", "--full-precision"]]
    )
    def test_accepted_argv_reads_as_argparse_read_it(self, argv):
        def typed(values):
            return {name: (type(value), value) for name, value in values.items()}

        assert typed(answer(polkit.cli.read_args, argv)) == typed(vars(oracle_args(argv)))

    @pytest.mark.parametrize(
        "argv,message",
        [(["bb"], "argument command: invalid choice: 'bb' "
                  "(choose from 'polarizability', 'bbr', 'lifetime', 'extract')"),
         ([], "the following arguments are required: command"),
         (["bbr", "--format", "json"],
          "argument --format: invalid choice: 'json' (choose from 'table', 'machine')"),
         (["polarizability", "--state", "4s1/2", "--multipole", "vector"],
          "argument --multipole: invalid choice: 'vector' (choose from 'scalar', 'tensor')"),
         (["bbr", "--f", "x"], "ambiguous option: --f could match --format, --full-precision"),
         (["bbr", "--ground", "-4s1/2"], "argument --ground: expected one argument"),
         (["bbr", "--full-precision=1"],
          "argument --full-precision: ignored explicit argument '1'"),
         (["bbr", "x"], "unrecognized arguments: x"),
         (["polarizability"], "the following arguments are required: --state"),
         (["--"], "the following arguments are required: command"),
         (["bbr", "--ground"], "argument --ground: expected one argument"),
         (["bbr", "--ground", "--"], "argument --ground: expected one argument"),
         (["bbr", "--full-precision="], "argument --full-precision: ignored explicit argument ''"),
         (["bbr", "--he=x"], "argument -h/--help: ignored explicit argument 'x'"),
         (["bbr", "--", "x"], "unrecognized arguments: -- x")],
    )
    def test_refusal_prints_argparse_message(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"polkit: error: {message}\n")

    @pytest.mark.parametrize(
        "argv,code,message",
        [(["--", "bbr"], 1, "argument command: invalid choice: '--' "
                            "(choose from 'polarizability', 'bbr', 'lifetime', 'extract')"),
         (["bbr", "--help", "--f"], 0, ""),
         (["bbr", "--format", "json", "--f"], 1,
          "argument --format: invalid choice: 'json' (choose from 'table', 'machine')"),
         (["bbr", "-hx"], 1, "argument -h/--help: ignored explicit argument 'x'"),
         (["bbr", "-hh"], 0, ""),
         (["polarizability", "--state=--"], 1, "bad level label '--' (expected e.g. '4p3/2')")],
    )
    def test_version_dependent_argv_is_pinned(self, capsys, argv, code, message):
        """Where argparse's answer moved between Python releases, the reader keeps one:
        `--` before the subcommand is the subcommand, as up to 3.13.0; an ambiguous prefix
        is refused when it is reached, as in later releases, so help or an earlier refusal
        comes first; -hX and -hh read as up to 3.12; `--opt=--` gives the value `--`."""
        result = run_cli(capsys, *argv)
        assert (result[0], result[2]) == (code, f"polkit: error: {message}\n" if message else "")

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["--he"], ["--x", "--help"], ["bbr", "--help"],
                 ["bbr", "--hel"], ["bbr", "x", "--help"], ["extract", "--help"],
                 ["polarizability", "--state", "4s1/2", "-h", "--format", "json"]]
    )
    def test_help_answers_when_reached(self, capsys, argv):
        command = next((token for token in argv if token in COMMAND_FLAGS), None)
        expected = polkit.cli._help_text(command)
        assert run_cli(capsys, *argv) == (0, expected, "")
        assert expected.startswith(f"usage: polkit {command or ''}")

    def test_help_does_not_depend_on_the_terminal_width(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(polkit.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        outputs = [
            subprocess.run([sys.executable, "-m", "polkit.cli", "bbr", "--help"],
                           capture_output=True, env=dict(env, COLUMNS=columns), check=True).stdout
            for columns in ("40", "200")
        ]
        assert outputs[0] == outputs[1] == polkit.cli._help_text("bbr").encode()


class TestGoldenSnapshot:
    """The README commands (table, machine, full precision) and four error paths
    give the recorded stdout, stderr and exit code byte for byte."""

    @pytest.mark.parametrize("case", GOLDEN_CLI, ids=lambda case: " ".join(case["argv"]))
    def test_replay(self, capsys, case):
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])
