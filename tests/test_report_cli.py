import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polkit
from polkit import LevelLabel, Quantity, Report, format_value_unc
from polkit.cli import BUILTIN_DATASET, build_parser, builtin_dataset_text, main
from polkit.report import bbr_report, extract_report, lifetime_report, polarizability_report

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
        bbr_report(ds, BUILTIN_DATASET, lab("4s1/2"), lab("3d5/2"), 300.0, 0.0),
        bbr_report(ds, BUILTIN_DATASET, lab("4s1/2"), lab("3d5/2"), 600.0, 0.0),
        lifetime_report(ds, BUILTIN_DATASET, lab("4p1/2")),
        extract_report(ds, BUILTIN_DATASET, lab("4p1/2"), lab("4s1/2"), 7.098, 0.020),
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ],
    )
    def test_value_unc_rendering(self, value, unc, expected):
        assert format_value_unc(value, unc) == expected

    @pytest.mark.parametrize(
        "value,unc",
        [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_rejected(self, value, unc):
        with pytest.raises(ValueError, match="non-finite"):
            format_value_unc(value, unc)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_refuses_non_finite(self, value):
        report = Report(kind="x", inputs={}, rows=(), totals={"t": value})
        with pytest.raises(ValueError):
            report.to_json()


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

    def test_unknown_state_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "polarizability", "--state", "9g9/2")
        assert code == 2
        assert "unknown state" in err

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

    def test_zero_temperature_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bbr", "--temperature", "0")
        assert code == 1
        assert "temperature" in err

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

    def test_overflowing_eta_is_precondition_error_naming_eta(self, capsys):
        code, out, err = run_cli(capsys, "bbr", "--eta", "1e308")
        assert code == 3
        assert out == ""
        assert err == "polkit: error: eta 1e+308 is out of range: the (1 + eta) factor overflows\n"

    @pytest.mark.parametrize("temperature", ["3e79", "1e200"])
    def test_overflowing_temperature_is_precondition_error(self, capsys, temperature):
        code, out, err = run_cli(
            capsys, "bbr", "--temperature", temperature, "--format", "machine"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("polkit: error: ") and err.count("\n") == 1
        assert "temperature" in err

    def test_tiny_lifetime_does_not_underflow(self, capsys):
        argv = ["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "1e-300"]
        code, out, err = run_cli(capsys, *argv, "--format", "machine")
        assert code == 0 and err == ""
        d = json.loads(out)["totals"]["d_extracted"]
        assert math.isfinite(d["value"]) and math.isfinite(d["unc"])
        code, out, err = run_cli(capsys, *argv, "--tau-unc-ns", "1e-10")
        assert code == 3 and out == ""
        assert "non-finite uncertainty" in err

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

    def test_corrupt_dataset_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("level 4s1/2 zero\n")
        code, _, err = run_cli(capsys, "bbr", "--dataset", str(path))
        assert code == 2
        assert "line 1" in err

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


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    """Table output needs none of them; a fresh interpreter shows what `polkit.cli` loads."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(polkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys; before = set(sys.modules); import polkit.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert child.stdout.split() == []


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
                build_parser.cache_clear()
                builtin_dataset_text.cache_clear()
            results.append(run_cli(capsys, *step))
        return results

    def test_cached_parser_changes_no_output(self, tmp_path, capsys, golden_text):
        steps = self._steps(tmp_path, golden_text)
        warm = self._run(capsys, steps, fresh=False) + self._run(capsys, steps, fresh=False)
        fresh = self._run(capsys, steps, fresh=True) + self._run(capsys, steps, fresh=True)
        assert warm == fresh
        assert build_parser() is build_parser()

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


class TestGoldenSnapshot:
    """The README commands (table, machine, full precision) and four error paths
    give the recorded stdout, stderr and exit code byte for byte."""

    @pytest.mark.parametrize("case", GOLDEN_CLI, ids=lambda case: " ".join(case["argv"]))
    def test_replay(self, capsys, case):
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])
