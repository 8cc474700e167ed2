import json

import pytest

from polkit import Report, format_value_unc
from polkit.cli import main


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
        ],
    )
    def test_value_unc_rendering(self, value, unc, expected):
        assert format_value_unc(value, unc) == expected


class TestReportModel:
    def test_json_roundtrip(self):
        report = Report(
            kind="bbr",
            inputs={"dataset": "x.dat", "temperature": 300.0},
            rows=({"state": "4s1/2", "alpha0": {"value": 76.06, "unc": 1.1, "unit": "a0^3"}},),
            totals={"clock": {"value": 0.3796, "unc": 0.0132, "unit": "Hz"}},
        )
        assert Report.from_json(report.to_json()) == report

    def test_json_is_sorted_and_stable(self):
        report = Report(kind="x", inputs={"b": 1, "a": 2}, rows=(), totals={})
        assert report.to_json() == report.to_json()
        payload = json.loads(report.to_json())
        assert list(payload) == sorted(payload)


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
        assert "not a finite number" in err
        assert out == ""

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
