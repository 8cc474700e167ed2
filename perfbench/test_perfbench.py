"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calls
import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TEXT = calls.PACKAGED_DATASET.read_text(encoding="utf-8")


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_cli_mix_is_deterministic(tmp_path):
    states = checks.Reference(TEXT).coupled_states()
    first = inputs.write_dataset_files(TEXT, 5, tmp_path / "a")
    again = inputs.write_dataset_files(TEXT, 5, tmp_path / "b")
    for role in first:
        for p, q in zip(first[role], again[role]):
            assert Path(p).read_text() == Path(q).read_text()
    files = {k: [Path(p).name for p in v] for k, v in first.items()}
    ops = _take(inputs.cli_ops(5, states, files), 500)
    assert ops == _take(inputs.cli_ops(5, states, files), 500)
    assert ops != _take(inputs.cli_ops(6, states, files), 500)
    kinds = {expect[2] for _, expect in ops if expect[0] == "exit"}
    assert kinds == set(inputs.INVALID_KINDS)
    assert not kinds & set(inputs.KNOWN_DEFECTS)
    probes = inputs.defect_probes(files)
    assert {kind for kind, _, _ in probes} == set(inputs.KNOWN_DEFECTS)


def test_dataset_variants_keep_the_physics(tmp_path):
    import polkit

    nominal = polkit.parse_dataset(TEXT)
    files = inputs.write_dataset_files(TEXT, 9, tmp_path)
    for path in files["good"]:
        variant = polkit.parse_dataset(Path(path).read_text())
        assert variant.to_text() != nominal.to_text()  # lines were reordered
        assert set(variant.levels) == set(nominal.levels)
        assert set(variant.elements) == set(nominal.elements)
        assert variant.core_alpha == nominal.core_alpha
        assert dict(variant.tails) == dict(nominal.tails)
    for role in ("dataset_syntax_error", "dataset_semantic_error"):
        with pytest.raises(polkit.DatasetError):
            polkit.parse_dataset(Path(files[role][0]).read_text())


def test_montecarlo_draws_are_deterministic():
    spec = calls.dataset_spec(TEXT)
    draws = _take(inputs.mc_draws(3, spec), 20)
    assert draws == _take(inputs.mc_draws(3, spec), 20)
    assert draws[0][0] == [d for _, _, d, _ in spec["e1"]]
    assert draws[0][1] == 300.0
    assert draws[1:] != _take(inputs.mc_draws(4, spec), 20)[1:]


def test_sixj_passes():
    valid = inputs.valid_sixj()
    assert len(valid) == inputs.VALID_COUNT == len(set(valid))
    sweep = next(inputs.sixj_passes(2))
    assert list(sweep[:2000]) == list(next(inputs.sixj_passes(2))[:2000])
    assert list(sweep[:2000]) != list(next(inputs.sixj_passes(3))[:2000])
    assert len(set(sweep)) == len(sweep)
    valid_set = set(valid)
    broken = [p for p in sweep if p not in valid_set]
    assert 0.07 < len(broken) / len(sweep) < 0.11
    for p in broken[:5000]:
        a, b, c, d, e, f = inputs.unpack(p)
        triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
        assert not all(checks.triad(*t) for t in triads)
        assert checks.sixj_oracle(a, b, c, d, e, f) == 0.0


def test_sixj_oracle_closed_form():
    # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
    for ta in range(16):
        for tb in range(16):
            for tc in range(abs(ta - tb), min(ta + tb, 15) + 1, 2):
                sign = -1.0 if ((ta + tb + tc) // 2) % 2 else 1.0
                want = sign / math.sqrt((tb + 1) * (tc + 1))
                assert checks.sixj_agrees(checks.sixj_oracle(ta, tb, tc, 0, tc, tb), want, 2)


def test_sixj_oracle_orthogonality():
    # sum_x (2x+1) {a b x; c d p}{a b x; c d q} = delta_pq / (2p+1)
    for a, b, c, d in ((2, 3, 3, 2), (4, 4, 4, 4), (5, 6, 7, 4), (1, 7, 6, 4)):
        ps = [p for p in range(16) if checks.triad(a, d, p) and checks.triad(c, b, p)]
        xs = [x for x in range(32) if checks.triad(a, b, x) and checks.triad(c, d, x)]
        for p in ps:
            for q in ps:
                acc = sum((x + 1) * checks.sixj_oracle(a, b, x, c, d, p)
                          * checks.sixj_oracle(a, b, x, c, d, q) for x in xs)
                assert abs(acc - (1.0 / (p + 1) if p == q else 0.0)) <= 1e-13


def test_reference_reproduces_the_published_values():
    assert checks.Reference(TEXT).fixed_point_errors() == []


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_output_checks_accept_right_and_reject_wrong_results(fmt):
    import polkit
    import polkit.cli

    ref = checks.Reference(TEXT)
    cases = [
        (["polarizability", "--state", "3d5/2", "--multipole", "tensor"],
         ref.polarizability("3d5/2", "tensor")),
        (["bbr", "--temperature", "412.5", "--eta", "0.01"], ref.clock(412.5, 0.01)),
        (["lifetime", "--state", "4p3/2"], ref.lifetime("4p3/2")),
        (["extract", "--upper", "4p1/2", "--lower", "4s1/2", "--tau-ns", "7.2",
          "--tau-unc-ns", "0.02"], ref.extract("4p1/2", "4s1/2", 7.2, 0.02)),
    ]
    for argv, (value, unc) in cases:
        for extra in ([], ["--full-precision"]):
            rc, out, _ = calls.cli_main(polkit.cli.main, argv + ["--format", fmt] + extra)
            assert rc == 0

            def matches(v, u):
                expect = checks.Expect(v, u)
                if fmt == "machine":
                    return checks.machine_matches(out, expect, polkit.Report)
                return checks.table_matches(out, expect)

            assert matches(value, unc), (argv, out)
            assert not matches(value * 1.01 + 0.01, unc), (argv, out)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    record = json.loads(
        (ROOT / "perfbench" / "out" / f"result-{workload}-seed7-trace{trace}.json").read_text())
    assert result["failed"] == 0 and record["failures"] == {}
    if workload.startswith("cli_"):
        assert set(record["known_defects"]) == set(inputs.KNOWN_DEFECTS)
        assert "known defect bbr_nan_temperature: exit" in proc.stdout
    for key in ("python", "platform", "nproc", "cpu_model", "git_commit", "dataset_sha256", "seed"):
        assert key in record["provenance"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("cli_inprocess", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
