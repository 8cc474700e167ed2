"""Run one workload in this process for a fixed time and print its result as JSON.

    PYTHONPATH=src python perfbench/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1 --out DIR

Every workload is a closed loop: one thread sends the next operation only
after the previous one has returned.  Only the program call is timed; the
benchmark checks each result between operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

_T0 = perf_counter()

import calls  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import timing  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = calls.ROOT
ORACLE_SHARE = 1 / 300  # share of 6j results re-checked against the exact oracle
REFERENCE_SHARE = 0.05  # share of Monte-Carlo draws re-checked against the reference model


class Outcome:
    """Latencies and failures of one run."""

    def __init__(self) -> None:
        self.latency = array("f")
        self.calibration: timing.Calibration | None = None
        self.cal_index = array("i")  # latest calibration before each operation
        self.failures: Counter = Counter()
        self.examples: list[str] = []

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail}"[:500])


def cache_stats(fn) -> tuple[int, int] | None:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses


def cache_delta(before, after) -> list[int] | None:
    """[hits, misses] of the 6j cache over a run; None when the kernel has no cache."""
    if before is None or after is None:
        return None
    return [after[0] - before[0], after[1] - before[1]]


# ---- CLI workloads ----------------------------------------------------------


def reference_model() -> checks.Reference:
    """The reference model of the packaged dataset, which must match the published values."""
    ref = checks.Reference(calls.PACKAGED_DATASET.read_text(encoding="utf-8"))
    errors = ref.fixed_point_errors()
    if errors:
        raise SystemExit(f"reference model misses the published values: {errors}")
    return ref


class CliChecker:
    def __init__(self, ref: checks.Reference, report_cls) -> None:
        self.ref = ref
        self.report_cls = report_cls
        self._expected: dict = {}

    def expected(self, kind: str, params: tuple) -> checks.Expect:
        key = (kind, params)
        if key not in self._expected:
            model = {"polarizability": self.ref.polarizability, "bbr": self.ref.clock,
                     "lifetime": self.ref.lifetime, "extract": self.ref.extract}[kind]
            self._expected[key] = checks.Expect(*model(*params))
        return self._expected[key]

    def check(self, outcome: Outcome, argv, expect, rc, out: str) -> None:
        if expect[0] == "exit":
            _, code, kind = expect
            if rc != code:
                outcome.fail(kind, f"{argv} exited {rc}, expected {code}")
            return
        _, kind, params = expect
        want = self.expected(kind, params)
        try:
            if rc != 0:
                ok = False
            elif argv[argv.index("--format") + 1] == "machine":
                ok = checks.machine_matches(out, want, self.report_cls)
            else:
                ok = checks.table_matches(out, want)
        except (ValueError, KeyError, TypeError) as exc:
            ok, out = False, f"{out}\n{exc!r}"
        if not ok:
            outcome.fail(f"wrong_{kind}", f"{argv} rc={rc} want {want.value} {sorted(want.uncs)}: {out}")


def cli_setup(seed: int, out_dir, report_cls, exit_code):
    """The checker, the seeded argv stream and the known-defect probes.

    Writes the dataset files the calls use, then runs each known-defect input
    once through ``exit_code(argv)``, untimed and outside the counts, and
    records whether the defect still stands.
    """
    ref = reference_model()
    text = calls.PACKAGED_DATASET.read_text(encoding="utf-8")
    files = inputs.write_dataset_files(text, seed, out_dir / f"datasets-seed{seed}")
    rel = {k: [os.path.relpath(p, ROOT) for p in v] for k, v in files.items()}
    defects = {}
    for kind, argv, code in inputs.defect_probes(rel):
        rc = exit_code(argv)
        defects[kind] = {"argv": argv, "expected_exit": code, "exit": rc, "open": rc != code}
    ops = inputs.cli_ops(seed, ref.coupled_states(), rel)
    return CliChecker(ref, report_cls), ops, {"known_defects": defects}


def run_cli_subprocess(args, tracer, out_dir):
    import polkit

    env = timing.child_env(ROOT)
    base = [sys.executable, "-m", "polkit.cli"]
    checker, ops, extra = cli_setup(args.seed, out_dir, polkit.Report,
                                    lambda argv: timing.run_process(base + argv, env, ROOT)[1])

    def do(op):
        return timing.run_process(base + op[0], env, ROOT)[1:]

    def check(outcome, op, result):
        checker.check(outcome, op[0], op[1], *result)

    if tracer:
        tracer.patch(polkit.Report, "from_json", "report.from_json")
        tracer.patch(polkit.Report, "to_json", "report.to_json")
        do = tracer.wrap("op", do)
    return measure(args, tracer, ops, do, check), "children", {"sixj_cache": None, **extra}


def run_cli_inprocess(args, tracer, out_dir):
    import polkit
    import polkit.cli

    main = polkit.cli.main
    checker, ops, extra = cli_setup(args.seed, out_dir, polkit.Report,
                                    lambda argv: calls.cli_main(main, argv)[0])
    if tracer:
        install_cli_patches(tracer)
        main = tracer.wrap("cli.main", main, name_of=lambda a, k: "cli.main." + (a[0][:1] or ["none"])[0])
    kernel = getattr(getattr(polkit, "angular", None), "_wigner6j_twice", None)
    before = cache_stats(kernel)

    def do(op):
        return calls.cli_main(main, op[0])

    def check(outcome, op, result):
        checker.check(outcome, op[0], op[1], result[0], result[1])

    outcome = measure(args, tracer, ops, do, check)
    return outcome, "self", {"sixj_cache": cache_delta(before, cache_stats(kernel)), **extra}


def install_cli_patches(tracer) -> None:
    """Trace the program's names as the CLI and the assembly code bind them."""
    import polkit.cli as cli
    import polkit.dataset as dataset
    import polkit.report as report

    for attr, name in (
        ("build_parser", "cli.build_parser"),
        ("_load_dataset", "dataset.load"),
        ("parse_dataset", "dataset.parse"),
        ("clock_bbr_shift", "bbr.clock_shift"),
        ("bbr_shift_state", "bbr.state_shift"),
        ("einstein_A", "radiative.einstein_A"),
        ("lifetime", "radiative.lifetime"),
        ("extract_matrix_element", "radiative.extract"),
        ("render_table", "report.render_table"),
    ):
        tracer.patch(cli, attr, name)
    tracer.patch(cli, "assemble_breakdown", "polarizability.assemble", _assemble_name,
                 _row_counter(tracer))
    tracer.patch(dataset, "validate", "dataset.validate")
    tracer.patch(report.Report, "to_json", "report.to_json")
    tracer.patch(report.Report, "from_json", "report.from_json")
    install_library_patches(tracer)


def install_library_patches(tracer) -> None:
    import polkit.polarizability as pol

    tracer.patch(pol, "wigner6j", "angular.sixj")
    tracer.patch(pol, "tensor_prefactor_C", "angular.tensor_prefactor")


def _row_counter(tracer):
    def count(breakdown) -> None:
        tracer.counts["polarizability.rows"] += len(breakdown.main)
    return count


def _assemble_name(args, kwargs) -> str:
    multipole = args[2] if len(args) > 2 else kwargs.get("multipole")
    return f"polarizability.assemble.{multipole}"


# ---- Monte-Carlo library session -------------------------------------------


def run_physics_montecarlo(args, tracer, out_dir):
    import polkit

    spec = calls.dataset_spec(calls.PACKAGED_DATASET.read_text(encoding="utf-8"))
    ref = reference_model()
    e1_index = {(lo, up): i for i, (lo, up, _, _) in enumerate(spec["e1"])}
    api = polkit
    build = calls.build_dataset
    if tracer:
        install_library_patches(tracer)
        api = types.SimpleNamespace(
            assemble_breakdown=tracer.wrap("polarizability.assemble", polkit.assemble_breakdown,
                                           _assemble_name, _row_counter(tracer)),
            clock_bbr_shift=tracer.wrap("bbr.clock_shift", polkit.clock_bbr_shift),
            einstein_A=tracer.wrap("radiative.einstein_A", polkit.einstein_A),
            lifetime=tracer.wrap("radiative.lifetime", polkit.lifetime),
            extract_matrix_element=tracer.wrap("radiative.extract", polkit.extract_matrix_element),
        )
        build = tracer.wrap("dataset.construct", build)
    pick = random.Random(f"mc-check-{args.seed}")
    kernel = getattr(getattr(polkit, "angular", None), "_wigner6j_twice", None)
    before = cache_stats(kernel)

    def do(op):
        values, temperature, taus = op[1]
        ds, labels = build(polkit, spec, values)
        return calls.mc_draw(api, polkit, ds, labels, temperature, taus)

    def check(outcome, op, out):
        k, draw = op
        errors = mc_errors(polkit, draw, out, ref, e1_index,
                           k == 0 or pick.random() < REFERENCE_SHARE, k == 0)
        if errors:
            outcome.fail("wrong_draw", f"draw {k}: {errors}")

    outcome = measure(args, tracer, enumerate(inputs.mc_draws(args.seed, spec)), do, check)
    return outcome, "self", {"sixj_cache": cache_delta(before, cache_stats(kernel))}


MC_TOTALS = {("4s1/2", "scalar"): "ground", ("3d5/2", "scalar"): "excited",
             ("3d5/2", "tensor"): "tensor"}


def mc_errors(polkit, draw, out, ref, e1_index, against_reference, nominal) -> list[str]:
    values, temperature, taus = draw
    errors = []
    quantities = [out["ground"].total, out["excited"].total, out["tensor"].total, out["clock"]]
    for upper in calls.MC_UPPERS:
        part = out[upper]
        quantities += [part["lifetime"], part["d"]] + [ch.A for ch in part["channels"]]
    if not all(math.isfinite(q.value) and math.isfinite(q.unc) for q in quantities):
        errors.append("non-finite result")
    for upper in calls.MC_UPPERS:
        part = out[upper]
        tau = polkit.Quantity(part["lifetime"].value, 0.0, polkit.NANOSECOND)
        back = polkit.extract_matrix_element(tau, part["others"], part["delta_e"], part["j_upper"])
        own = values[e1_index[("4s1/2", upper)]]
        if not checks.close(back.value, own):
            errors.append(f"extract(lifetime) for {upper}: {back.value} != {own}")
    if against_reference:
        pairs = [
            (out["ground"].total, ref.polarizability("4s1/2", "scalar", values)),
            (out["excited"].total, ref.polarizability("3d5/2", "scalar", values)),
            (out["tensor"].total, ref.polarizability("3d5/2", "tensor", values)),
        ]
        for upper in calls.MC_UPPERS:
            pairs.append((out[upper]["lifetime"], ref.lifetime(upper, values)))
            pairs.append((out[upper]["d"], ref.extract(upper, "4s1/2", *taus[upper], values)))
        clock, uncs = ref.clock(temperature, 0.0, values)
        pairs.append((out["clock"], (clock, min(uncs, key=lambda u: abs(u - out["clock"].unc)))))
        for got, (value, unc) in pairs:
            if not (checks.close(got.value, value) and checks.close(got.unc, unc, 1e-6)):
                errors.append(f"{got} != reference {value}({unc})")
    if nominal:
        for (state, mult), printed in checks.FIXED_POLARIZABILITY.items():
            total = out[MC_TOTALS[(state, mult)]].total
            if (f"{total.value:.1f}", f"{total.unc:.1f}") != printed:
                errors.append(f"{state} {mult} total {total} != {printed}")
        value, tol, unc, unc_tol = checks.FIXED_CLOCK_300K
        if abs(out["clock"].value - value) > tol or abs(out["clock"].unc - unc) > unc_tol:
            errors.append(f"clock shift {out['clock']}")
        for upper in calls.MC_UPPERS:
            for ch in out[upper]["channels"]:
                published = checks.FIXED_A_MHZ[(str(ch.lower), upper)]
                if abs(ch.A.value - published) > 0.05:
                    errors.append(f"A {ch.lower}-{upper} {ch.A.value} != {published}")
            _, _, d_ref, unc_ref = checks.FIXED_EXTRACT[upper]
            d = out[upper]["d"]
            if abs(d.value - d_ref) > 0.001 or abs(d.unc - unc_ref) > 0.001:
                errors.append(f"extracted {upper} {d} != {d_ref}({unc_ref})")
    return errors


# ---- cold 6j sweep ----------------------------------------------------------


def run_sixj_sweep(args, tracer, out_dir):
    from polkit.angular import _wigner6j_twice as kernel

    cache = [0, 0] if hasattr(kernel, "cache_info") else None

    def clear():
        """Empty the 6j cache so that every call is cold, keeping its hit counts."""
        if cache is not None:
            info = kernel.cache_info()
            cache[0] += info.hits
            cache[1] += info.misses
            kernel.cache_clear()

    passes = inputs.sixj_passes(args.seed)
    first = next(passes)

    def tuples():
        sweep = first
        while True:
            clear()
            for p in sweep:
                yield inputs.unpack(p)
            sweep = next(passes)

    call = tracer.wrap("angular.sixj", kernel) if tracer else kernel
    pick = random.Random(f"sixj-check-{args.seed}")
    sample: list[tuple[tuple, float]] = []
    triad = checks.triad

    def do(t):
        return call(*t)

    def check(outcome, t, value):
        if not (triad(t[0], t[1], t[2]) and triad(t[0], t[4], t[5])
                and triad(t[3], t[1], t[5]) and triad(t[3], t[4], t[2])):
            if value != 0.0:
                outcome.fail("broken_triangle_nonzero", f"{t} -> {value!r}")
        elif not (math.isfinite(value) and abs(value) <= 1.0):
            outcome.fail("sixj_out_of_range", f"{t} -> {value!r}")
        elif pick.random() < ORACLE_SHARE:
            sample.append((t, value))

    outcome, setup_s, wall = measure(args, tracer, tuples(), do, check)
    clear()
    for t, value in sample:
        if not checks.sixj_agrees(value, checks.sixj_oracle(*t)):
            outcome.fail("sixj_oracle_mismatch", f"{t} -> {value!r} vs {checks.sixj_oracle(*t)!r}")
    return (outcome, setup_s, wall), "self", {"sixj_cache": cache, "oracle_checked": len(sample)}


# ---- shared measurement -----------------------------------------------------


def measure(args, tracer, ops, do, check) -> tuple:
    """Closed loop until the time is up; only ``do`` is timed."""
    outcome = Outcome()
    latency, cal_index = outcome.latency, outcome.cal_index
    with timing.Calibration() as calibration:
        outcome.calibration = calibration
        setup_s = perf_counter() - _T0
        start = perf_counter()
        deadline = start + args.seconds
        n = 0
        for op in ops:
            cal_index.append(calibration.between_ops())
            if tracer:
                tracer.op_id = n
            t0 = perf_counter()
            try:
                result = do(op)
            except Exception as exc:  # a crash counts as a failed operation
                result = exc
            t1 = perf_counter()
            if tracer:
                tracer.op_id = -1
            latency.append(t1 - t0)
            n += 1
            if isinstance(result, Exception):
                outcome.fail("exception", f"{op!r}: {result!r}")
            else:
                check(outcome, op, result)
            if perf_counter() >= deadline:
                break
        wall = perf_counter() - start
    return outcome, setup_s, wall


def peak_rss_mb(who: str) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def _summary(latency) -> dict:
    """Percentiles over the whole run and throughput, from per-operation seconds."""
    n = len(latency)
    cuts = statistics.quantiles(latency, n=100, method="inclusive") if n > 1 else list(latency) * 99
    return {"p50_ms": cuts[49] * 1e3, "p90_ms": cuts[89] * 1e3, "p99_ms": cuts[98] * 1e3,
            "ops_per_s": n / sum(latency)}


def finish(outcome: Outcome, setup_s: float, wall: float, rss: float, tracer, extra: dict) -> dict:
    """The worker's result: figures scaled to the reference host speed, raw ones under "raw"."""
    n = len(outcome.latency)
    factors = outcome.calibration.factors()
    scaled = _summary([x * factors[i] for x, i in zip(outcome.latency, outcome.cal_index)])
    raw = _summary(outcome.latency)
    result = {
        "attempted": n,
        "failed": sum(outcome.failures.values()),
        "failures": dict(outcome.failures),
        "failure_examples": outcome.examples,
        **scaled,
        "samples": n,
        "beyond_p99": n // 100,
        "raw": raw,
        "calibrations": len(factors),
        "calibration_median_s": outcome.calibration.median_s(),
        "peak_rss_mb": rss,
        "worker_setup_s": setup_s,
        "wall_s": wall,
        "busy_s": sum(outcome.latency),
        **extra,
    }
    if tracer:
        result["trace"] = tracer.summary(n)
        result["absent"] = tracer.absent
    return result


WORKLOADS = {
    "cli_subprocess": run_cli_subprocess,
    "cli_inprocess": run_cli_inprocess,
    "physics_montecarlo": run_physics_montecarlo,
    "sixj_sweep": run_sixj_sweep,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.chdir(ROOT)
    os.environ.pop("POLKIT_DATASET", None)
    timing.pin_to_one_cpu()
    out_dir = Path(args.out)
    tracer = Tracer() if args.trace else None
    (outcome, setup_s, wall), who, extra = WORKLOADS[args.workload](args, tracer, out_dir)
    result = finish(outcome, setup_s, wall, peak_rss_mb(who), tracer, extra)
    if tracer:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
