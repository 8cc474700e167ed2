"""Timing on a shared host: exact process timing and host-speed normalisation.

The host runs other tenants, and its speed drifts by up to about 2x for
seconds to minutes at a time.  Raw times then differ more between runs of
the same code than any useful regression bound.  So every run interleaves a
fixed calibration loop, which uses no program code, between operations, at
most every ``CAL_PERIOD_S``.  Each operation's time is scaled by
``CAL_REF_S`` over the median time of the ``CAL_NEIGHBOURS`` calibrations
nearest to it.  Reported times are therefore milliseconds at a reference
host speed, the speed at which one calibration takes ``CAL_REF_S``: a
program change moves them, a change of host speed mostly does not.  The
raw figures are kept beside them in the result file.

The loop runs in a small helper process that shares the measuring
process's CPU and waits while the operations run, so its time reflects the
host and not the measured program's heap or caches.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

CAL_PERIOD_S = 0.02
CAL_REF_S = 100e-6
CAL_NEIGHBOURS = 5


def calibrate() -> None:
    """Fixed interpreter work, close in kind to the program's: objects, strings, a sort."""
    items = [(i, str(i), {"k": i}) for i in range(300)]
    items.sort(key=lambda item: item[1])


def pin_to_one_cpu() -> None:
    """Keep this process, its helper and its children on one CPU of those allowed.

    Where the platform refuses, they stay unpinned.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Calibration:
    """Calibration times taken between operations, and the scale factors they give."""

    def __init__(self) -> None:
        self.times = array("d")
        self._due = 0.0
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=10)
        self._helper.stdout.close()

    def sample(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.times.append(float(self._helper.stdout.readline()))

    def between_ops(self) -> int:
        """Calibrate if one is due; return the index of the latest calibration."""
        now = perf_counter()
        if now >= self._due:
            self.sample()
            self._due = now + CAL_PERIOD_S
        return len(self.times) - 1

    def factors(self) -> list[float]:
        """Per calibration: CAL_REF_S over the median of its neighbourhood."""
        n, half = len(self.times), CAL_NEIGHBOURS // 2
        out = []
        for i in range(n):
            lo = min(max(0, i - half), max(0, n - CAL_NEIGHBOURS))
            out.append(CAL_REF_S / statistics.median(self.times[lo:lo + CAL_NEIGHBOURS]))
        return out

    def median_s(self) -> float:
        return statistics.median(self.times)


def _serve() -> None:
    """Helper process: time one calibration per request line until stdin closes.

    An untimed first pass refills the caches the measured process evicted.
    """
    for _ in sys.stdin:
        calibrate()
        start = perf_counter()
        calibrate()
        print(repr(perf_counter() - start), flush=True)


def child_env(root) -> dict:
    """Environment of every measured child: sources on the path, bytecode cache on."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("POLKIT_DATASET", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict, cwd, timeout_s: int = 60) -> tuple[float, int, str]:
    """Spawn ``argv`` and wait for it: (seconds, exit code, stdout).

    The child is reaped with a blocking ``wait4``, so the time has no polling
    granularity; a child still running after ``timeout_s`` is killed.
    """
    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout_s)
    try:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, _ = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out


if __name__ == "__main__":
    _serve()
