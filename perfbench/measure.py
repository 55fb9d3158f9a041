"""Child processes measured through os.wait4, speed calibration, and the
summary statistics.

Each operation runs in its own child process and is reaped with
`os.wait4`, which returns the child's own resource usage: user+sys CPU
seconds and peak resident set size (`ru_maxrss`, KiB on Linux).  Wall time
is taken around spawn and reap, so it includes interpreter start-up, as a
user of the command line would see it.

On a shared machine the speed of a CPU drifts by tens of percent over tens
of seconds, and CPU seconds drift with it.  `SpeedScale` therefore times a
fixed pure-Python loop on the same CPU between operations and rescales each
operation's seconds to the speed at which that loop takes
CAL_REFERENCE_S.  The caller pins itself, and so its children, to one CPU.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass


CAL_ITERATIONS = 200_000
CAL_REFERENCE_S = 0.015
OP_TIMEOUT_S = 150


def _spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now (the fastest of three)."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        _spin(CAL_ITERATIONS)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class SpeedScale:
    """Factor from measured seconds to reference-speed seconds for the
    operation that just ended: the loop is timed before and after it."""

    def __init__(self):
        self._last = calibrate()

    def factor(self) -> float:
        now = calibrate()
        f = CAL_REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return f


def pin_to_one_cpu():
    """Restrict this process (and the children it starts) to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class ProcResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str


def run_child(argv, log_path: str) -> ProcResult:
    """Run argv to completion; stdout and stderr go to log_path.

    The child is killed if it outlives OP_TIMEOUT_S; it is always reaped
    before this returns.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)

        def _kill(signum, frame):
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, _kill)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", errors="replace") as fh:
        output = fh.read()
    return ProcResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        output=output,
    )


def tail_percentile(values):
    """(p, value) for the highest nearest-rank percentile that leaves at
    least ten samples above it, or None when there are fewer than 11."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return None
    return (100.0 * rank / n, sorted(values)[rank - 1])


def summary(values) -> dict:
    """Median, sample count and tail percentile of one metric's samples."""
    out = {"median": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_pct"], out["tail"] = math.floor(tail[0]), tail[1]
    return out
