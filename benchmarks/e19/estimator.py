"""Estimators shared by every E19 workload.

Raw wall time on a small shared guest drifts with the host by more
than the bounds this benchmark gates on, so every timing is taken in
*rounds*: a fixed number of operations bracketed by a pure-Python
calibration kernel.  A round's timings are scaled by
``REF_CAL_MS / kernel_ms(round)`` — the kernel slows down and speeds
up with the interpreter exactly like the code under test — and the
reported metric is the **median over rounds**.  The minimum over rounds
repeats worse: it rewards the one round the host left alone, and how
alone that round was differs from run to run.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import perf_counter

#: What the calibration kernel costs on the reference machine; a round
#: measured while the kernel took twice as long has its timings halved.
REF_CAL_MS = 10.0
_KERNEL_STEPS = 72_000
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _kernel() -> int:
    """~10 ms of the interpreter work the library is made of: dict and
    list access, small allocations, integer arithmetic.  (A kernel
    that allocates nothing was tried and tracked the workloads worse:
    their time goes to the allocator and the caches, not to bytecode
    dispatch.)"""
    table: dict[int, list[int]] = {}
    total = 0
    get = table.get
    for i in range(_KERNEL_STEPS):
        key = (i * 7919) & 1023
        bucket = get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)
            total += len(bucket) ^ key
    return total


def kernel_ms(slices: int = 3) -> float:
    """The kernel's cost right now: the fastest of *slices* runs (a
    preempted slice only ever reads high)."""
    best = float("inf")
    for _ in range(slices):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best * 1e3


median = statistics.median


def percentile(values, p: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(len(ranked) * p))]


class Series:
    """Single-shot timings of one phase (fresh builds, reopens),
    calibrated together: the kernel runs before and after each shot,
    and the phase is scaled by the median of all its readings."""

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self._readings: list[float] = []

    def time(self, action) -> None:
        self._readings.append(kernel_ms())
        start = perf_counter()
        action()
        self.raw_s.append(perf_counter() - start)
        self._readings.append(kernel_ms())

    def medians(self) -> tuple[float, float]:
        """``(raw, calibrated)`` median seconds of the phase's shots."""
        raw = median(self.raw_s)
        return raw, raw * REF_CAL_MS / median(self._readings)


class Round:
    """One timed round: raw latencies plus the calibration around it."""

    __slots__ = ("query_s", "update_s", "wall_s", "cal_ms")

    def __init__(self, query_s, update_s, wall_s, cal_ms) -> None:
        self.query_s = query_s
        self.update_s = update_s
        self.wall_s = wall_s
        self.cal_ms = cal_ms

    @property
    def scale(self) -> float:
        return REF_CAL_MS / self.cal_ms


def run_rounds(rounds, execute):
    """Run every round of ops through *execute* (one closed-loop caller).

    *execute(op)* performs one operation to completion (and keeps its
    own count of failures).  Returns the :class:`Round` records.  One
    kernel reading sits between consecutive rounds, the "after" of one
    and the "before" of the next; a round is calibrated by the mean of
    its two.  (Smoothing over the readings of neighbouring rounds was
    tried and repeated no better.)
    """
    records: list[Round] = []
    before = kernel_ms()
    for ops in rounds:
        query_s: list[float] = []
        update_s: list[float] = []
        start = perf_counter()
        for op in ops:
            t0 = perf_counter()
            execute(op)
            spent = perf_counter() - t0
            (update_s if op.is_update else query_s).append(spent)
        wall = perf_counter() - start
        after = kernel_ms()
        records.append(Round(query_s, update_s, wall, (before + after) / 2))
        before = after
    return records


def summarize(records: list[Round]) -> dict:
    """Calibrated medians-over-rounds, with the raw values beside them."""
    scaled_query = [median(r.query_s) * r.scale for r in records]
    raw_query = [median(r.query_s) for r in records]
    if all(len(r.update_s) >= 25 for r in records):
        scaled_update = [median(r.update_s) * r.scale for r in records]
        update_ms = median(scaled_update) * 1e3
    else:
        # Too few updates per round for a per-round median: pool every
        # calibrated sample of the window instead.
        pooled = [s * r.scale for r in records for s in r.update_s]
        update_ms = median(pooled) * 1e3
    ops = [len(r.query_s) + len(r.update_s) for r in records]
    all_query = [s * r.scale for r in records for s in r.query_s]
    all_update = [s * r.scale for r in records for s in r.update_s]
    cal = [r.cal_ms for r in records]
    return {
        "query_p50_ms": median(scaled_query) * 1e3,
        "update.p50_ms": update_ms,
        "ops_per_s": median(
            n / (r.wall_s * r.scale) for n, r in zip(ops, records)
        ),
        "raw.query_p50_ms": median(raw_query) * 1e3,
        "raw.update_p50_ms": median(
            s for r in records for s in r.update_s
        ) * 1e3,
        "raw.ops_per_s": median(n / r.wall_s for n, r in zip(ops, records)),
        "tail.query_p99_ms": percentile(all_query, 0.99) * 1e3,
        "tail.update_p99_ms": percentile(all_update, 0.99) * 1e3,
        "calib.kernel_ms": median(cal),
        "calib.drift_ratio": max(cal) / min(cal),
        "samples.query": len(all_query),
        "samples.update": len(all_update),
    }


def tree_bytes(path: Path) -> int:
    """Apparent size of every regular file under *path* (exact, unlike
    block counts)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.lstat(os.path.join(root, name)).st_size for name in files)
    return total


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """VmHWM of this process plus that of every live worker, in MiB."""
    total = _status_kb(os.getpid(), "VmHWM:")
    total += sum(_status_kb(pid, "VmHWM:") for pid in worker_pids)
    return total / 1024.0


def cpu_seconds(worker_pids=()) -> float:
    """User+system CPU of this process and its live workers."""
    times = os.times()
    total = times.user + times.system
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        except OSError:
            pass  # the worker has just exited
    return total
