"""Host-speed calibration and CPU pinning.

The shared hosts this benchmark runs on change speed by up to 2x over
seconds as other tenants come and go, which no amount of repetition within
a run averages out. A fixed loop is timed in the same process and on the
same CPU as the work, next to it in time; the work's times are multiplied
by ``CAL_REFERENCE_S`` over the loop's time. The loop allocates only bytes
and integers, which the garbage collector does not track, so the program's
heap does not affect it. Each process is pinned to one CPU so that the loop
and the work share it.
"""

from __future__ import annotations

import os
import time

CAL_REFERENCE_S = 0.010
_CAL_BYTES = bytes(range(256)) * 4


def calibration_s() -> float:
    """Time of a fixed loop of the interpreter work svlite does most:
    slicing bytes and converting integers to and from them."""
    start = time.perf_counter()
    data = _CAL_BYTES
    total = 0
    for i in range(20_000):
        j = i & 511
        chunk = data[j:j + 64]
        word = int.from_bytes(chunk[:4], "big")
        total += len(word.to_bytes(4, "big") + chunk[4:8]) + word % 7
    return time.perf_counter() - start


def factor(loop_s: float) -> float:
    """Scale factor to the reference speed, given the loop's time."""
    return CAL_REFERENCE_S / loop_s


class HostSpeed:
    """Calibration loop timings around consecutive units of work."""

    def __init__(self):
        self.loops = [calibration_s()]
        self.factors = []

    def after_unit(self) -> None:
        """Add the factor of the unit just finished, from the mean of the
        loop times on either side of it."""
        self.loops.append(calibration_s())
        self.factors.append(factor((self.loops[-2] + self.loops[-1]) / 2))


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(cpu: int | None) -> None:
    """Pin this process (and the children it starts later) to ``cpu``."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
