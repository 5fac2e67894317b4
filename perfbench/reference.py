"""Timings in reference seconds, steady while the machine's speed drifts.

On a shared machine the speed of the same code drifts by up to a third
over minutes as other tenants come and go, and a median over one run
cannot average that out. So every timed operation is bracketed by a
fixed piece of pure-Python work, the reference kernel, and reported as

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

with the kernel time taken as the mean of the runs just before and just
after the operation. The kernel uses no synctrail code, so no change to
the program moves it. REFERENCE_S is the kernel's time on the 2-CPU
machine the benchmark was written on, so reference seconds stay close
to wall seconds there.

Each CPU of a shared machine sees its own contention: unpinned, the
kernel's time and the program's did not correlate at all (0.03), while
on one CPU they did (0.76). So `pin_to_one_cpu` puts the benchmark and
every child it starts on one CPU. A change that makes the program use
several CPUs therefore cannot show a wall-time gain here.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time

REFERENCE_S = 0.05


def kernel_seconds() -> float:
    """Wall time of the kernel: JSON encode and decode, sort, hash.

    The garbage collector is off while it runs, so the time does not
    depend on how many objects the caller holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [
            {"id": f"r{i:05d}", "n": i * 7919 % 10007, "text": "x" * (i % 64)} for i in range(9000)
        ]
        text = json.dumps(rows, indent=2)  # the pure-Python encoder, as the stage files use
        decoded = json.loads(text)
        decoded.sort(key=lambda row: (row["n"], row["id"]))
        hashlib.sha256(text.encode()).digest()
        return time.perf_counter() - start
    finally:
        gc.enable()


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU only."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Scale:
    """Factor from wall to reference seconds for consecutive operations."""

    def __init__(self) -> None:
        kernel_seconds()  # warm-up: the first run allocates memory the others reuse
        self.kernels = [kernel_seconds()]

    def after(self) -> float:
        """Run the kernel again; return the factor for the operation just ended."""
        self.kernels.append(kernel_seconds())
        return 2 * REFERENCE_S / (self.kernels[-2] + self.kernels[-1])
