"""Calibration kernel: a fixed amount of the kind of work tracemet does.

On a small shared VM the CPU speed drifts by tens of percent between runs
(and within one), so the benchmark times each query against this kernel run
next to it and reports seconds at the kernel's nominal speed.  Stdlib only
and never importing tracemet, so a change to the program cannot change the
yardstick.  It allocates dicts, tuples and Fractions and sorts, like the
trace-distribution and transport code.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# Short enough (a few ms) to run inside a long query without disturbing it
# much; a calibration point between queries takes the median of several.
ITERATIONS = 1000

# Median over benchmark runs on the reference machine (2-vCPU Firecracker
# VM, Python 3.11) of each run's median kernel time, which steadiness.py
# prints: a calibrated second is a second at that speed.
NOMINAL_S = 0.0049


def work() -> int:
    acc: dict = {}
    zero = Fraction(0)
    for i in range(ITERATIONS):
        key = (i % 29, ("a", "b", "c")[i % 3], i % 7)
        acc[key] = acc.get(key, zero) + Fraction(1 + i % 5, 2 + i % 11)
    return len(sorted(acc.items()))


def timed() -> float:
    """Wall seconds of one kernel run, with the collector off during it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
