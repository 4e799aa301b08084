"""Calibration of wall times against the host's current speed.

On a shared host the same code can run up to about 1.5x slower for stretches
that last from under a second to over a minute, so raw wall times of whole
runs spread by more than the changes worth detecting.  A fixed pure-Python
loop, timed right before and right after each measured call, slows down with
the host.  A call's calibrated time is its wall time scaled by ``REF_S`` over
the loop's time beside it: the time the call would take on a host where the
loop takes ``REF_S``.  The loop is the benchmark's own code, so a change to
the program moves calibrated times as it moves wall times.
"""

from __future__ import annotations

import time

REF_S = 0.004  # about the loop's median time on the 2-vCPU host of README.md


def reference_s() -> float:
    """Fastest of three runs of a fixed dict-and-integer loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20000):
            key = i & 1023
            counts[key] = counts.get(key, 0) + i * i
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the host speed where the loop takes ``REF_S``."""
    return wall_s * REF_S * 2 / (before_s + after_s)
