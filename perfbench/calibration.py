"""Machine-speed calibration: a fixed kernel timed between the jobs.

The benchmark machine is shared.  Other tenants move it between a fast, a
middling and a slow state that last from about a second to minutes, and
the same job's time swings by up to 2x with them.  No statistic inside one
run helps when a whole run, or a whole set of runs, falls in a slow
stretch.  So every job execution is timed between two executions of a
fixed kernel, and its time is scaled by the kernel's reference time over
its mean time at those two points: the job's time at the speed the
kernel had on the baseline machine.

The kernel does the kinds of work the jobs do: exact fractions, Python
integer loops and dictionary updates keyed by tuples, as the automaton and
gf layers do, and a pass over an 8 MB numpy array, as `ising-bound` and
`fylfot` do.  A slow stretch slows interpreter-bound and memory-bound work
by different amounts; the mix tracked every job kind better than either
part alone (README.md, "Calibration").  The kernel touches no `tesserae`
code, so a change to the library moves the job times and never the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# About the kernel's fastest time on the baseline machine (its fast state).  Only
# the scale of the reported seconds depends on it, never a comparison.
REFERENCE_S = 0.0040
REPEATS = 2

_ARRAY = np.linspace(0.0, 1.0, 1 << 20)


def kernel() -> float:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    x = 0
    for i in range(20000):
        x += i * i % 7
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        table[i, i & 7] = table.get((i & 255, i & 7), 0) + i
    return total.denominator % 7 + x + len(table) + float((_ARRAY * 1.0001 + 0.5).sum())


def kernel_seconds() -> float:
    """The kernel's fastest time over REPEATS back-to-back executions."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the kernel's times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
