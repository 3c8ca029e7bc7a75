"""A clock that runs at a fixed reference speed of the processor.

A shared host runs the same code at speeds up to about 1.9x apart, in
phases that last from a second to many minutes, so raw times of two runs
of one program can differ by more than any useful regression bound.  The
benchmark therefore times a small fixed kernel, which has nothing to do
with the package, at many points of a run (a *tick*), and scales the time
between two ticks by ``REF_KERNEL_S`` over the kernel's mean time at those
two ticks.  A normalized time is what the interval would have taken on a
processor that runs the kernel in ``REF_KERNEL_S``.  The kernel mixes what
the package spends its time on: small symmetric eigensolves, small numpy
array operations and interpreted Python.  Time spent in the kernel itself
is left out of every interval.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's fastest time on a 2-vCPU Xeon host; sets the scale of
# all normalized times
REF_KERNEL_S = 1.5e-4
KERNEL_REPEATS = 3  # a tick keeps the fastest of these, which drops interrupts

_rng = np.random.default_rng(0)
_SYM = _rng.normal(size=(16, 16))
_SYM = _SYM + _SYM.T
_CUBE = _rng.normal(size=(2, 2, 2))


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t = time.perf_counter()
    for _ in range(2):
        np.linalg.eigvalsh(_SYM)
    for _ in range(10):
        x = np.abs(_CUBE - 0.3)
        int(np.argmin(np.max(x, axis=0)))
        float(np.sum(x * _CUBE))
    acc = 0
    for i in range(300):
        acc += i * i
    return time.perf_counter() - t


def kernel_time() -> float:
    return min(kernel() for _ in range(KERNEL_REPEATS))


class SpeedClock:
    """Ticks along a run, and normalized wall and CPU time between ticks."""

    def __init__(self) -> None:
        # per tick: wall and CPU clock before the kernel, kernel time, and
        # wall and CPU clock after it
        self.marks: list[tuple[float, float, float, float, float]] = []

    def tick(self) -> int:
        """Time the kernel now; return this tick's index."""
        w0, c0 = time.perf_counter(), time.process_time()
        k = kernel_time()
        self.marks.append((w0, c0, k, time.perf_counter(), time.process_time()))
        return len(self.marks) - 1

    def between(self, i: int, j: int) -> tuple[float, float]:
        """Normalized wall and CPU seconds from tick ``i`` to tick ``j``."""
        wall = cpu = 0.0
        for a, b in zip(self.marks[i:j], self.marks[i + 1:j + 1]):
            scale = REF_KERNEL_S / ((a[2] + b[2]) / 2)
            wall += (b[0] - a[3]) * scale
            cpu += (b[1] - a[4]) * scale
        return wall, cpu

    def raw_between(self, i: int, j: int) -> float:
        """Wall seconds from tick ``i`` to tick ``j``, kernel time left out."""
        return sum(b[0] - a[3] for a, b in zip(self.marks[i:j], self.marks[i + 1:j + 1]))
