"""Host speed, sampled while the workload runs, to convert wall time.

On a shared host the speed of a core drifts by 20-50% over phases of
seconds to minutes, as other tenants come and go; a whole run can land in a
slow phase.  A background thread times a fixed reference kernel every
INTERVAL_S while the workload runs.  The workload's wall time over a window,
times the mean over the window's samples of REF_KERNEL_S / kernel time, is
the time the same work takes on a host running the kernel in REF_KERNEL_S:
its *reference seconds*.  The kernel mixes interpreter work with small numpy
calls, as the program does.  None of it releases the GIL, so its time never
includes waiting for the workload's thread.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time

INTERVAL_S = 0.025
REF_KERNEL_S = 5.0e-4  # harmonic mean kernel time beside a pass, quiet 2-vCPU VM
MIN_SAMPLES = 5

_MATRIX = [[4.0, 1.0, 0.0, 0.0], [1.0, 4.0, 1.0, 0.0],
           [0.0, 1.0, 4.0, 1.0], [0.0, 0.0, 1.0, 4.0]]
_CUBIC = [1.0, -6.0, 11.0, -6.0]


def kernel() -> float:
    """The fixed reference work: Python arithmetic, a list and a dict, then
    small dense solves and polynomial roots, like the program's inner loops."""
    import numpy as np  # here: set-up is timed from before numpy's import

    s, seen, items = 0, {}, []
    for i in range(1000):
        s += i * i
        items.append(s & 255)
        seen[i & 63] = s
    a, b = np.array(_MATRIX), np.ones(4)
    for _ in range(4):
        x = np.linalg.solve(a, b)
        r = np.roots(_CUBIC)
        s += float(np.abs(x).max() + r.real.sum())
    return s + sum(items) + len(seen)


class Sampler:
    """Times kernel() every INTERVAL_S on a daemon thread, start() to stop()."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        clock = time.perf_counter
        kernel()  # untimed: the first call imports numpy
        while not self._stop.wait(self.interval):
            start = clock()
            kernel()
            end = clock()
            self.ends.append(end)
            self.durations.append(end - start)

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def window(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples in [start, end], widened to MIN_SAMPLES."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return self.durations[lo:hi]

    def reference_s(self, start: float, end: float) -> float:
        """Wall time start..end converted to reference seconds.

        Samples are evenly spaced in time, so the mean of REF_KERNEL_S over
        each sample's kernel time is the host's mean speed over the window.
        """
        speeds = [REF_KERNEL_S / d for d in self.window(start, end)]
        return (end - start) * statistics.fmean(speeds)
