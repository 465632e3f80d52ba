"""Host speed, sampled while the benchmark runs.

The host this benchmark was written on ran the same code up to 1.7
times slower for 10-20 s at a time, with the load of other tenants.
Raw times of two runs then differ by more than any regression worth
catching.  So every end-to-end time is scaled: the reference kernel
below is timed every 10 ms of wall time, also in the middle of an
operation, and an operation's time is multiplied by NOMINAL_REFERENCE_S
over the kernel's mean time during that operation.  A swing of the host
slows the operation and the kernel alike and cancels out; a change to
graphcodes does not touch the kernel.  The kernel's time also varies
within 10-100 ms (consecutive samples correlate at about 0.7, samples
0.1 s apart at about 0.2), hence the short interval.

The kernel runs from a SIGALRM handler, between two bytecodes of
whatever the main thread is doing; the time spent in the handler is
taken out of the operation's time.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
# The kernel's median time while the benchmark ran on a 2-CPU x86-64 VM
# under CPython 3.11; single samples ranged from 0.35 to 8 ms.
NOMINAL_REFERENCE_S = 0.0007


class _Field:
    """Prime-field stand-in for the reference kernel."""

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p


def reference_kernel():
    """Fixed pure-Python work shaped like graphcodes' inner loops:
    field method calls over row lists and tuple-keyed dict stores."""
    F = _Field(11)
    rows = [[(i * j) % 11 for j in range(24)] for i in range(12)]
    seen = {}
    for r in range(8):
        for i, row in enumerate(rows):
            rows[i] = [F.add(x, F.mul(3, y))
                       for x, y in zip(row, rows[(i + 1) % 12])]
            seen[(r, i, tuple(rows[i][:3]))] = i
    return len(seen) + sum(map(sum, rows))


class Speedometer:
    """Context manager that samples the kernel's time while it is open.

    ``stolen`` is the wall time spent sampling so far; subtract its
    growth across an operation from the operation's time.
    """

    def __init__(self):
        self.samples = []         # (time, kernel seconds)
        self.stolen = 0.0
        self._times = []
        self._inside = False
        self._previous = None

    def _sample(self, *_):
        if self._inside:
            return
        self._inside = True
        try:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))
            self.stolen += time.perf_counter() - start
        finally:
            self._inside = False

    def __enter__(self):
        reference_kernel()        # warm-up, not a sample
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._times = [t for t, _ in self.samples]
        return False

    def scale(self, t0, t1):
        """NOMINAL_REFERENCE_S over the kernel's time in [t0, t1]: the
        mean kernel speed of the samples inside, plus the last sample
        before and the first after the interval."""
        i = max(bisect.bisect_right(self._times, t0) - 1, 0)
        j = min(bisect.bisect_left(self._times, t1), len(self._times) - 1)
        speeds = [1.0 / r for _, r in self.samples[i:j + 1]]
        return NOMINAL_REFERENCE_S * sum(speeds) / len(speeds)
