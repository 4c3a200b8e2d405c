"""Host-speed sampler: rescales measured times to one fixed reference speed.

Shared virtual machines can switch between speeds for seconds at a time as
co-tenants come and go.  On a 2-vCPU Intel Xeon 2.1 GHz VM the reference
loop below took about 90 us in one state and 160 us in the other, and the
raw wall time of identical work moved by 10 to 30 % between runs.  So while
an operation is timed, SIGALRM runs the reference loop every PERIOD_S seconds
and records how long it took, and the operation's time is multiplied by
REFERENCE_S / (mean loop time during the operation).  The result is the time
the operation would take on a host where the loop takes REFERENCE_S.  All
work the program does still counts in full; only the host's momentary speed
cancels.  The sampling costs about 0.7 % of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

REFERENCE_S = 1e-4
PERIOD_S = 0.02
MIN_SAMPLES = 3


def _step(a: int, b: int) -> int:
    return (a * 31 + b) % 1000003


def reference_loop(n: int = 120) -> None:
    """A fixed mix of calls, tuples, dict updates and small lists."""
    acc = 0
    table = {}
    for i in range(n):
        acc = _step(acc, i)
        key = (i & 31, acc & 7)
        table[key] = table.get(key, 0) + 1
        row = [acc + j for j in range(4)]
        acc ^= row[i & 3]


class SpeedSampler:
    """Context manager that samples the reference loop on a SIGALRM timer."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        for _ in range(MIN_SAMPLES):   # so that `scale` always has samples
            self._sample(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S / mean loop time over [start, end], widened until it
        holds MIN_SAMPLES samples (short operations see few ticks)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES:
            lo = max(0, lo - 1)
            hi = min(len(self.starts), hi + 1)
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
