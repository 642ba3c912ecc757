"""Machine-speed reference: rescale wall times to a fixed reference speed.

On a shared host the speed of this process drifts by tens of percent over
minutes, because other tenants load the same cores; a pass of identical
work can take 6 s in one minute and 11 s a few minutes later.  To keep
that drift out of the end-to-end times, a SIGALRM timer samples the
machine's speed every PERIOD_S while the workload runs: each sample times
`reference_work`, a fixed piece of dict and sort work on fixed data that
does not touch excepta.  The time the samples take is taken out of the
workload's wall time.

The wall time between samples is rescaled one window of WINDOW samples
(about a second) at a time: times NOMINAL_S over the interquartile mean of
the window's samples.  NOMINAL_S is the reference work's time on an
unloaded machine of the kind the benchmark was written on, so
reference-speed seconds read close to wall seconds there.  A change to the
program moves the workload's wall time and not the reference, so it moves
the rescaled time in proportion; drift moves both and cancels.  Windows
follow a slow spell that starts or ends within a pass; interquartile means
ignore single samples hit by an interrupt.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.05
WINDOW = 20
NOMINAL_S = 1.6e-3

_rng = random.Random(20230420)  # fixed: the reference work is the same in every run
_PAIRS = [(_rng.randrange(977), _rng.random()) for _ in range(6000)]


def reference_work() -> None:
    """Interpreter-, allocator- and cache-bound work: about 1.6 ms unloaded, 3 ms loaded."""
    acc: dict = {}
    for key, value in _PAIRS:
        acc[key] = acc.get(key, 0.0) + value
    sorted(_PAIRS[:3000])


def interquartile_mean(values: list) -> float:
    ordered = sorted(values)
    n = len(ordered)
    return statistics.fmean(ordered[n // 4: n - n // 4])


@dataclass(frozen=True)
class Mark:
    wall: float   # perf_counter at the mark
    count: int    # samples taken before it


class SpeedClock:
    """Samples machine speed on a timer while entered; measures intervals between marks.

    An inactive clock takes no samples and reports plain wall time, which
    traced runs use so that spans hold no sampling.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list = []  # (start, end) perf_counter of each sample
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append((t0, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> Mark:
        # A sample can run between the two reads; read again until none did.
        while True:
            count = len(self.samples)
            wall = time.perf_counter()
            if len(self.samples) == count:
                return Mark(wall, count)

    def wall_seconds(self, start: Mark, end: Mark) -> float:
        """Wall time between two marks, without the time spent sampling."""
        taken = self.samples[start.count:end.count]
        return (end.wall - start.wall) - sum(t1 - t0 for t0, t1 in taken)

    def seconds(self, start: Mark, end: Mark) -> float:
        """Reference-speed seconds between two marks (wall seconds when inactive)."""
        taken = self.samples[start.count:end.count]
        if not self.active or not self.samples:
            return self.wall_seconds(start, end)
        if not taken:
            # Too short to hold a sample: use the latest window's speed.
            recent = self.samples[max(0, start.count - WINDOW):start.count] or self.samples[-WINDOW:]
            return self.wall_seconds(start, end) * NOMINAL_S / interquartile_mean([b - a for a, b in recent])
        windows = [taken[i:i + WINDOW] for i in range(0, len(taken), WINDOW)]
        if len(windows) > 1 and len(windows[-1]) < WINDOW // 2:
            windows[-2:] = [windows[-2] + windows[-1]]
        total, previous_end = 0.0, start.wall
        for i, window in enumerate(windows):
            gaps = 0.0
            for t0, t1 in window:
                gaps += t0 - previous_end
                previous_end = t1
            if i == len(windows) - 1:
                gaps += end.wall - previous_end
            total += gaps * NOMINAL_S / interquartile_mean([t1 - t0 for t0, t1 in window])
        return total
