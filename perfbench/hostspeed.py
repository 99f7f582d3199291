"""Host-speed normalisation of measured times.

The benchmark shares a few cores of a host with other loads, and that host's
speed swings: the same enfkit operation takes up to 1.8 times longer from one
five-second window to the next, in CPU time as much as in wall time.  So
every timed run interleaves a fixed calibration kernel (about 2 ms of plain
Python that builds and searches a small graph with tuples, frozensets, dicts
and slotted objects, the kind of work enfkit does) with the work it measures:
a SIGPROF interval timer runs it after every INTERVAL_S of the process's CPU
time, wherever the measured work happens to be, so that long operations are
sampled inside as well.  The kernel's own time is taken out of the clock,
and every measured span is rescaled piecewise by

    REFERENCE_S / (median kernel time of the NEIGHBOURS samples on each side)

so that a normalised second is a second of the host at the speed where the
kernel takes REFERENCE_S.  The kernel is not enfkit code, so a change to
enfkit moves the normalised times and leaves the kernel's alone.  Run
`python3 perfbench/hostspeed.py` to print the kernel's time on this host.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

REFERENCE_S = 1.6e-3
INTERVAL_S = 0.025
NEIGHBOURS = 5


class _Edge:
    __slots__ = ("source", "target", "label")

    def __init__(self, source, target, label):
        self.source = source
        self.target = target
        self.label = label


def kernel() -> int:
    """Fixed work: a subset construction over a seeded 300-node graph."""
    rng = random.Random(7)
    succ = {
        node: tuple(_Edge(node, rng.randrange(300), f"l{node % 11}") for _ in range(3))
        for node in range(300)
    }
    start = frozenset({0})
    seen, todo, found = {start}, [start], 0
    while todo and len(seen) < 250:
        state = todo.pop()
        by_label = {}
        for node in state:
            for edge in succ[node]:
                by_label.setdefault(edge.label, set()).add(edge.target)
        for _, targets in sorted(by_label.items()):
            successor = frozenset(targets)
            if successor not in seen:
                seen.add(successor)
                todo.append(successor)
                found += len(successor)
    return found


class Scale:
    """Maps clock readings to normalised seconds (identity without samples)."""

    def __init__(self, samples):
        self.starts = [at for at, _ in samples]
        durations = [d for _, d in samples]
        self.factors = [
            REFERENCE_S / statistics.median(durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
            for i in range(len(durations))
        ]
        self.cumulative = [0.0]
        for i in range(1, len(self.starts)):
            span = self.starts[i] - self.starts[i - 1]
            self.cumulative.append(self.cumulative[-1] + span * self.factors[i - 1])

    def at(self, t: float) -> float:
        if not self.starts:
            return t
        i = max(0, bisect.bisect_right(self.starts, t) - 1)
        return self.cumulative[i] + (t - self.starts[i]) * self.factors[i]

    def span(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)


class HostSpeed:
    """The benchmark's clock: perf_counter without the calibration time."""

    def __init__(self):
        self.paused = 0.0
        self.samples = []  # (clock reading when the kernel started, kernel seconds)
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, signum=None, frame=None):
        """Run the kernel once and take its time out of the clock.  A timer
        signal that arrives while the kernel runs is dropped."""
        if self._sampling:
            return
        self._sampling = True
        began = time.perf_counter()
        try:
            kernel()
        finally:
            took = time.perf_counter() - began
            self.samples.append((began - self.paused, took))
            self.paused += took
            self._sampling = False

    def start(self):
        """Drop earlier samples and run the kernel every INTERVAL_S of CPU time."""
        self.samples = []
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self) -> Scale:
        return Scale(self.samples)


HOST = HostSpeed()


if __name__ == "__main__":
    kernel()
    times = []
    for _ in range(200):
        began = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - began)
    print(f"kernel median {statistics.median(times) * 1e3:.3f} ms over {len(times)} runs "
          f"(reference {REFERENCE_S * 1e3:.3f} ms)")
