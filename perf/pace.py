"""Times normalised to a reference machine speed.

The box this benchmark was sized on is a shared 2-core VM whose speed drifts
by a quarter over tens of seconds and stutters for a fraction of a second at
a time (steal time shows even when idle): a fixed pure-Python loop timed over
and over had a quartile spread of 20 %, and so had every wall-clock metric of
the first ten-seed set of runs.  No amount of repetition inside a
twelve-second run averages out a drift that slow.

So while a workload runs, an interval timer interrupts it every 50 ms to time
a *spin* — a fixed interpreter-bound kernel that shares nothing with the
program — and each timed operation is scaled by how fast the spins around it
ran.  What is reported is the time the operation would have taken at the
reference speed; raw times and the observed pace are printed beside it.  The
spins run in the signal handler, on the main thread, between two bytecodes of
the program: no second thread, no contention for the interpreter lock, and
the time they take is subtracted from the operation they interrupt.

The spin mixes register arithmetic with cache-missing dict walks and heap
traffic, because the program does both and a neighbour that thrashes the
cache slows the second kind more.
"""

from __future__ import annotations

import heapq
import signal
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: What one spin takes on the sizing box in its usual state.  Only ratios to
#: this number matter; it is frozen so that reported times stay comparable.
REFERENCE_SPIN_S = 0.006
#: Interval of the sampling timer.
TICK_S = 0.05
#: Spins taken into account on either side of a timed operation, besides
#: those that interrupted it: a millisecond-long join still gets four.
NEIGHBOURS = 2

_TABLE_SIZE = 200_000


def make_spin() -> Callable[[], float]:
    """The calibration kernel; returns a function that runs it once, timed."""
    table = {i: ((i % 977) / 977.0, (i % 613) / 613.0) for i in range(_TABLE_SIZE)}

    def spin() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        key, best, heap = 12345, 0.0, []
        for i in range(5_000):
            x, y = table[key]
            d = (x - 0.5) * (x - 0.5) + (y - 0.25) * (y - 0.25)
            if d > best:
                best = d
            heapq.heappush(heap, (d, i, key))
            if len(heap) > 32:
                heapq.heappop(heap)
            key = (key * 1103515245 + 12345) % _TABLE_SIZE
        return time.perf_counter() - start

    return spin


class Pacer:
    """Times operations and normalises them by the machine speed sampled around them.

    ``wrap`` lets a tracer record each tick as a span of its own, so that a
    tick landing inside a traced function is not charged to that function.
    """

    def __init__(self, wrap: Optional[Callable[[Callable], Callable]] = None) -> None:
        self._spin = make_spin()
        self._tick = self._sample if wrap is None else wrap(self._sample)
        self._ticked_at: List[float] = []
        #: Machine speed at each tick, 1.0 being the reference.
        self._speeds: List[float] = []
        self._spinning_s = 0.0
        self._in_tick = False
        #: (name, start, end, seconds of that spent in ticks)
        self._operations: List[Tuple[str, float, float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        if self._in_tick:
            # The machine stalled for a whole interval inside a spin; a spin
            # nested in a spin would measure the stall twice.
            return
        self._in_tick = True
        start = time.perf_counter()
        self._speeds.append(REFERENCE_SPIN_S / self._spin())
        self._ticked_at.append(start)
        self._spinning_s += time.perf_counter() - start
        self._in_tick = False

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample the machine speed every ``TICK_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        spinning = self._spinning_s
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._operations.append((name, start, end, self._spinning_s - spinning))

    def finish(self) -> Tuple[Dict[str, List[float]], Dict[str, float], Dict[str, float]]:
        """Normalised seconds per operation, raw seconds and tick seconds per name."""
        # A tick may still land while this runs: read a consistent prefix.
        ticked_at = list(self._ticked_at)
        running = [0.0, *accumulate(self._speeds[: len(ticked_at)])]
        samples: Dict[str, List[float]] = {}
        raw: Dict[str, float] = {}
        ticking: Dict[str, float] = {}
        for name, start, end, spinning in self._operations:
            low = max(0, bisect_left(ticked_at, start) - NEIGHBOURS)
            high = min(len(ticked_at), bisect_right(ticked_at, end) + NEIGHBOURS)
            speed = (running[high] - running[low]) / (high - low)
            seconds = end - start - spinning
            samples.setdefault(name, []).append(seconds * speed)
            raw[name] = raw.get(name, 0.0) + seconds
            ticking[name] = ticking.get(name, 0.0) + spinning
        return samples, raw, ticking

    def speeds(self) -> List[float]:
        return list(self._speeds)
