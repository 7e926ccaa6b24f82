"""Correct timed work for the machine's momentary speed.

On a shared host the same instructions run at one speed in one
millisecond and take up to 1.8 times as long in the next, and the share
of slow stretches drifts over minutes. The corrected time is what the
work would have taken had the machine run at its fastest throughout.

A fixed probe, Dijkstra's algorithm in pure Python on a fixed random
graph (about 0.1 ms), is timed a few times at each *mark*: at the start
and end of a round, at entry and exit of every simulation call, and at
the first per-period call at least ``INTERVAL`` after the previous mark.
Set-up, which has no per-period calls, is marked every ``INTERVAL`` by
a timer signal instead.
Each stretch of work between two marks is scaled by the run's fastest
probe time over the mean probe time at its two marks. A mean, not a
median, because the slow share within a mark is what the stretch's
slowdown follows. The probe time is left out of the stretches.
"""

from __future__ import annotations

import functools
import heapq
import random
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

NODES = 24
EDGES = 76
INTERVAL = 0.02     # seconds between marks
REPEATS = 8         # probe runs per mark


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(0)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(NODES)]
    for node in range(NODES):       # a ring keeps every node reachable
        adjacency[node].append(((node + 1) % NODES, rng.uniform(1.0, 10.0)))
    for _ in range(EDGES - NODES):
        a, b = rng.sample(range(NODES), 2)
        adjacency[a].append((b, rng.uniform(1.0, 10.0)))
    return adjacency


_ADJACENCY = _graph()


def _probe() -> float:
    """Seconds for shortest paths from four origins."""
    start = perf_counter()
    for origin in range(4):
        dist = {origin: 0.0}
        heap = [(0.0, origin)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _ADJACENCY[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return perf_counter() - start


def scaled(stretches, fastest: float) -> float:
    """Seconds of the stretches had every probe run at ``fastest``."""
    return sum(s.seconds * fastest / ((s.before + s.after) / 2)
               for s in stretches)


@dataclass
class Stretch:
    """Work between two marks: its seconds and the mean probe at both."""

    seconds: float
    before: float
    after: float = 0.0
    in_sim: bool = False


class Pace:
    """Marks and stretches of the current run; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self.rounds: list[list[Stretch]] = []
        self.in_sim = False
        self.probe_seconds = 0.0
        self._open: Stretch | None = None
        self._since = 0.0
        self._busy = False

    def mark(self) -> None:
        if self._busy:      # a timer signal during a mark
            return
        self._busy = True
        try:
            now = perf_counter()
            times = [_probe() for _ in range(REPEATS)]
            self.samples.extend(times)
            mean = statistics.fmean(times)
            if self._open is not None:
                self._open.seconds = now - self._since
                self._open.after = mean
                self.rounds[-1].append(self._open)
            self._open = Stretch(0.0, mean, in_sim=self.in_sim)
            self._since = perf_counter()
            self.probe_seconds += self._since - now
        finally:
            self._busy = False

    @contextmanager
    def ticking(self):
        """Mark every ``INTERVAL`` by a timer signal while inside."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.mark())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start_round(self) -> None:
        self.rounds.append([])
        self._open = None
        self.mark()

    def end_round(self) -> None:
        self.mark()
        self._open = None

    def wrap_period(self, fn):
        """Wrapper for a per-period call: marks if ``INTERVAL`` has passed."""
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if perf_counter() - self._since >= INTERVAL:
                self.mark()
            return fn(*args, **kwargs)
        return paced

    def enter_sim(self) -> None:
        self.in_sim = True
        self.mark()

    def exit_sim(self) -> None:
        self.in_sim = False
        self.mark()

    def corrected(self, index: int, sim_only: bool = False) -> float:
        """Round ``index``'s work (or its simulation calls) at full speed."""
        return scaled([s for s in self.rounds[index]
                       if s.in_sim or not sim_only], min(self.samples))

    def raw(self, index: int, sim_only: bool = False) -> float:
        """Round ``index``'s measured work, without the probe time."""
        return sum(s.seconds for s in self.rounds[index]
                   if s.in_sim or not sim_only)
