"""Injectable clocks and the event scheduler driving simulated runs.

All timing logic in this package goes through a ``Clock`` so that an
entire experiment cycle can run deterministically under ``FakeClock``.
``Scheduler`` is a plain discrete-event loop: callbacks fire in
timestamp order, and under a fake clock no wall time passes at all.
Events at equal timestamps run in rank order: ``call_at`` gives each
event the next rank, and every occurrence of a ``call_every`` callback
keeps the one rank taken when it was registered, so occurrences tie as
if all had been scheduled up front while only one is pending at a time.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Protocol


class Clock(Protocol):
    def now_us(self) -> int:
        """Current time in microseconds since the epoch of this clock."""
        ...


class WallClock:
    """Real time, microseconds since the Unix epoch."""

    def now_us(self) -> int:
        return time.time_ns() // 1000


class FakeClock:
    """Simulated time. Only the scheduler (or a test) moves it, forward only."""

    def __init__(self, start_us: int = 0) -> None:
        self._now_us = start_us

    def now_us(self) -> int:
        return self._now_us

    def advance_to(self, t_us: int) -> None:
        if t_us < self._now_us:
            raise ValueError(f"clock cannot move backwards: {self._now_us} -> {t_us}")
        self._now_us = t_us


class Scheduler:
    """Discrete-event loop over a ``FakeClock`` (or paced against wall time).

    Events at equal timestamps run in rank order, which keeps
    multi-actor scenarios reproducible. Each ``call_at`` takes the next
    rank, so its events tie in the order they were scheduled. All
    occurrences of one ``call_every`` callback share the rank taken when
    it was registered: an occurrence runs after any event at its time
    scheduled before the registration, and before any scheduled after
    it, although each occurrence is only armed when the one before runs.
    """

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._counter = 0

    def call_at(self, t_us: int, fn: Callable[[], None]) -> None:
        if t_us < self.clock.now_us():
            raise ValueError(f"cannot schedule in the past: {t_us} < {self.clock.now_us()}")
        heapq.heappush(self._heap, (t_us, self._counter, fn))
        self._counter += 1

    def call_every(self, first_us: int, period_us: int, count: int, fn: Callable[[int], None]) -> None:
        """Call ``fn(0)`` at ``first_us``, then ``fn(i)`` every ``period_us``
        until ``count`` calls are made. One occurrence is pending at a time:
        the next is armed just before ``fn`` runs."""
        if first_us < self.clock.now_us():
            raise ValueError(f"cannot schedule in the past: {first_us} < {self.clock.now_us()}")
        rank = self._counter
        self._counter += 1
        next_index = 0

        def fire() -> None:
            nonlocal next_index
            index = next_index
            next_index += 1
            if next_index < count:
                heapq.heappush(self._heap, (first_us + next_index * period_us, rank, fire))
            fn(index)

        if count > 0:
            heapq.heappush(self._heap, (first_us, rank, fire))

    def call_after(self, delay_us: int, fn: Callable[[], None]) -> None:
        self.call_at(self.clock.now_us() + delay_us, fn)

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, t_end_us: int) -> None:
        """Run every event with timestamp <= t_end_us, then park the clock there."""
        while self._heap and self._heap[0][0] <= t_end_us:
            t_us, _, fn = heapq.heappop(self._heap)
            self.clock.advance_to(t_us)
            fn()
        self.clock.advance_to(t_end_us)

    def run_realtime_until(self, t_end_us: int) -> None:
        """Same event order as ``run_until`` but sleeps to pace events to wall time."""
        wall_start = time.monotonic()
        sim_start = self.clock.now_us()
        while self._heap and self._heap[0][0] <= t_end_us:
            t_us, _, fn = heapq.heappop(self._heap)
            lag = (t_us - sim_start) / 1e6 - (time.monotonic() - wall_start)
            if lag > 0:
                time.sleep(lag)
            self.clock.advance_to(t_us)
            fn()
        self.clock.advance_to(t_end_us)
