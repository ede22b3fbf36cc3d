"""Injectable clocks and the one event loop every run goes through.

All timing logic in this package goes through a ``Clock`` so that an
entire experiment cycle can run deterministically under ``FakeClock``.
``Scheduler.run_until`` is the only event loop: callbacks fire in
timestamp order, and before each one an idle step brings the world to
its time. The idle step is the one thing that differs between the two
kinds of run: a fake-clock run (``harness.run_scenario``) jumps the clock,
so no wall time passes at all, and the live daemon (``cesupd``) waits on
its UDP socket and delivers what arrives. The live step is also where a
run refreshes its ``status.json``: a fake-clock run never waits, so
nothing can read the file mid-run and it is not rewritten there.
Events are scheduled once (``call_at``) or every period (``call_every``).
At equal timestamps they run in rank order: ``call_at`` gives each event
the next rank, and every occurrence of a ``call_every`` callback keeps the
one rank taken when it was registered, so occurrences tie as if all had
been scheduled up front while only one is pending at a time.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Optional, Protocol


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


def overdue(now_us: int, last_us: int, periods: int, period_us: int) -> bool:
    """Whether more than ``periods`` periods of ``period_us`` have passed
    since ``last_us``: exactly ``periods`` is not overdue. The one staleness
    rule of the supervisor's liveness check and the failover monitor."""
    return now_us - last_us > periods * period_us


class Scheduler:
    """Discrete-event loop over a clock and an idle step.

    ``idle(t_us)`` runs before each event and once more at the end of
    ``run_until``; it returns once the clock reads ``t_us`` (or later).
    By default it is ``clock.advance_to``, which jumps a ``FakeClock``.
    An idle step may deliver traffic whose handlers schedule events.

    The loop's time is that of the event now running (the end of the last
    ``run_until`` once it returns, the clock's reading when the scheduler
    was built before the first). ``call_at`` and ``call_every`` reject a
    time before it.

    Events at equal timestamps run in rank order, which keeps
    multi-actor scenarios reproducible. Each ``call_at`` takes the next
    rank, so its events tie in the order they were scheduled. All
    occurrences of one ``call_every`` callback share the rank taken when
    it was registered: an occurrence runs after any event at its time
    scheduled before the registration, and before any scheduled after
    it, although each occurrence is only armed when the one before runs.
    """

    def __init__(self, clock: Clock, idle: Optional[Callable[[int], None]] = None) -> None:
        self.clock = clock
        self._idle = idle if idle is not None else clock.advance_to
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._counter = 0
        self._now_us = clock.now_us()

    def call_at(self, t_us: int, fn: Callable[[], None]) -> None:
        if t_us < self._now_us:
            raise ValueError(f"cannot schedule in the past: {t_us} < {self._now_us}")
        heapq.heappush(self._heap, (t_us, self._counter, fn))
        self._counter += 1

    def call_every(self, first_us: int, period_us: int, count: Optional[int], fn: Callable[[int], None]) -> None:
        """Call ``fn(i)`` at ``first_us + i * period_us`` for i from 0 until
        ``count`` calls are made, or until the loop stops if ``count`` is None.
        One occurrence is pending at a time, armed on the grid just before
        ``fn`` runs, so a live loop that stalls catches up and never drifts."""
        if first_us < self._now_us:
            raise ValueError(f"cannot schedule in the past: {first_us} < {self._now_us}")
        if period_us <= 0:
            raise ValueError(f"period must be positive: {period_us}")
        limit = math.inf if count is None else count
        rank = self._counter
        self._counter += 1
        next_index = 0

        def fire() -> None:
            nonlocal next_index
            index = next_index
            next_index += 1
            if next_index < limit:
                heapq.heappush(self._heap, (first_us + next_index * period_us, rank, fire))
            fn(index)

        if limit > 0:
            heapq.heappush(self._heap, (first_us, rank, fire))

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, t_end_us: int) -> None:
        """Run every event with timestamp <= t_end_us, then idle to t_end_us."""
        heap = self._heap
        idle = self._idle
        while heap and heap[0][0] <= t_end_us:
            idle(heap[0][0])
            self._now_us, _, fn = heapq.heappop(heap)
            fn()
        idle(t_end_us)
        self._now_us = t_end_us
