"""The discrete-event scheduler: timestamp order, the tie-break rank and
the idle step."""

from __future__ import annotations

import random

import pytest

from cexp.clock import FakeClock, Scheduler, overdue
from cexp.wirebus import Heartbeat, LoopbackBus, MsgType, Sender


def test_call_at_ties_run_in_scheduling_order():
    scheduler = Scheduler(FakeClock(0))
    order = []
    for name in "abc":
        scheduler.call_at(100, lambda n=name: order.append(n))
    scheduler.call_at(50, lambda: order.append("early"))
    scheduler.run_until(100)
    assert order == ["early", "a", "b", "c"]


def test_call_every_fires_count_times_at_its_period():
    clock = FakeClock(1_000)
    scheduler = Scheduler(clock)
    fired = []
    scheduler.call_every(1_000, 250, 4, lambda i: fired.append((i, clock.now_us())))
    scheduler.run_until(10_000)
    assert fired == [(0, 1_000), (1, 1_250), (2, 1_500), (3, 1_750)]
    assert scheduler.pending() == 0


def test_call_every_keeps_one_occurrence_pending():
    scheduler = Scheduler(FakeClock(0))
    seen = []
    scheduler.call_every(0, 10, 1_000, lambda i: seen.append(scheduler.pending()))
    assert scheduler.pending() == 1
    scheduler.run_until(100_000)
    assert len(seen) == 1_000
    assert set(seen[:-1]) == {1}  # the next occurrence, armed before the callback runs
    assert seen[-1] == 0


def test_call_every_with_zero_count_schedules_nothing():
    scheduler = Scheduler(FakeClock(0))
    scheduler.call_every(0, 10, 0, lambda i: pytest.fail("must not fire"))
    assert scheduler.pending() == 0
    scheduler.run_until(1_000)


def test_call_every_rejects_the_past():
    scheduler = Scheduler(FakeClock(500))
    with pytest.raises(ValueError):
        scheduler.call_every(499, 10, 3, lambda i: None)


class TickingClock:
    """A clock that, like wall time, has moved on by the next read: every
    read is one microsecond later than the one before."""

    def __init__(self) -> None:
        self._now_us = 0

    def now_us(self) -> int:
        self._now_us += 1
        return self._now_us


def test_call_after_zero_holds_under_a_clock_that_moves_between_reads():
    clock = TickingClock()

    def idle(t_us):
        while clock.now_us() < t_us:
            pass

    scheduler = Scheduler(clock, idle=idle)
    fired = []

    def rearm(n):
        fired.append(n)
        if n < 100:
            scheduler.call_after(0, lambda: rearm(n + 1))

    scheduler.call_after(0, lambda: rearm(1))
    scheduler.run_until(10_000)
    assert fired == list(range(1, 101))
    with pytest.raises(ValueError):
        scheduler.call_after(-1, lambda: None)


def test_occurrences_keep_the_rank_taken_at_registration():
    scheduler = Scheduler(FakeClock(0))
    order = []
    scheduler.call_at(200, lambda: order.append("before"))
    scheduler.call_every(0, 100, 5, lambda i: order.append(f"tick{i}"))
    scheduler.call_at(200, lambda: order.append("after"))
    scheduler.run_until(1_000)
    assert order == ["tick0", "tick1", "before", "tick2", "after", "tick3", "tick4"]


def _run_world(use_call_every: bool, seed: int) -> list:
    """A periodic callback amid one-shot events, some scheduled before it is
    registered, some after, and some from inside callbacks while the loop
    runs, all on timestamps that collide with its occurrences."""
    rng = random.Random(seed)
    scheduler = Scheduler(FakeClock(0))
    log = []
    period, count = 10, 40

    def one_shot(name, depth):
        def fn():
            log.append((scheduler.clock.now_us(), name))
            if depth < 2 and rng.random() < 0.5:
                t = scheduler.clock.now_us() + period * rng.randint(0, 3)
                scheduler.call_at(t, one_shot(f"{name}>", depth + 1))

        return fn

    def occurrence(i):
        log.append((scheduler.clock.now_us(), f"p{i}"))
        if rng.random() < 0.3:
            scheduler.call_after(period * rng.randint(0, 2), one_shot(f"from-p{i}", 1))

    for k in range(15):
        scheduler.call_at(period * rng.randint(0, count), one_shot(f"pre{k}", 0))
    if use_call_every:
        scheduler.call_every(0, period, count, occurrence)
    else:  # the reference: every occurrence scheduled up front
        for i in range(count):
            scheduler.call_at(i * period, lambda i=i: occurrence(i))
    for k in range(15):
        scheduler.call_at(period * rng.randint(0, count), one_shot(f"post{k}", 0))
    scheduler.run_until(period * (count + 10))
    return log


@pytest.mark.parametrize("seed", range(20))
def test_call_every_orders_ties_as_if_scheduled_up_front(seed):
    assert _run_world(True, seed) == _run_world(False, seed)


def test_run_until_idles_to_each_event_time_in_order_then_to_the_end():
    clock = FakeClock(0)
    seen = []

    def idle(t_us):
        seen.append(t_us)
        clock.advance_to(t_us)

    scheduler = Scheduler(clock, idle=idle)
    for t_us in (30, 10, 20, 20, 60):
        scheduler.call_at(t_us, lambda: None)
    scheduler.run_until(50)
    assert seen == [10, 20, 20, 30, 50]
    assert clock.now_us() == 50
    assert scheduler.pending() == 1  # the event past the horizon waits


def test_traffic_an_idle_step_publishes_is_handled_before_the_next_event():
    clock = FakeClock(0)
    bus = LoopbackBus()
    sender = Sender(bus, 9, clock)
    log = []
    bus.subscribe(
        types={MsgType.HEARTBEAT},
        callback=lambda item: log.append(("handled", item.message.uptime_s)),
    )

    def idle(t_us):
        clock.advance_to(t_us)
        sender.send(Heartbeat(node_id=1, uptime_s=t_us))

    scheduler = Scheduler(clock, idle=idle)
    scheduler.call_at(10, lambda: log.append(("event", clock.now_us())))
    scheduler.call_at(20, lambda: log.append(("event", clock.now_us())))
    scheduler.run_until(30)
    assert log == [
        ("handled", 10), ("event", 10), ("handled", 20), ("event", 20), ("handled", 30),
    ]


def test_overdue_is_strictly_more_than_the_periods():
    assert not overdue(3_000_000, 0, 3, 1_000_000)
    assert overdue(3_000_001, 0, 3, 1_000_000)
    assert not overdue(5_500_000, 4_000_000, 3, 500_000)
    assert overdue(5_500_001, 4_000_000, 3, 500_000)
