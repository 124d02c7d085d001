"""``Simulator.deadline``: a cancellable callback that is ordered like an
eager timer but, cancelled, never reaches the queue.

A reservation takes ``(now + delay, NORMAL, seq)`` at once, so the
total order and ``events_scheduled`` are those of
``sim.timeout(delay)`` with the callback on it.  Only the head of each
delay's FIFO is queued; a popped head fires if live and queues the
next live entry.
"""

import pytest

from repro.net.simulator import Deadline, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def _depth(sim):
    return len(sim._queue) + (sim._nbuf is not None)


def _interleaved(eager):
    """Timeouts at the same instant as a deadline, scheduled before and
    after it, plus one on a second delay: the fire order, the clock at
    each fire and the event count."""
    sim = Simulator()
    log = []

    def note(tag):
        return lambda _ev: log.append((tag, sim.now))

    def reserve(delay, tag):
        if eager:
            sim.timeout(delay).callbacks.append(note(tag))
        else:
            sim.deadline(delay, note(tag))

    def later(_ev):
        # Reserved mid-run: lands between entries already queued.
        reserve(0.5, "d3")
        sim.timeout(0.5).callbacks.append(note("t3"))

    sim.timeout(1.0).callbacks.append(note("t1"))
    reserve(1.0, "d1")
    sim.timeout(1.0).callbacks.append(note("t2"))
    reserve(1.0, "d2")
    reserve(0.7, "e1")
    sim.timeout(0.5).callbacks.append(later)
    sim.run()
    return log, sim.events_scheduled, sim.now


class TestOrder:
    def test_same_instant_order_is_the_eager_timers(self):
        lazy = _interleaved(eager=False)
        assert lazy == _interleaved(eager=True)
        assert [tag for tag, _now in lazy[0]] == [
            "e1", "t1", "d1", "t2", "d2", "d3", "t3"]

    def test_events_scheduled_counts_reservations(self, sim):
        before = sim.events_scheduled
        kept = sim.deadline(1.0, lambda _d: None)
        dropped = sim.deadline(1.0, lambda _d: None)
        assert sim.events_scheduled == before + 2
        dropped.cancel()
        sim.run()
        assert sim.events_scheduled == before + 2
        assert kept.fn is None  # fired

    def test_negative_delay_is_refused(self, sim):
        with pytest.raises(SimulationError):
            sim.deadline(-1.0, lambda _d: None)


class TestCancel:
    def test_cancelled_deadline_runs_nothing(self, sim):
        ran = []
        d = sim.deadline(1.0, ran.append)
        d.cancel()
        d.cancel()  # idempotent
        sim.run()
        assert ran == []

    def test_fired_deadline_passes_itself_and_ignores_cancel(self, sim):
        ran = []
        d = sim.deadline(1.0, ran.append)
        sim.run()
        assert ran == [d] and sim.now == 1.0
        d.cancel()
        assert d.fn is None

    def test_cancelled_head_rearms_the_next_live_entry(self, sim):
        ran = []
        first = sim.deadline(1.0, lambda _d: ran.append(("first", sim.now)))
        sim.run(until=0.25)
        dead = sim.deadline(1.0, lambda _d: ran.append(("dead", sim.now)))
        sim.run(until=0.5)
        sim.deadline(1.0, lambda _d: ran.append(("live", sim.now)))
        first.cancel()
        dead.cancel()
        assert _depth(sim) == 1  # only the (cancelled) head is queued
        sim.run()
        assert ran == [("live", 1.5)]

    def test_one_queue_entry_per_delay(self, sim):
        made = [sim.deadline(1.0, lambda _d: None) for _ in range(100)]
        made += [sim.deadline(2.0, lambda _d: None) for _ in range(100)]
        assert _depth(sim) == 2
        for d in made[:-1]:
            d.cancel()
        sim.run()
        assert sim.now == 2.0 and made[-1].fn is None

    def test_drained_run_keeps_the_clock_off_a_cancelled_instant(self, sim):
        sim.timeout(0.2)
        sim.deadline(5.0, lambda _d: None).cancel()
        sim.run()
        assert sim.now == 0.2

    def test_step_takes_a_cancelled_head_without_moving_the_clock(self, sim):
        hooks = sim.tracer = _Hooks()
        dead = sim.deadline(3.0, lambda _d: None)
        dead.cancel()
        sim.run()
        # Taken off the queue, but no step is reported and the clock
        # stays where it was.
        assert sim.now == 0.0 and _depth(sim) == 0
        assert hooks.log == [("schedule", dead, 3.0), ("drop", dead)]
        sim.run()  # nothing left to take
        assert sim.now == 0.0

    def test_cancel_from_a_fired_deadline_of_the_same_delay(self, sim):
        ran = []
        second = None

        def first(_d):
            ran.append("first")
            second.cancel()

        sim.deadline(1.0, first)
        second = sim.deadline(1.0, lambda _d: ran.append("second"))
        third = sim.deadline(1.0, lambda _d: ran.append("third"))
        sim.run()
        assert ran == ["first", "third"] and third.fn is None

    def test_run_until_horizon_between_deadlines(self, sim):
        ran = []
        sim.deadline(1.0, lambda _d: ran.append(sim.now))
        sim.run(until=0.5)
        sim.deadline(1.0, lambda _d: ran.append(sim.now))
        sim.run(until=1.2)
        assert ran == [1.0] and sim.now == 1.2
        sim.run()
        assert ran == [1.0, 1.5]


class TestNotAnEvent:
    def test_a_process_cannot_wait_on_a_deadline(self, sim):
        d = sim.deadline(1.0, lambda _d: None)

        def waiter():
            yield d

        proc = sim.process(waiter())
        with pytest.raises(SimulationError):
            sim.run(until=proc)


class _Hooks:
    """Kernel tracer recording what it is told about deadlines."""

    def __init__(self):
        self.log = []

    def on_schedule(self, event, priority, when):
        if type(event) is Deadline:
            self.log.append(("schedule", event, when))

    def on_step(self, event, when, priority):
        if type(event) is Deadline:
            self.log.append(("step", event, when))

    def on_step_done(self, event):
        if type(event) is Deadline:
            self.log.append(("done", event))

    def on_drop(self, event):
        self.log.append(("drop", event))


class TestTracerHooks:
    def test_reserve_step_and_drop_are_reported(self, sim):
        hooks = sim.tracer = _Hooks()
        ran = []
        live = sim.deadline(1.0, lambda _d: ran.append(
            [entry[0] for entry in hooks.log]))
        dead = sim.deadline(1.0, lambda _d: None)
        dead.cancel()
        dead.cancel()  # reported once
        sim.run()
        assert hooks.log == [
            ("schedule", live, 1.0), ("schedule", dead, 1.0),
            ("drop", dead), ("step", live, 1.0), ("done", live)]
        # The callback runs inside the step window.
        assert ran == [["schedule", "schedule", "drop", "step"]]
