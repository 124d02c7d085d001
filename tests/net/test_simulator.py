"""Unit tests for the DES kernel."""

import pytest

from repro.net.simulator import (AllOf, AnyOf, Event, SimulationError,
                                 Simulator)


@pytest.fixture
def sim():
    return Simulator()


class _FirstScheduled:
    """Kernel tracer keeping the first event pushed onto the queue."""

    def __init__(self):
        self.event = None

    def on_schedule(self, event, priority, when):
        if self.event is None:
            self.event = event

    def on_step(self, event, when, priority):
        pass

    def on_step_done(self, event):
        pass


def _pending_timeout(sim):
    return sim.timeout(1.0)


def _process_start_event(sim):
    tracer = _FirstScheduled()
    sim.tracer = tracer

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker())
    sim.tracer = None
    return tracer.event


def _processed_event(sim):
    ev = sim.event()
    ev.succeed("done")
    sim.run()
    assert ev.processed
    return ev


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_unwaited_failed_event_surfaces(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    @pytest.mark.parametrize("make", [_pending_timeout, _process_start_event,
                                      _processed_event])
    def test_queued_or_processed_event_cannot_be_triggered(self, sim, make):
        """A queued event already has its outcome, and a processed one
        has run it: succeed() and fail() both refuse, and the queue
        does not grow."""
        ev = make(sim)
        assert ev is not None
        scheduled = sim.events_scheduled
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed("again")
        with pytest.raises(SimulationError, match="already triggered"):
            ev.fail(ValueError("again"))
        assert sim.events_scheduled == scheduled


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_now(self, sim):
        fired = []
        ev = sim.timeout(0.0, value="v")
        ev.callbacks.append(lambda e: fired.append(e.value))
        sim.run()
        assert fired == ["v"] and sim.now == 0.0

    def test_ordering_is_fifo_at_same_time(self, sim):
        order = []
        for i in range(5):
            ev = sim.timeout(1.0, value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_simple_process_runs(self, sim):
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            return "done"

        proc = sim.process(worker())
        result = sim.run(until=proc)
        assert result == "done"
        assert trace == [0.0, 1.0]

    def test_process_is_joinable_event(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        proc = sim.process(parent())
        assert sim.run(until=proc) == 14
        assert sim.now == 3.0

    def test_process_exception_fails_event(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        proc = sim.process(bad())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run(until=proc)

    def test_yield_failed_event_throws_in(self, sim):
        def waiter(ev):
            try:
                yield ev
            except ValueError as err:
                return f"caught {err}"

        ev = sim.event()
        proc = sim.process(waiter(ev))
        sim.schedule_callback(1.0, lambda: ev.fail(ValueError("vex")))
        assert sim.run(until=proc) == "caught vex"

    def test_yield_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        assert ev.processed

        def late():
            value = yield ev
            return value

        proc = sim.process(late())
        assert sim.run(until=proc) == "early"
        assert sim.now == 0.0

    def test_yield_non_event_raises_in_process(self, sim):
        def bad():
            yield 42

        proc = sim.process(bad())
        with pytest.raises(SimulationError, match="invalid target"):
            sim.run(until=proc)

    def test_is_alive(self, sim):
        def worker():
            yield sim.timeout(5.0)

        proc = sim.process(worker())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def racer():
            fast = sim.timeout(1.0, value="fast")
            slow = sim.timeout(5.0, value="slow")
            result = yield AnyOf(sim, (fast, slow))
            return (fast in result, slow in result, sim.now)

        proc = sim.process(racer())
        fast_in, slow_in, when = sim.run(until=proc)
        assert fast_in and not slow_in and when == 1.0

    def test_all_of_waits_for_all(self, sim):
        def gatherer():
            evs = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
            result = yield AllOf(sim, evs)
            return sorted(result.values()), sim.now

        proc = sim.process(gatherer())
        values, when = sim.run(until=proc)
        assert values == [1.0, 2.0, 3.0] and when == 3.0

    def test_any_of_propagates_failure(self, sim):
        def racer(ev):
            try:
                yield AnyOf(sim, (ev, sim.timeout(10.0)))
            except ValueError:
                return "failed"
            return "ok"

        ev = sim.event()
        proc = sim.process(racer(ev))
        sim.schedule_callback(1.0, lambda: ev.fail(ValueError()))
        assert sim.run(until=proc) == "failed"

    def test_empty_all_of_triggers_immediately(self, sim):
        cond = AllOf(sim, ())
        assert cond.triggered and cond.value == {}

    def test_condition_with_pretriggered_children(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        cond = AnyOf(sim, (ev,))
        assert cond.triggered


class TestRun:
    def test_run_until_time_stops_clock_exactly(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_into_past_rejected(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_run_dry_before_event_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run(until=ev)

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_determinism(self):
        def build_and_run(seed):
            import random
            rng = random.Random(seed)
            s = Simulator()
            trace = []

            def worker(wid):
                for _ in range(10):
                    yield s.timeout(rng.random())
                    trace.append((round(s.now, 9), wid))

            for wid in range(5):
                s.process(worker(wid))
            s.run()
            return trace

        assert build_and_run(7) == build_and_run(7)

    def test_schedule_callback(self, sim):
        hits = []
        sim.schedule_callback(2.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2.0]
