"""Edge-case and property tests for the DES kernel beyond the basics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.simulator import AllOf, AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestDefusedEvents:
    def test_defused_pending_event_can_still_be_succeeded(self, sim):
        """A waiter that abandons an event (callbacks=None) must not
        crash the kernel when the event later triggers."""
        ev = sim.event()
        ev.callbacks = None
        ev.succeed("late")
        sim.run()  # must not raise

    def test_defused_failed_event_does_not_raise(self, sim):
        ev = sim.event()
        ev.callbacks = None
        ev.fail(ValueError("ignored"))
        sim.run()  # must not raise


class TestConditionEdgeCases:
    def test_allof_fails_fast_on_first_failure(self, sim):
        def waiter():
            bad = sim.event()
            slow = sim.timeout(100.0)
            sim.schedule_callback(1.0, lambda: bad.fail(ValueError("x")))
            try:
                yield AllOf(sim, (bad, slow))
            except ValueError:
                return sim.now
            return None

        proc = sim.process(waiter())
        assert sim.run(until=proc) == 1.0

    def test_nested_conditions(self, sim):
        def waiter():
            a = sim.timeout(1.0, value="a")
            b = sim.timeout(2.0, value="b")
            c = sim.timeout(3.0, value="c")
            inner = AllOf(sim, (a, b))
            outer = AnyOf(sim, (inner, c))
            yield outer
            return sim.now

        proc = sim.process(waiter())
        assert sim.run(until=proc) == 2.0

    def test_condition_value_snapshot(self, sim):
        def waiter():
            fast = sim.timeout(1.0, value="f")
            slow = sim.timeout(5.0, value="s")
            result = yield AnyOf(sim, (fast, slow))
            return dict(result)

        proc = sim.process(waiter())
        result = sim.run(until=proc)
        assert list(result.values()) == ["f"]


class TestProcessLifecycle:
    def test_immediate_return_process(self, sim):
        def noop():
            return "done"
            yield  # pragma: no cover

        proc = sim.process(noop())
        assert sim.run(until=proc) == "done"

    def test_chained_joins(self, sim):
        def leaf():
            yield sim.timeout(1.0)
            return 1

        def middle():
            value = yield sim.process(leaf())
            return value + 1

        def root():
            value = yield sim.process(middle())
            return value + 1

        proc = sim.process(root())
        assert sim.run(until=proc) == 3

    def test_many_joiners_on_one_process(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "shared"

        shared = sim.process(worker())
        results = []

        def joiner():
            value = yield shared
            results.append(value)

        for _ in range(5):
            sim.process(joiner())
        sim.run()
        assert results == ["shared"] * 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=10.0),
                min_size=1, max_size=30))
def test_clock_monotonic_property(delays):
    """Property: observed time never goes backwards, and the final
    clock equals the max cumulative path."""
    sim = Simulator()
    observed = []

    def chain():
        for d in delays:
            yield sim.timeout(d)
            observed.append(sim.now)

    sim.process(chain())
    sim.run()
    assert observed == sorted(observed)
    assert observed[-1] == pytest.approx(sum(delays))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_parallel_processes_deterministic_property(n_procs, seed):
    """Property: any process mix replays identically."""
    import random

    def run_once():
        rng = random.Random(seed)
        sim = Simulator()
        trace = []

        def worker(wid):
            for _ in range(5):
                yield sim.timeout(rng.random())
                trace.append((round(sim.now, 12), wid))

        for wid in range(n_procs):
            sim.process(worker(wid))
        sim.run()
        return trace

    assert run_once() == run_once()
