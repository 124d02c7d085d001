"""Defused events: queued, numbered, run nothing.

``Event.defuse()`` lets a moot event go without touching the queue:
the entry keeps its ``(time, priority, seq)`` and still pops, but the
event's callbacks (and everything they reach) are dropped.  Two
contracts follow, pinned here:

* *defused is not fired* — a defused event that has not reached its
  instant is still pending, so a new waiter waits for that instant;
* *order neutrality* — a run that defuses its moot timers schedules the
  same events, fires its live callbacks in the same order and walks the
  same clock as the run that lets them fire and do nothing.
"""

import pytest

from repro.net.simulator import AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestDefusedIsNotFired:
    def test_defused_event_is_not_processed(self, sim):
        ev = sim.timeout(1.0)
        ev.defuse()
        assert not ev.processed and not ev.triggered
        sim.run()
        assert ev.processed

    def test_yielding_a_defused_timeout_waits_for_its_instant(self, sim):
        pending = sim.timeout(3.0, "late")
        pending.defuse()

        def waiter():
            value = yield pending
            return sim.now, value

        assert sim.run(until=sim.process(waiter())) == (3.0, "late")

    def test_any_of_a_defused_timeout_waits_for_its_instant(self, sim):
        pending = sim.timeout(3.0, "late")
        pending.defuse()
        race = AnyOf(sim, (pending, sim.timeout(7.0)))

        def waiter():
            won = yield race
            return sim.now, list(won.values())

        assert sim.run(until=sim.process(waiter())) == (3.0, ["late"])

    def test_run_until_a_defused_timeout_runs_to_its_instant(self, sim):
        pending = sim.timeout(2.0, "v")
        sim.timeout(1.0)
        pending.defuse()
        assert sim.run(until=pending) == "v"
        assert sim.now == 2.0


class _Steps:
    """Kernel tracer recording every pop's (time, priority)."""

    def __init__(self):
        self.steps = []

    def on_schedule(self, event, priority, when):
        pass

    def on_step(self, event, when, priority):
        self.steps.append((when, priority))

    def on_step_done(self, event):
        pass

    def on_drop(self, event):
        pass


def _script(defuse):
    """Callers racing replies against deadlines, the shape of
    ``RpcNode.call`` and ``QuorumWait``: half the replies beat their
    deadline, half arrive after it.  Returns what an observer sees."""
    sim = Simulator()
    tracer = _Steps()
    sim.tracer = tracer
    live = []

    def caller(i):
        reply = sim.event()
        reply_at = 0.1 * (i % 5) + 0.05
        sim.schedule_callback(reply_at, lambda: reply.succeed(i))
        deadline = sim.timeout(0.25)

        def on_deadline(_ev):
            # Moot once the reply is in; live otherwise.
            if not reply.triggered:
                live.append(("deadline", i, sim.now))

        deadline.callbacks.append(on_deadline)
        yield AnyOf(sim, (reply, deadline))
        if reply.triggered:
            if defuse:
                deadline.defuse()
            live.append(("reply", i, sim.now))
        else:
            if defuse:
                reply.defuse()
            live.append(("timeout", i, sim.now))
        yield sim.timeout(0.01 * i)
        live.append(("done", i, sim.now))

    for i in range(10):
        sim.process(caller(i))
    sim.run()
    return sim.events_scheduled, live, tracer.steps


def test_defusing_is_order_neutral():
    plain = _script(defuse=False)
    defused = _script(defuse=True)
    scheduled, live, steps = defused
    assert scheduled == plain[0]
    assert live == plain[1]
    assert steps == plain[2]
    assert {kind for kind, _i, _t in live} == {
        "reply", "timeout", "deadline", "done"}
