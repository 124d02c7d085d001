"""``Simulator.run``'s reference: the dispatch rule as one ``step()``
call per event, kept as the oracle.

``reference_step`` takes the next entry off the queue and runs it the
way the kernel does: a cancelled :class:`~repro.net.simulator.Deadline`
head queues its FIFO's next live entry and reports no step and no
clock move; a defused event moves the clock and reports ``on_step`` and
``on_step_done`` but runs nothing; a failure nobody waited on is raised
after ``on_step_done``.  ``reference_run`` drives it in the three stop
modes of ``Simulator.run``.  ``tests/net/test_run_loop.py`` requires
the kernel's single loop to report the same hooks, end at the same
``now`` and ``events_scheduled`` and return or raise the same thing as
this reference on random schedules, with and without a tracer.
"""

from heapq import heappop
from typing import Any, Optional

from repro.net.simulator import (_UNWATCHED, Deadline, Event,
                                 SimulationError, Simulator)


def _pop(sim: Simulator) -> tuple:
    """Take the next entry (buffer slot first).  IndexError when empty."""
    buf = sim._nbuf
    queue = sim._queue
    if buf is not None:
        if queue and queue[0] < buf:
            return heappop(queue)
        sim._nbuf = None
        return buf
    return heappop(queue)


def _peek(sim: Simulator) -> float:
    """Time of the next entry, or ``inf`` when the queue is empty."""
    buf = sim._nbuf
    if buf is not None:
        return buf[0] if not sim._queue or buf < sim._queue[0] \
            else sim._queue[0][0]
    return sim._queue[0][0] if sim._queue else float("inf")


def reference_step(sim: Simulator) -> None:
    """Process the single next entry.  IndexError when empty."""
    when, prio, _seq, event = _pop(sim)
    callbacks = event.callbacks
    if callbacks is None and type(event) is Deadline:
        event._line.skip()
        return
    sim.now = when
    event._triggered = True
    tracer = sim.tracer
    if tracer is not None:
        tracer.on_step(event, when, prio)
    if callbacks is None:
        if tracer is not None:
            tracer.on_step_done(event)
        return  # defused: queued and numbered, but runs nothing
    event.callbacks = None
    if tracer is None:
        for cb in callbacks:
            cb(event)
    else:
        try:
            for cb in callbacks:
                cb(event)
        finally:
            tracer.on_step_done(event)
    if event._ok is False and not callbacks and not isinstance(event, _UNWATCHED):
        raise event._value


def reference_run(sim: Simulator,
                  until: Optional[float | Event] = None) -> Any:
    """``sim.run(until)`` as a ``reference_step`` loop."""
    if isinstance(until, Event):
        stop = until
        while stop.callbacks is not None or not stop._triggered:
            if sim._nbuf is None and not sim._queue:
                raise SimulationError(
                    "simulation ran dry before the awaited event triggered")
            reference_step(sim)
        if stop._ok:
            return stop._value
        raise stop._value
    if until is not None:
        horizon = float(until)
        if horizon < sim.now:
            raise SimulationError("cannot run into the past")
        while _peek(sim) <= horizon:
            reference_step(sim)
        sim.now = horizon
        return None
    while sim._nbuf is not None or sim._queue:
        reference_step(sim)
    return None
