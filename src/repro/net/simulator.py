"""Deterministic discrete-event simulation kernel.

This module is the substrate every distributed component in the
reproduction runs on.  The paper evaluated Sedna on a 9-server gigabit
cluster; we do not have that hardware, so nodes, clients, ZooKeeper
ensemble members and trigger scanner threads all run as *processes* on a
single deterministic event loop whose clock is simulated time in
seconds.

The design follows the SimPy process-interaction style (generators that
``yield`` events), but is implemented from scratch and offers only what
the reproduction uses:

* :class:`Event` — a one-shot occurrence that processes can wait on.
* :class:`Timeout` — an event that fires after a simulated delay, made
  by ``sim.timeout`` (periodic daemons yield one per round).
* :class:`Process` — a generator-based coroutine driven by the loop.
* :class:`AnyOf` / :class:`AllOf` — condition events for fan-in waits
  (RPC-with-timeout races, joins).
* :class:`Simulator` — the event loop itself.

Determinism: event ordering is a strict ``(time, priority, sequence)``
total order, so two runs with the same seed produce byte-identical
traces.

Hot-path discipline (per the HPC guides: measure, then flatten): in
CPython the costs that matter at these event rates are interpreter
frames and C-heap traffic, so

* ``sim.timeout`` builds the event inline — no ``type.__call__`` →
  ``__init__`` → push chain;
* ``run`` dispatches callbacks inline — no per-event ``step`` frame;
* the queue keeps its *minimum entry* in a buffer slot (``_nbuf``)
  beside the heap, so the dominant schedule-fire-schedule rhythm of
  timeout chains never touches ``heappush``/``heappop`` (~220 ns per
  event pair measured) while preserving the exact pop order — the
  buffer always holds the global minimum, ties impossible because
  sequence numbers are unique.

Release discipline: what settles lets go by refcount, so nothing on the
data path needs CPython's cycle collector.  A timer that became moot is
*defused* in place (:meth:`Event.defuse`: queued, numbered, runs
nothing), and a finished :class:`Process` drops the bound resume
callback that was its one reference back to itself.

Every change here is guarded by the golden digest fixtures
(``tests/chaos/test_golden_digests.py``) — the total order must not
move by a single event.  The kernel is profiled by
``benchmarks/test_kernel_overhead.py``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, yielding foreign events...)."""


# Priorities: lower runs first at equal timestamps.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which its callbacks run at
    the current simulated time.  Waiting processes resume with the
    event's ``value`` (or have the failure exception thrown in).

    ``_ok`` is None exactly while the event may still be triggered:
    every queued event has it set (a :class:`Timeout`'s outcome is known
    when it is made), and a plain event sets it in ``succeed``/``fail``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run.

        ``callbacks is None`` alone also holds for a *defused* event
        that has not fired yet, so both halves are needed."""
        return self._triggered and self.callbacks is None

    def defuse(self) -> None:
        """Let a moot event go: it drops its callbacks, and everything
        they reach, but keeps its queue entry.

        A defused event is still queued, still numbered and still pops
        at its ``(time, priority, seq)``; it only runs nothing.  So the
        total order, ``events_scheduled`` and every digest are those of
        the undefused run, while the waiter the event would have woken
        (a settled quorum wait, a finished call's race) dies by refcount
        at once instead of when the event's instant arrives.  A new
        waiter revives it (see :meth:`Process._resume`)."""
        self.callbacks = None

    @property
    def ok(self) -> Optional[bool]:
        """True/False after trigger (success/failure), None before."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or the failure exception."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Inlined buffered push (hot: every event trigger).
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        entry = (sim.now, NORMAL, seq, self)
        buf = sim._nbuf
        if buf is None:
            sim._nbuf = entry
        elif entry < buf:
            heappush(sim._queue, buf)
            sim._nbuf = entry
        else:
            heappush(sim._queue, entry)
        if sim.tracer is not None:
            sim.tracer.on_schedule(self, NORMAL, sim.now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        entry = (sim.now, NORMAL, seq, self)
        buf = sim._nbuf
        if buf is None:
            sim._nbuf = entry
        elif entry < buf:
            heappush(sim._queue, buf)
            sim._nbuf = entry
        else:
            heappush(sim._queue, entry)
        if sim.tracer is not None:
            sim.tracer.on_schedule(self, NORMAL, sim.now)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` seconds in the future.

    Made only by :meth:`Simulator.timeout`, which builds it inline.  Its
    outcome is known up front (``_ok`` is set), but it only counts as
    *triggered* when its simulated instant is reached.
    """

    __slots__ = ()


# Preresolved allocator for Simulator.timeout: skips the LOAD_ATTR on
# Timeout.__new__ per call (partial dispatches straight into C).
_make_timeout = partial(Timeout.__new__, Timeout)


class _Initialize(Event):
    """Internal: kicks a new process on the next loop iteration."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._ok = True
        self.callbacks = [process._resume_cb]
        sim._push(self, URGENT, 0.0)


class Process(Event):
    """A generator-based coroutine.

    The process *is itself an event* that triggers when the generator
    returns (value = the ``return`` value) or raises (failure).  Other
    processes can therefore ``yield proc`` to join it.  A process waits
    on one event at a time, so every resume is for the event it waits on.
    """

    __slots__ = ("_generator", "_resume_cb", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The resume callback is registered on every event this process
        # ever waits on; materializing the bound method once instead of
        # per yield saves an allocation per wait.
        self._resume_cb = self._resume
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        sim = self.sim
        if event._ok:
            deliver_exc: Optional[BaseException] = None
            deliver_val = event._value
        else:
            deliver_exc = event._value
            deliver_val = None
        generator = self._generator
        resume_cb = self._resume_cb
        while True:
            try:
                if deliver_exc is None:
                    nxt = generator.send(deliver_val)
                else:
                    nxt = generator.throw(deliver_exc)
            except StopIteration as stop:
                # A finished process leaves no cycle: the bound resume
                # callback is the only reference back to it.
                self._resume_cb = None
                self.succeed(stop.value)
                return
            except BaseException as err:
                if isinstance(err, (KeyboardInterrupt, SystemExit)):
                    raise
                self._resume_cb = None
                # The traceback's head is this frame, whose locals hold
                # the process that now holds the error: start it at the
                # generator's frame instead, so no cycle is left.
                self.fail(err.with_traceback(err.__traceback__.tb_next))
                return
            # Duck-validate the yield: anything without our kernel's
            # event shape (sim + callbacks slots) — or owned by another
            # simulator — is an invalid target.  Attribute probing is
            # free on the valid path (no isinstance call); the raise is
            # only taken on misuse.
            try:
                if nxt.sim is not sim:
                    raise AttributeError
                cbs = nxt.callbacks
            except AttributeError:
                deliver_exc = SimulationError(
                    f"process {self.name!r} yielded invalid target {nxt!r}")
                deliver_val = None
                continue
            if cbs is None:
                if nxt._triggered:
                    # Already processed: resume at once with its outcome.
                    if nxt._ok:
                        deliver_exc, deliver_val = None, nxt._value
                    else:
                        deliver_exc, deliver_val = nxt._value, None
                    continue
                # Defused but not fired yet: waiting revives it.
                nxt.callbacks = cbs = []
            cbs.append(resume_cb)
            return


class _Condition(Event):
    """Base for :class:`AnyOf`/:class:`AllOf` fan-in events.

    Child outcomes are collected *incrementally*: each ok child is
    recorded by its own ``_check`` callback, so deciding never rescans
    the full child tuple.  The decide-time semantics of the original
    full scan (any child that had *triggered* by then is included, even
    if its callbacks had not run yet) are preserved by topping the
    incremental dict up with still-unrecorded triggered children.
    """

    __slots__ = ("events", "_count", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        self._values: dict[Event, Any] = {}
        if not self.events:
            self.succeed(self._values)
            return
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is not None:
                cbs.append(self._check)
            elif ev._triggered:
                self._check(ev)
                if self._triggered:
                    break
            else:
                # Defused but not fired yet: waiting revives it.
                ev.callbacks = [self._check]

    def _collect(self) -> dict:
        """Outcomes of all triggered-and-successful child events so far."""
        values = self._values
        for ev in self.events:
            if ev._triggered and ev._ok and ev not in values:
                values[ev] = ev._value
        return values

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as one child event triggers.

    A failing child fails the condition.  Value is a dict of the
    triggered children's values (there may be more than one if several
    trigger at the same timestamp before callbacks run).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self._values[event] = event._value
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every child event has triggered.

    A failing child fails the condition immediately.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._values[event] = event._value
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class Simulator:
    """The deterministic event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"

    Attach observation hooks (``tracer``) while the loop is idle — the
    run loops latch the no-tracer fast path per ``run()`` call.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # The pending-event queue: a binary heap of (time, priority,
        # seq, event) tuples PLUS the buffer slot `_nbuf`, which holds
        # the entry that would be at the heap top (or None).  Pushes
        # land in the buffer when they beat it; pops prefer it.  The
        # schedule-fire-schedule rhythm of timeout chains then runs
        # entirely through the slot, skipping both heap operations.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._nbuf: Optional[tuple[float, int, int, Event]] = None
        self._seq = 0
        # Opt-in observation hook (repro.analysis.hazards).  When set,
        # the kernel reports every schedule and step; the plain path
        # pays one ``is None`` check per operation.
        self.tracer: Optional[Any] = None

    @property
    def events_scheduled(self) -> int:
        """Total events pushed through the queue (perf accounting)."""
        return self._seq

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        This is the kernel's hottest allocation and the only way to
        make a :class:`Timeout`; the object is built and enqueued inline
        (no ``type.__call__`` → ``__init__`` → push chain, no heap
        traffic when the buffer slot is free) — worth ~35% kernel
        throughput combined.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        t: Timeout = _make_timeout()
        t.sim = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._triggered = False
        self._seq = seq = self._seq + 1
        when = self.now + delay
        entry = (when, NORMAL, seq, t)
        buf = self._nbuf
        if buf is None:
            self._nbuf = entry
        elif entry < buf:
            heappush(self._queue, buf)
            self._nbuf = entry
        else:
            heappush(self._queue, entry)
        if self.tracer is not None:
            self.tracer.on_schedule(t, NORMAL, when)
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name)

    # -- scheduling ----------------------------------------------------------
    def _push(self, event: Event, priority: int, delay: float) -> None:
        """Enqueue ``event`` (its ``_ok`` already set) ``delay`` out."""
        self._seq = seq = self._seq + 1
        when = self.now + delay
        entry = (when, priority, seq, event)
        buf = self._nbuf
        if buf is None:
            self._nbuf = entry
        elif entry < buf:
            heappush(self._queue, buf)
            self._nbuf = entry
        else:
            heappush(self._queue, entry)
        if self.tracer is not None:
            self.tracer.on_schedule(event, priority, when)

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` without spawning a process."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- execution -------------------------------------------------------------
    def _pop(self) -> tuple[float, int, int, Event]:
        """Take the next entry (buffer slot first).  IndexError when empty."""
        buf = self._nbuf
        queue = self._queue
        if buf is not None:
            if queue and queue[0] < buf:
                return heappop(queue)
            self._nbuf = None
            return buf
        return heappop(queue)

    def step(self) -> None:
        """Process the single next event.  Raises IndexError when empty."""
        when, prio, _seq, event = self._pop()
        self.now = when
        event._triggered = True
        tracer = self.tracer
        if tracer is not None:
            tracer.on_step(event, when, prio)
        callbacks = event.callbacks
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
        if event._ok is False and not callbacks and not isinstance(event, Process):
            # A failed event nobody waited for: surface the error loudly
            # instead of losing it (mirrors SimPy semantics).
            raise event._value

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        buf = self._nbuf
        if buf is not None:
            return buf[0] if not self._queue or buf < self._queue[0] \
                else self._queue[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the loop.

        * ``until=None`` — run until the queue drains.
        * ``until=<float>`` — run until simulated time reaches it.
        * ``until=<Event>`` — run until that event is processed and
          return its value (re-raising on failure).

        The no-tracer paths below inline :meth:`step` (pop, clock
        advance, callback dispatch): the per-event method indirection
        costs ~15% of kernel throughput at these event rates.
        """
        if self.tracer is not None:
            return self._run_traced(until)
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None or not stop._triggered:
                buf = self._nbuf
                if buf is not None:
                    if queue and queue[0] < buf:
                        entry = heappop(queue)
                    else:
                        self._nbuf = None
                        entry = buf
                elif queue:
                    entry = heappop(queue)
                else:
                    raise SimulationError(
                        "simulation ran dry before the awaited event triggered")
                event = entry[3]
                self.now = entry[0]
                event._triggered = True
                callbacks = event.callbacks
                if callbacks is None:
                    continue
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if event._ok is False and not callbacks and not isinstance(event, Process):
                    raise event._value
            if stop._ok:
                return stop._value
            raise stop._value
        if until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError("cannot run into the past")
            while True:
                buf = self._nbuf
                if buf is not None and (not queue or buf < queue[0]):
                    if buf[0] > horizon:
                        break
                    self._nbuf = None
                    entry = buf
                elif queue:
                    if queue[0][0] > horizon:
                        break
                    entry = heappop(queue)
                else:
                    break
                event = entry[3]
                self.now = entry[0]
                event._triggered = True
                callbacks = event.callbacks
                if callbacks is None:
                    continue
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if event._ok is False and not callbacks and not isinstance(event, Process):
                    raise event._value
            self.now = horizon
            return None
        while True:
            buf = self._nbuf
            if buf is not None:
                if queue and queue[0] < buf:
                    entry = heappop(queue)
                else:
                    self._nbuf = None
                    entry = buf
            elif queue:
                entry = heappop(queue)
            else:
                return None
            event = entry[3]
            self.now = entry[0]
            event._triggered = True
            callbacks = event.callbacks
            if callbacks is None:
                continue
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
            if event._ok is False and not callbacks and not isinstance(event, Process):
                raise event._value

    def _run_traced(self, until: Optional[float | Event]) -> Any:
        """The observed run loop: one ``step()`` frame per event so the
        tracer sees every schedule/step/step-done transition."""
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None or not stop._triggered:
                if self._nbuf is None and not self._queue:
                    raise SimulationError(
                        "simulation ran dry before the awaited event triggered")
                self.step()
            if stop._ok:
                return stop._value
            raise stop._value
        if until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError("cannot run into the past")
            while self.peek() <= horizon:
                self.step()
            self.now = horizon
            return None
        while self._nbuf is not None or self._queue:
            self.step()
        return None
