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
* :class:`Quiet` — an event whose failure may go unwatched (RPC calls
  and quorum waits, made by ``sim.quiet_event``).
* :class:`Deadline` — a cancellable callback reserved ``delay`` out by
  ``sim.deadline``: the timeout/refuse failure detector's timers, which
  almost never fire.
* :class:`Process` — a generator-based coroutine driven by the loop.
* :class:`AnyOf` / :class:`AllOf` — condition events for fan-in waits
  (a lock waiter's watch-or-timer race, joins).
* :class:`Simulator` — the event loop itself.

Determinism: event ordering is a strict ``(time, priority, sequence)``
total order, so two runs with the same seed produce byte-identical
traces.  Equal ``(time, priority)`` entries run in the order they were
queued, one legal execution of many; ``Simulator(tie_seed=k)`` runs
another: the four sites that queue an entry (``Event.succeed``,
``sim.timeout``, ``_push``, ``sim.deadline``) put a seeded hash above
the sequence number (``_tie_key``), and nothing else changes.

Hot-path discipline (per the HPC guides: measure, then flatten): in
CPython the costs that matter at these event rates are interpreter
frames and C-heap traffic, so

* ``sim.timeout`` builds the event inline — no ``type.__call__`` →
  ``__init__`` → push chain — and it and ``Event.succeed`` push
  inline; every colder push goes through ``_push``/``_enqueue``;
* ``run`` is one loop for all three stop modes, and the only code that
  pops the queue: it dispatches callbacks inline (no per-event frame)
  and reaches the tracer's hooks from the same loop, so an observed
  run pays two hook calls per event and nothing more;
* the queue keeps its *minimum entry* in a buffer slot (``_nbuf``)
  beside the heap, so the dominant schedule-fire-schedule rhythm of
  timeout chains never touches ``heappush``/``heappop`` (~220 ns per
  event pair measured) while preserving the exact pop order — the
  buffer always holds the global minimum, ties impossible because
  sequence numbers are unique.

Release discipline: what settles lets go by refcount, so nothing on the
data path needs CPython's cycle collector, and what never fires stays
off the heap.  A request deadline is a :class:`Deadline`: its
reservation takes a sequence number like any event, but only the head
of its per-delay FIFO sits in the queue, and ``cancel()`` drops its
callback at once.  A steady request loop therefore keeps the queue at
O(in-flight) entries instead of one defused timer per request in the
last timeout.  A moot *event* (a reply that lost to its deadline) is
*defused* in place (:meth:`Event.defuse`: it drops its callbacks, and
if queued still pops, numbered, running nothing), and a finished
:class:`Process` drops the bound resume callback that was its one
reference back to itself.

Every change here is guarded by the golden digest fixtures
(``tests/chaos/test_golden_digests.py``) — the total order must not
move by a single event.  The kernel is profiled by
``benchmarks/test_kernel_overhead.py``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Quiet",
    "Deadline",
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

_M64 = (1 << 64) - 1


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
        # Inlined buffered push: every reply and wake-up triggers one,
        # and through ``_push`` a succeed-driven loop ran ~15 % fewer
        # events/s (best of 15 alternated rounds, CPython 3.11).
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if sim.tie_seed is not None:
            seq = sim._tie_key(seq, sim.tie_seed)
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
        self.sim._push(self, NORMAL, 0.0)
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


class Quiet(Event):
    """An event whose outcome is observable, never mandatory to wait
    for: it may fail with nobody waiting without tripping the kernel's
    unhandled-failure alarm.  RPC calls and quorum waits are quiet — a
    fire-and-forget call refused by its peer, or a wait whose waiter
    went away, is not an error.  Made by :meth:`Simulator.quiet_event`.
    """

    __slots__ = ()


class Deadline:
    """A callback reserved for ``(now + delay, NORMAL, seq)`` by
    :meth:`Simulator.deadline`, most likely to be cancelled.

    The reservation takes its sequence number at once, so the total
    order and ``events_scheduled`` are those of an eager timer, but the
    entry waits in its delay's FIFO (:class:`_DeadlineLine`) and only
    the FIFO's head sits in the queue.  :meth:`cancel` drops the
    callback, and everything it reaches, at once; a cancelled head
    still pops at its instant, runs nothing, does not move the clock,
    and queues the next live entry of its FIFO.

    Not an :class:`Event`: nothing can wait on a deadline.  The run
    loop only needs the three slots it touches on every entry.
    """

    __slots__ = ("fn", "callbacks", "_ok", "_triggered", "_line")

    def cancel(self) -> None:
        """Drop the callback; a fired or cancelled deadline ignores it."""
        if self.fn is None:
            return
        self.fn = None
        self.callbacks = None
        tracer = self._line.sim.tracer
        if tracer is not None:
            tracer.on_drop(self)


class _DeadlineLine:
    """The reservations of one delay, in ``(time, seq)`` order.

    Both ``now`` and ``seq`` only grow, so appending keeps a per-delay
    FIFO sorted.  While the FIFO is not empty its head is queued with
    the tuple it was reserved for; when the head pops, the next live
    entry is queued, and cancelled ones met on the way are let go.
    Since only the head is queued, same-instant reservations of one
    delay fire in reservation order under any tie seed.
    """

    __slots__ = ("sim", "fifo", "fire")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.fifo: deque[tuple[float, int, int, Deadline]] = deque()
        #: The callbacks list of a live queued head (shared: the run
        #: loop never mutates an event's list).
        self.fire = [self._fire]

    def _fire(self, head: Deadline) -> None:
        """A live head popped: queue the next entry, run the callback."""
        self.skip()
        fn = head.fn
        head.fn = None
        fn(head)

    def skip(self) -> None:
        """The head popped: queue the next live entry."""
        fifo = self.fifo
        fifo.popleft()
        while fifo:
            entry = fifo[0]
            if entry[3].fn is not None:
                entry[3].callbacks = self.fire
                self.sim._enqueue(entry)
                return
            fifo.popleft()


# Preresolved allocators for the factories below: skip the LOAD_ATTR on
# __new__ per call (partial dispatches straight into C).
_make_timeout = partial(Timeout.__new__, Timeout)
_make_event = partial(Event.__new__, Event)
_make_quiet = partial(Quiet.__new__, Quiet)
_make_deadline = partial(Deadline.__new__, Deadline)


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


# Events whose failure nobody has to wait for (the unhandled-failure
# alarm skips them): a process is joined at will, a quiet event watched
# at will.
_UNWATCHED = (Process, Quiet)


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

    Attach observation hooks (``tracer``) while the loop is idle —
    ``run()`` latches it once per call.  ``tie_seed`` picks the order
    of equal ``(time, priority)`` entries; None runs them in ``seq``
    order.
    """

    def __init__(self, tie_seed: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.tie_seed = tie_seed
        # The pending-event queue: a binary heap of (time, priority,
        # seq, event) tuples PLUS the buffer slot `_nbuf`, which holds
        # the entry that would be at the heap top (or None).  Pushes
        # land in the buffer when they beat it; pops prefer it.  The
        # schedule-fire-schedule rhythm of timeout chains then runs
        # entirely through the slot, skipping both heap operations.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._nbuf: Optional[tuple[float, int, int, Event]] = None
        self._seq = 0
        # Sequence numbers taken by watch_timeout: left out of the tie
        # keys, so a watched run's entries keep their unwatched keys.
        self._watched = 0
        # delay -> the FIFO of its deadline reservations (Deadline).
        self._lines: dict[float, _DeadlineLine] = {}
        # Opt-in observation hook (repro.obs.trace's span tracer).
        # When set, the kernel reports every schedule, step and dropped
        # deadline; the plain path pays one ``is None`` check per
        # operation.
        self.tracer: Optional[Any] = None

    @property
    def events_scheduled(self) -> int:
        """Sequence numbers taken (perf accounting): every event
        queued, and every deadline reserved, cancelled or not."""
        return self._seq

    def _tie_key(self, seq: int, tie_seed: int) -> int:
        """``seq``'s queue key under ``tie_seed``: a splitmix64 hash of
        (unwatched number, tie seed) above ``seq`` in the low 40 bits.
        Keys stay unique, and only equal ``(time, priority)`` entries
        ever compare them, so ties pop in hash order.  An entry can tie
        only with entries already queued, never with its scheduler."""
        z = ((seq - self._watched) * 0x9E3779B97F4A7C15
             + tie_seed * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) << 40 | seq

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, built inline like :meth:`timeout`."""
        ev: Event = _make_event()
        ev.sim = self
        ev.callbacks = []
        ev._value = None
        ev._ok = None
        ev._triggered = False
        return ev

    def quiet_event(self) -> Quiet:
        """A fresh pending :class:`Quiet` event."""
        ev: Quiet = _make_quiet()
        ev.sim = self
        ev.callbacks = []
        ev._value = None
        ev._ok = None
        ev._triggered = False
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        This is the kernel's hottest allocation and the only way to
        make a :class:`Timeout`; the object is built and enqueued inline
        (no ``type.__call__`` → ``__init__`` → push chain, no heap
        traffic when the buffer slot is free) — worth ~35% kernel
        throughput combined; the push alone, through ``_push``, cost a
        timeout-chain ticker ~12 % of its events/s (best of 15
        alternated rounds, CPython 3.11).
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
        if self.tie_seed is not None:
            seq = self._tie_key(seq, self.tie_seed)
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

    def watch_timeout(self, delay: float) -> Timeout:
        """:meth:`timeout` for code that only watches the run (the obs
        sampler).  It is numbered and ordered like any timeout, but its
        number is left out of the tie keys of later entries, so a
        watched run under a tie seed is the unwatched run."""
        t = self.timeout(delay)
        self._watched += 1
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name)

    # -- scheduling ----------------------------------------------------------
    def _push(self, event: Event, priority: int, delay: float) -> None:
        """Enqueue ``event`` (its ``_ok`` already set) ``delay`` out."""
        self._seq = seq = self._seq + 1
        if self.tie_seed is not None:
            seq = self._tie_key(seq, self.tie_seed)
        when = self.now + delay
        self._enqueue((when, priority, seq, event))
        if self.tracer is not None:
            self.tracer.on_schedule(event, priority, when)

    def _enqueue(self, entry: tuple[float, int, int, Any]) -> None:
        """Queue an entry that already holds its sequence number."""
        buf = self._nbuf
        if buf is None:
            self._nbuf = entry
        elif entry < buf:
            heappush(self._queue, buf)
            self._nbuf = entry
        else:
            heappush(self._queue, entry)

    def deadline(self, delay: float,
                 fn: Callable[[Deadline], None]) -> Deadline:
        """Run ``fn(deadline)`` ``delay`` seconds from now unless the
        returned :class:`Deadline` is cancelled first.

        Ordered exactly like ``sim.timeout(delay)`` with ``fn`` as its
        callback: the reservation is numbered now and counts in
        ``events_scheduled``.  Unlike that timer, a cancelled deadline
        holds nothing and, unless it heads its delay's FIFO, never
        reaches the queue.  Meant for a few fixed delays (request
        timeouts): each distinct ``delay`` keeps a FIFO.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        d: Deadline = _make_deadline()
        d.fn = fn
        d.callbacks = None
        d._ok = True
        d._triggered = False
        line = self._lines.get(delay)
        if line is None:
            line = self._lines[delay] = _DeadlineLine(self)
        d._line = line
        self._seq = seq = self._seq + 1
        if self.tie_seed is not None:
            seq = self._tie_key(seq, self.tie_seed)
        when = self.now + delay
        entry = (when, NORMAL, seq, d)
        fifo = line.fifo
        fifo.append(entry)
        if len(fifo) == 1:
            d.callbacks = line.fire
            self._enqueue(entry)
        if self.tracer is not None:
            self.tracer.on_schedule(d, NORMAL, when)
        return d

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` without spawning a process."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- execution -------------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the loop; the only code that takes entries off the queue.

        * ``until=None`` — run until the queue drains.
        * ``until=<float>`` — run until simulated time reaches it; the
          clock ends there.
        * ``until=<Event>`` — run until that event is processed and
          return its value (re-raising on failure); running dry first
          raises.

        A popped cancelled :class:`Deadline` head queues its FIFO's next
        live entry and is otherwise unseen: no step, no clock move (the
        tracer saw it dropped when it was cancelled).  A defused event
        is a numbered step that runs nothing.  A failure nobody waited
        for is raised once its step is done.  ``tracer`` is latched per
        call: attach it while the loop is idle.
        """
        stop: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError("cannot run into the past")
        tracer = self.tracer
        queue = self._queue
        while stop is None or stop.callbacks is not None or not stop._triggered:
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
            elif stop is None:
                break
            else:
                raise SimulationError(
                    "simulation ran dry before the awaited event triggered")
            event = entry[3]
            callbacks = event.callbacks
            if callbacks is None and type(event) is Deadline:
                event._line.skip()  # cancelled: no step, no clock move
                continue
            self.now = entry[0]
            event._triggered = True
            if tracer is None:
                if callbacks is None:
                    continue  # defused: queued and numbered, runs nothing
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
            else:
                tracer.on_step(event, entry[0], entry[1])
                try:
                    if callbacks is None:
                        continue  # defused; ``finally`` reports it done
                    event.callbacks = None
                    for cb in callbacks:
                        cb(event)
                finally:
                    tracer.on_step_done(event)
            if event._ok is False and not callbacks and not isinstance(event, _UNWATCHED):
                # A failed event nobody waited for: surface the error
                # loudly instead of losing it (mirrors SimPy semantics).
                raise event._value
        if stop is not None:
            if stop._ok:
                return stop._value
            raise stop._value
        if until is not None:
            self.now = horizon
        return None
