"""Request/response RPC over the simulated transport.

Sedna's protocol messages (replica writes, quorum reads, ZooKeeper
calls, heartbeats) are all request/response with timeouts.  This layer
provides:

* :class:`RpcNode` — owns an endpoint, registers named handlers, and
  issues requests: :meth:`~RpcNode.call` (with a timeout),
  :meth:`~RpcNode.call_retry`, :meth:`~RpcNode.call_async` (an event,
  no deadline) and one-way :meth:`~RpcNode.notify`.
* :class:`QuorumWait` — the N-way fan-in over ``call_async`` events;
  a process waits with ``oks, fails = yield wait.done``.
* :class:`RpcError` / :class:`RpcTimeout` / :class:`RpcRejected` —
  the failure vocabulary the paper uses ("timeout", "refuse").

Handlers may answer synchronously (return a value), raise
:class:`RpcRejected` (mapped to a ``refuse`` response), or return a
:class:`~repro.net.simulator.Event` for deferred completion.

The three envelopes have a fixed skeleton, so their wire size is a
constant plus the one string and the one body that vary; the constants
below come from :func:`~repro.net.transport.estimate_size` itself, and
a caller fanning one ``args`` object out to several peers sizes it once
(``args_size``); :meth:`~RpcNode.notify` takes a known ``body_size``
the same way.  A handler that knows its reply's size returns it wrapped
in :class:`Sized` (directly, or as the value of its deferred event),
and the reply is sent without walking it again.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .simulator import Deadline, Event, Simulator, Timeout
from .transport import Message, Network, estimate_size

__all__ = ["RpcError", "RpcTimeout", "RpcRejected", "LateRegistrationError",
           "RpcNode", "QuorumWait", "Sized", "unsized"]


class RpcError(Exception):
    """Base class for RPC failures."""


class LateRegistrationError(RuntimeError):
    """A *new* method was registered after the endpoint served traffic.

    The wire surface of a node must be complete before the first
    request is dispatched; otherwise whether a request lands on a
    handler or a ``no-such-method`` refusal depends on delivery order.
    Swapping the handler of an already-registered method stays legal
    (fault injection and tracing wrappers patch the dispatch table).
    """


class RpcTimeout(RpcError):
    """The call did not complete within its timeout (node dead or slow)."""


class RpcRejected(RpcError):
    """The remote node answered ``refuse`` (paper §III.C).

    ``reason`` carries the remote's explanation, e.g. ``"not-owner"``
    after a rebalance moved a virtual node away.
    """

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason)
        self.reason = reason


_REQ = "req"
_RESP = "resp"
_NOTIFY = "notify"

# Envelope sizes with the varying parts empty (an empty string sizes to
# 0).  The real envelope adds len(method | status) and the body sized at
# depth 1, where it sits inside the envelope dict.
_REQ_BASE = estimate_size(
    {"kind": _REQ, "id": 0, "method": "", "args": ""})
_RESP_BASE = estimate_size(
    {"kind": _RESP, "id": 0, "status": "", "result": ""})
_NOTIFY_BASE = estimate_size({"kind": _NOTIFY, "body": ""})


class Sized:
    """A handler's reply together with ``estimate_size(value, 1)`` — the
    reply sized where it sits, one level inside the response envelope —
    worked out by a handler that knows the reply's shape.  Only the
    value goes on the wire; the size is trusted as given, which
    ``tests/net/test_size_model.py`` checks message by message."""

    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int) -> None:
        self.value = value
        self.size = size


def unsized(result: Any) -> Any:
    """A handler's reply without its :class:`Sized` wrapper, if any."""
    return result.value if type(result) is Sized else result


class _Race(Event):
    """What :meth:`RpcNode.call` waits on: settled by the call's reply
    or by its deadline, whichever comes first.

    Numbered like an ``AnyOf(reply, sim.timeout(timeout))`` race
    (``tests/net/reference_call.py``): the deadline takes the number
    the timer would, and the race's ``succeed``/``fail`` the number the
    ``AnyOf``'s would.  A reply triggered but not yet stepped when the
    deadline fires still wins: the caller looks at the reply, not at
    what settled the race.
    """

    __slots__ = ("deadline",)

    def on_reply(self, reply: Event) -> None:
        if self._ok is not None:
            return  # the deadline settled the race first
        self.deadline.cancel()
        if reply._ok:
            self.succeed(reply._value)
        else:
            self.fail(reply._value)

    def on_deadline(self, _deadline: Deadline) -> None:
        self.succeed()


class RpcNode:
    """An endpoint that speaks request/response.

    Parameters
    ----------
    network:
        The simulated :class:`~repro.net.transport.Network`.
    name:
        Endpoint name (globally unique).
    service_time:
        Seconds of simulated CPU charged before each handler runs,
        modelling request decode/dispatch (paper testbed calibration).
    """

    def __init__(self, network: Network, name: str,
                 service_time: float = 0.0) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.name = name
        self.endpoint = network.endpoint(name, self._on_message)
        self.service_time = service_time
        self._busy_until = 0.0
        self._handlers: dict[str, Callable[[str, Any], Any]] = {}
        self._served = False
        self._notify_handler: Optional[Callable[[str, Any], None]] = None
        self._pending: dict[int, Event] = {}
        self._last_id = 0
        # Stats
        self.calls_issued = 0
        self.calls_timed_out = 0
        self.requests_served = 0

    # -- server side ------------------------------------------------------
    def register(self, method: str, handler: Callable[[str, Any], Any]) -> None:
        """Register ``handler(src_name, args)`` for ``method`` requests.

        Raises :class:`LateRegistrationError` when ``method`` is new
        and the endpoint has already served a request; see that class
        for the rationale.
        """
        if self._served and method not in self._handlers:
            raise LateRegistrationError(
                f"{self.name}: method {method!r} registered after the "
                f"endpoint served traffic")
        self._handlers[method] = handler

    def _on_message(self, msg: Message) -> None:
        payload = msg.payload
        kind = payload.get("kind")
        if kind == _REQ:
            self._served = True
            service_time = self.service_time
            if service_time > 0.0:
                # Single service queue: concurrent requests line up
                # (this is what makes the paper's Fig. 8 multi-client
                # contention reproducible — servers have finite CPU).
                # The message rides the queue timeout, whose callback
                # serves it.
                sim = self.sim
                now = sim.now
                busy = self._busy_until
                self._busy_until = busy = (
                    busy if busy > now else now) + service_time
                sim.timeout(busy - now, msg).callbacks.append(self._execute)
            else:
                self._execute(msg)
        elif kind == _RESP:
            ev = self._pending.pop(payload["id"], None)
            if ev is not None and not ev._triggered:
                if payload["status"] == "ok":
                    ev.succeed(payload["result"])
                else:
                    ev.fail(RpcRejected(payload.get("result", "")))
        elif kind == _NOTIFY:
            if self._notify_handler is not None:
                self._notify_handler(msg.src, payload["body"])

    def _execute(self, step: Any) -> None:
        """Serve one request: ``step`` is the service-queue timeout
        carrying its message, or the message itself when the node has
        no service time."""
        msg: Message = step._value if type(step) is Timeout else step
        payload = msg.payload
        method = payload["method"]
        # Dispatch-table lookup happens here, at execution time, not
        # at delivery: with a service queue, resolving the handler
        # early would freeze a snapshot of the table and make the
        # two paths (queued vs immediate) observably different.
        handler = self._handlers.get(method)
        span = None
        tracer = self.network.tracer
        if msg.trace is not None and tracer is not None:
            # Serve under the caller's span, whatever this request
            # waited behind in the service queue.
            span = tracer.begin(f"rpc.{method}", node=self.name,
                                ctx=msg.trace)
            if span is not None:
                # The serve span opens *after* the service queue;
                # the wait is tagged so the critical-path analyzer
                # (repro.obs.critical) can attribute queue time
                # separately from network flight.  Tags are local
                # span state, never serialized onto the wire.
                queued = self.sim.now - msg.delivered_at
                if queued > 0.0:
                    span.tags["queue"] = round(queued, 9)
        self.requests_served += 1
        if handler is None:
            self._respond(msg, span, "refuse", f"no-such-method:{method}")
            return
        try:
            result = handler(msg.src, payload["args"])
        except RpcRejected as rej:
            self._respond(msg, span, "refuse", rej.reason)
            return
        if isinstance(result, Event):
            # Deferred completion: the one place a request needs a
            # closure, to carry (msg, span) to the event's outcome.
            def finish(ev: Event) -> None:
                if ev._ok:
                    self._respond(msg, span, "ok", ev._value)
                else:
                    exc = ev._value
                    self._respond(
                        msg, span, "refuse",
                        exc.reason if isinstance(exc, RpcRejected) else repr(exc))
            if result.callbacks is None:
                finish(result)
            else:
                result.callbacks.append(finish)
        else:
            self._respond(msg, span, "ok", result)

    def _respond(self, msg: Message, span: Any, status: str,
                 result: Any) -> None:
        tracer = self.network.tracer
        if span is not None and tracer is not None:
            tracer.finish(span, status=status)
        endpoint = self.endpoint
        if not endpoint.up:
            return
        if type(result) is Sized:
            size = result.size
            result = result.value
        else:
            size = estimate_size(result, 1)
        self.network._transmit(
            endpoint, msg.src,
            {"kind": _RESP, "id": msg.payload["id"],
             "status": status, "result": result},
            _RESP_BASE + len(status) + size)

    # -- one-way notifications ---------------------------------------------
    def on_notify(self, handler: Callable[[str, Any], None]) -> None:
        """Install ``handler(src, body)`` for one-way notifications."""
        self._notify_handler = handler

    def notify(self, dst: str, body: Any,
               body_size: Optional[int] = None) -> None:
        """Fire-and-forget message (watch events, heartbeats);
        ``body_size`` is as ``args_size`` for :meth:`call_async`."""
        endpoint = self.endpoint
        if not endpoint.up:
            return
        if body_size is None:
            body_size = estimate_size(body, 1)
        self.network._transmit(endpoint, dst, {"kind": _NOTIFY, "body": body},
                               _NOTIFY_BASE + body_size)

    # -- client side --------------------------------------------------------
    def _issue(self, dst: str, method: str, args: Any,
               args_size: Optional[int] = None) -> tuple[Event, int]:
        """Send a request; return the completion event and its call id.

        Handing the id back to the caller lets :meth:`call` forget a
        timed-out call with one ``_pending`` pop — the previous design
        kept a reverse event→id dict updated on every issue and reply.

        A down endpoint raises before anything is allocated or counted.
        The completion event is :class:`~repro.net.simulator.Quiet`:
        RPC outcomes are observable, never mandatory to wait for, so a
        fire-and-forget call refused by its peer is not an error.
        """
        endpoint = self.endpoint
        if not endpoint.up:
            raise RuntimeError(f"endpoint {self.name} is down")
        if args_size is None:
            args_size = estimate_size(args, 1)
        self._last_id = call_id = self._last_id + 1
        ev = self.sim.quiet_event()
        self._pending[call_id] = ev
        self.calls_issued += 1
        self.network._transmit(
            endpoint, dst,
            {"kind": _REQ, "id": call_id, "method": method, "args": args},
            _REQ_BASE + len(method) + args_size)
        return ev, call_id

    def call_async(self, dst: str, method: str, args: Any,
                   args_size: Optional[int] = None) -> Event:
        """Issue a request; returns an event with the result.

        The event *fails* with :class:`RpcRejected` on refuse.  It never
        times out by itself — combine with :meth:`call` or a timeout
        race for deadline semantics.

        ``args_size`` is ``estimate_size(args, 1)`` — ``args`` sized
        where it sits, one level inside the request envelope — from a
        caller that sends the same ``args`` to several peers.
        """
        return self._issue(dst, method, args, args_size)[0]

    def call(self, dst: str, method: str, args: Any, timeout: float,
             args_size: Optional[int] = None) -> Generator[Event, Any, Any]:
        """Process helper: ``result = yield from node.call(...)``.

        Raises :class:`RpcTimeout` when no response arrives in
        ``timeout`` seconds and :class:`RpcRejected` on refuse.
        ``args_size`` is as for :meth:`call_async`.

        The reply cancels the call's
        :class:`~repro.net.simulator.Deadline`, so an answered call
        leaves nothing queued.  Callers pass one of a few constant
        timeouts: each keeps one deadline FIFO.
        """
        ev, call_id = self._issue(dst, method, args, args_size)
        race = _Race(self.sim)
        race.deadline = self.sim.deadline(timeout, race.on_deadline)
        ev.callbacks.append(race.on_reply)
        try:
            yield race
            if not ev._triggered:
                # Timed out: forget the pending call so a late reply is
                # ignored.
                self.calls_timed_out += 1
                self._pending.pop(call_id, None)
                ev.defuse()
                raise RpcTimeout(f"{method} to {dst} after {timeout}s")
            if ev._ok:
                return ev._value
            raise ev._value
        except RpcRejected:
            # A refusal, held by the reply and the race.  Its traceback
            # holds this frame, so the frame lets go of both: no cycle
            # is left behind.
            ev = race = None
            raise

    def call_retry(self, dst: str, method: str, args: Any,
                   timeout: float, attempts: int = 2) -> Generator[Event, Any, Any]:
        """:meth:`call` with bounded retries on timeout/refusal.

        Used by best-effort side channels (migration write forwarding,
        chunk pulls) where one transient drop should not abort a whole
        protocol round.  A retry goes out as soon as the previous try
        failed; the last failure is re-raised so callers still see the
        terminal outcome.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        last: Optional[RpcError] = None
        for _ in range(attempts):
            try:
                result = yield from self.call(dst, method, args,
                                              timeout=timeout)
            except (RpcTimeout, RpcRejected) as err:
                last = err
                continue
            return result
        assert last is not None
        raise last


class QuorumWait:
    """Callback-driven quorum fan-in: count completions, never rescan.

    This is the primitive behind Sedna's R/W quorum fan-out: requests
    are issued to all N replicas in parallel and the coordinator returns
    as soon as the quorum is met (§III.C).  Each call's completion runs
    one O(1) callback; the old pattern (re-scan every pending call and
    allocate a fresh ``AnyOf`` tuple on every wakeup) cost O(pending)
    per event on the hot path.

    Parameters
    ----------
    calls:
        ``[(name, event), ...]`` — the in-flight replica calls with
        attribution (``name`` may be ``None`` for anonymous waits).
    needed:
        Successes required before :attr:`done` succeeds.
    timeout:
        Deadline in simulated seconds; :attr:`done` fails with
        :class:`RpcTimeout` when it passes first.
    fail_fast:
        When True (default), :attr:`done` fails with :class:`RpcError`
        as soon as too many calls failed for the quorum to ever be met.
        When False, failures only count once every call has resolved —
        the collect-the-laggards mode (gather as many late replies as
        possible until the deadline).

    Attributes
    ----------
    oks / fails:
        ``[(name, value)]`` / ``[(name, exception)]`` as recorded up to
        the instant the wait settled (late completions are not added).
    done:
        Event succeeding with ``(oks, fails)`` or failing with
        :class:`RpcTimeout` / :class:`RpcError`; a process waits with
        ``oks, fails = yield wait.done``.

    The settle is deferred by one zero-delay callback so every reply
    arriving at the *same simulated instant* as the deciding one is
    still absorbed — a quorum met at t also reports the third ack that
    landed at t, which keeps repair/ack accounting identical to a
    coordinator that drains its mailbox before deciding.

    Allocation note: a wait lives exactly as long as something can
    still act on it.  Its deadline is a
    :class:`~repro.net.simulator.Deadline`, cancelled when the wait
    arms (numbered as before, but it no longer holds the wait and
    never reaches the queue unless it heads its FIFO), so a wait whose
    replicas all answered dies by refcount the instant it settles.
    Laggard replies may still hold the wait after it settles — their
    callbacks reach it until they answer or their calls are forgotten —
    which is also why the envelope is NOT free-list pooled: recycling
    would need generation tags on every callback, and measured CPython
    allocation is cheaper than the extra indirection.  Churn is cut
    instead: every entry shares one bound reply handler that looks its
    name up by event (no per-call closure), the settle callback is a
    bound method (no lambda), and ``done`` is a quiet event (no
    observer callback).
    """

    __slots__ = ("sim", "needed", "fail_fast", "oks", "fails", "done",
                 "_outstanding", "_settled", "_armed", "_pending_exc",
                 "_deadline", "_names")

    def __init__(self, sim: Simulator, calls: Iterable[Event],
                 needed: int, timeout: float,
                 fail_fast: bool = True) -> None:
        self.sim = sim
        self.needed = needed
        self.fail_fast = fail_fast
        self.oks: list[tuple[Any, Any]] = []
        self.fails: list[tuple[Any, BaseException]] = []
        # The wait is observable, never mandatory: a wait that fails
        # before its waiter yields it (a batch read yields its per-key
        # repair waits one by one) must not trip the kernel's
        # unhandled-failure alarm.
        self.done = sim.quiet_event()
        self._settled = False
        self._armed = False
        self._pending_exc: Optional[RpcError] = None
        self._deadline: Optional[Deadline] = None
        if not isinstance(calls, list):
            calls = list(calls)
        self._outstanding = len(calls)
        #: event -> its entry's name (anonymous entries are absent);
        #: dropped at settle, so a settled wait holds no laggard event.
        self._names: Optional[dict[Event, Any]] = {}
        names = self._names
        on_reply = self._on_reply
        for name, ev in calls:
            if name is not None:
                names[ev] = name
            if ev.callbacks is None:
                on_reply(ev)
            else:
                ev.callbacks.append(on_reply)
        if not self._armed:
            self._deadline = sim.deadline(timeout, self._on_deadline)

    def _impossible(self) -> bool:
        if self.fail_fast:
            return len(self.oks) + self._outstanding < self.needed
        return self._outstanding == 0 and len(self.oks) < self.needed

    def _on_reply(self, ev: Event) -> None:
        if self._settled:
            return
        self._outstanding -= 1
        name = self._names.get(ev)
        if ev._ok:
            oks = self.oks
            oks.append((name, ev._value))
            if len(oks) >= self.needed:
                self._arm(None)
        else:
            self.fails.append((name, ev._value))
            if self._impossible():
                self._arm(RpcError(
                    f"quorum unreachable: {len(self.oks)} ok, "
                    f"{len(self.fails)} failed, needed {self.needed}"))

    def _on_deadline(self, _deadline: Deadline) -> None:
        if not self._settled:
            self._arm(RpcTimeout(
                f"quorum {self.needed} not met; {len(self.oks)} ok so far"))

    def _arm(self, exc: Optional[RpcError]) -> None:
        """Schedule the settle one zero-delay callback out, so replies
        landing at the same instant are still counted."""
        if self._armed:
            return
        self._armed = True
        self._pending_exc = exc
        if self._deadline is not None:
            # Armed, the wait ignores its deadline: cancel it, so the
            # wait dies when it settles, not request_timeout later.
            self._deadline.cancel()
        # Same scheduling as schedule_callback(0.0, ...) — one timeout,
        # one sequence number — minus the wrapper lambda.
        self.sim.timeout(0.0).callbacks.append(self._finalize)

    def _finalize(self, _ev: Event) -> None:
        if self._settled:
            return
        self._settled = True
        self._names = None
        if len(self.oks) >= self.needed:
            self.done.succeed((self.oks, self.fails))
        else:
            self.done.fail(self._pending_exc)
