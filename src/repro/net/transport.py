"""Message transport over the simulated network.

A :class:`Network` connects named endpoints.  Each endpoint is created
with the handler its messages are pushed to, under a name no other
endpoint has; ``send`` schedules delivery after the latency model's
delay and the failure injector's verdict.  Components built on top (the
RPC layer, Sedna nodes, the ZooKeeper ensemble) never talk to the
simulator directly for messaging — everything goes through here so
partitions, crashes and message drops apply uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .latency import LatencyModel, LanGigabit
from .simulator import Event, Simulator

__all__ = ["Message", "Endpoint", "Network", "estimate_size"]


def estimate_size(payload: Any, depth: int = 0) -> int:
    """Rough wire size in bytes of a message payload.

    Good enough for the bandwidth term of the latency model: strings and
    bytes count their length, numbers 8 bytes, containers add a small
    per-item framing overhead, and a container nested deeper than six
    levels counts 16 bytes per item instead of being walked.

    This is the only definition of size: the result feeds
    ``latency.delay`` and so every digest.  ``depth`` is the nesting
    level ``payload`` sits at, so a sender that already knows the size
    of an envelope's fixed part sizes only the variable part, at the
    depth it has inside the envelope (:mod:`repro.net.rpc` does), and
    the sum is exactly what sizing the whole envelope would give.  The
    walk is level by level — one ``list.extend`` per container — and
    ``tests/net/reference_size.py`` holds the item-by-item walker it
    must agree with on every payload.
    """
    total = 0
    level = [payload]
    while level:
        below: list[Any] = []
        extend = below.extend
        walk = depth <= 6
        for obj in level:
            kind = type(obj)
            if kind is str:
                # ASCII-dominated payloads: len() is the byte count.
                total += len(obj)
            elif kind is int or kind is float:
                total += 8
            elif kind is bytes:
                total += len(obj)
            elif kind is dict:
                total += 8
                if walk:
                    extend(obj)
                    extend(obj.values())
                else:
                    total += 16 * len(obj)
            elif kind is list or kind is tuple:
                total += 8
                if walk:
                    extend(obj)
                else:
                    total += 16 * len(obj)
            elif obj is None:
                total += 1
            elif kind is bool:
                total += 1
            elif isinstance(obj, (bytearray, memoryview)):
                total += len(obj)
            elif isinstance(obj, (set, frozenset)):
                total += 8
                if walk:
                    extend(obj)
            elif isinstance(obj, (int, float, str, bytes)):  # subclasses
                total += len(obj) if isinstance(obj, (str, bytes)) else 8
            else:
                d = getattr(obj, "__dict__", None)
                if d:
                    total += 16
                    below.append(d)
                else:
                    total += 32
        level = below
        depth += 1
    return total


@dataclass(slots=True)
class Message:
    """A delivered message: who sent it, to whom, and the payload.

    ``trace`` is the ``(trace_id, span_id)`` context active when the
    message was transmitted (None when tracing is off, or outside any
    request) — the one carrier of trace context between endpoints: the
    receiving :class:`~repro.net.rpc.RpcNode` re-adopts it before it
    serves a request.  It rides beside the payload and is never sized,
    so tracing cannot move a latency.
    """

    src: str
    dst: str
    payload: Any
    sent_at: float = 0.0
    delivered_at: float = 0.0
    size: int = 0
    trace: Optional[tuple[int, int]] = None


class Endpoint:
    """A named network endpoint; each delivered message is pushed to
    the handler it was made with (:meth:`Network.endpoint`).

    An endpoint can be taken *down* to simulate a crash: messages to a
    down endpoint vanish, and sends from it raise.
    """

    def __init__(self, network: "Network", name: str,
                 handler: Callable[[Message], None]) -> None:
        self.network = network
        self.name = name
        self.up = True
        self._handler = handler
        self.sent_bytes = 0

    # -- sending ------------------------------------------------------------
    def send(self, dst: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Send ``payload`` to the endpoint named ``dst``.

        ``size`` is ``estimate_size(payload)`` when the sender already
        knows it; left out, the network works it out.
        """
        if not self.up:
            raise RuntimeError(f"endpoint {self.name} is down")
        self.network._transmit(self, dst, payload, size)

    # -- lifecycle ------------------------------------------------------------
    def crash(self) -> None:
        """Take the endpoint down; in-flight and future messages are lost."""
        self.up = False

    def restart(self) -> None:
        """Bring the endpoint back up (state recovery is the owner's job)."""
        self.up = True


class Network:
    """The simulated network joining all endpoints.

    Parameters
    ----------
    sim:
        The simulation kernel.
    latency:
        The :class:`~repro.net.latency.LatencyModel`; defaults to the
        paper-calibrated gigabit LAN.
    """

    def __init__(self, sim: Simulator,
                 latency: Optional[LatencyModel] = None) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else LanGigabit()
        self.endpoints: dict[str, Endpoint] = {}
        self._filters: list[Callable[[str, str, Any], bool]] = []
        self.delivered = 0
        self.dropped = 0
        # Span tracer (repro.obs.trace.SpanTracer) when request tracing
        # is on — set once, by SednaCluster.  Messages sent inside a
        # traced context carry it (Message.trace); RPC endpoints and
        # taps read the tracer from here.
        self.tracer: Optional[Any] = None

    def endpoint(self, name: str,
                 handler: Callable[[Message], None]) -> Endpoint:
        """Create the endpoint called ``name``, pushing what it receives
        to ``handler``.  A name is taken once: a second endpoint under
        it would steal the first one's replies, so it raises.  Look an
        existing endpoint up in :attr:`endpoints`."""
        if name in self.endpoints:
            raise ValueError(f"endpoint name {name!r} is taken")
        ep = self.endpoints[name] = Endpoint(self, name, handler)
        return ep

    def add_filter(self, fn: Callable[[str, str, Any], bool]) -> None:
        """Install a drop filter ``fn(src, dst, payload) -> deliver?``.

        Used by :mod:`repro.net.failure` for partitions and loss.
        """
        self._filters.append(fn)

    def remove_filter(self, fn: Callable[[str, str, Any], bool]) -> None:
        """Remove a previously installed drop filter."""
        self._filters.remove(fn)

    def _transmit(self, src: Endpoint, dst: str, payload: Any,
                  size: Optional[int] = None) -> None:
        if size is None:
            size = estimate_size(payload)
        src.sent_bytes += size
        for flt in self._filters:
            if not flt(src.name, dst, payload):
                self.dropped += 1
                return
        target = self.endpoints.get(dst)
        if target is None or not target.up:
            self.dropped += 1
            return
        sim = self.sim
        trace = (self.tracer.current_ctx()
                 if self.tracer is not None else None)
        msg = Message(src.name, dst, payload, sim.now, 0.0, size, trace)
        # The message rides its own delivery timeout as the value: one
        # timeout and one sequence number per message, no closure.
        sim.timeout(self.latency.delay(size), msg).callbacks.append(
            self._arrive)

    def _arrive(self, timeout: Event) -> None:
        msg: Message = timeout._value
        target = self.endpoints[msg.dst]
        if not target.up:
            # Crashed while the message was in flight: lost, like one
            # sent to an endpoint already down.
            self.dropped += 1
            return
        msg.delivered_at = self.sim.now
        self.delivered += 1
        target._handler(msg)
