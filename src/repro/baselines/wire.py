"""Wire-faithful memcached: the text protocol over the simulated network.

:class:`MemcachedServer` (in :mod:`repro.baselines.memcached`) speaks
the structured RPC layer for benchmark convenience;
:class:`WireMemcachedServer` here speaks the *actual byte protocol*
through :class:`~repro.storage.protocol.ProtocolSession`, one session
per client endpoint, with responses streamed back as raw bytes.  The
matching :class:`WireMemcachedClient` builds command bytes, parses
``VALUE``/``STORED``/... replies, and tolerates arbitrary chunking.

This is the fidelity layer: anything that can drive real memcached can
conceptually drive this server, and the property test in
``tests/baselines/test_wire.py`` checks byte-level equivalence with the
direct engine.
"""

from __future__ import annotations

from typing import Optional

from ..net.latency import MEMCACHED_OP
from ..net.simulator import Event, Simulator
from ..net.transport import Message, Network
from ..storage.memstore import MemStore
from ..storage.protocol import ProtocolSession

__all__ = ["WireMemcachedServer", "WireMemcachedClient"]


class WireMemcachedServer:
    """A memcached server consuming raw byte frames.

    Each message payload is ``{"bytes": b"..."}``; the server feeds the
    sender's :class:`ProtocolSession` and returns whatever response
    bytes accumulate, after charging the per-command service time.
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 memory_limit: int = 64 << 20):
        self.sim = sim
        self.name = name
        self.store = MemStore(memory_limit=memory_limit,
                              clock=lambda: sim.now)
        self.endpoint = network.endpoint(name, self._on_message)
        self.sessions: dict[str, ProtocolSession] = {}
        self._busy_until = 0.0

    def _session_for(self, client: str) -> ProtocolSession:
        session = self.sessions.get(client)
        if session is None or session.closed:
            session = ProtocolSession(self.store)
            self.sessions[client] = session
        return session

    def _on_message(self, msg: Message) -> None:
        data = msg.payload.get("bytes", b"")
        session = self._session_for(msg.src)
        commands_before = session.commands
        response = session.feed(data)
        executed = session.commands - commands_before
        if not response and not executed:
            return

        # One service-time slot per executed command, queued.
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + MEMCACHED_OP * max(1, executed)

        def reply() -> None:
            if response and self.endpoint.up:
                self.endpoint.send(msg.src, {"bytes": response})

        self.sim.schedule_callback(self._busy_until - self.sim.now, reply)

    def crash(self) -> None:
        """Take the server down; sessions are lost."""
        self.endpoint.crash()
        self.sessions.clear()


class WireMemcachedClient:
    """A byte-protocol client for one wire server.

    Responses are reassembled from the incoming byte stream; each
    helper is a process generator returning the parsed reply.
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 server: str, timeout: float = 2.0):
        self.sim = sim
        self.name = name
        self.server = server
        self.timeout = timeout
        self.endpoint = network.endpoint(name, self._on_message)
        self._rx = b""
        self._waiter: Optional[Event] = None

    def _on_message(self, msg: Message) -> None:
        self._rx += msg.payload.get("bytes", b"")
        if self._waiter is not None and not self._waiter.triggered:
            waiter, self._waiter = self._waiter, None
            waiter.succeed(None)

    def _send(self, data: bytes) -> None:
        self.endpoint.send(self.server, {"bytes": data})

    def _read_until(self, terminators: tuple[bytes, ...]):
        """Wait until the rx buffer ends with one of ``terminators``."""
        deadline = self.sim.now + self.timeout
        while True:
            for term in terminators:
                if self._rx.endswith(term):
                    out, self._rx = self._rx, b""
                    return out
            if self.sim.now >= deadline:
                raise TimeoutError(f"no reply from {self.server}")
            waiter = self.sim.event()
            self._waiter = waiter
            timeout_ev = self.sim.timeout(max(0.0, deadline - self.sim.now))
            from ..net.simulator import AnyOf
            yield AnyOf(self.sim, (waiter, timeout_ev))
            if waiter.triggered:
                timeout_ev.defuse()
            else:
                self._waiter = None
                waiter.defuse()

    _LINE_REPLIES = (b"STORED\r\n", b"NOT_STORED\r\n", b"EXISTS\r\n",
                     b"NOT_FOUND\r\n", b"DELETED\r\n", b"TOUCHED\r\n",
                     b"OK\r\n", b"END\r\n", b"ERROR\r\n")

    def set(self, key: bytes, value: bytes, flags: int = 0,
            exptime: int = 0):
        """``set`` command; returns the reply line (e.g. b"STORED")."""
        self._send(b"set %s %d %d %d\r\n%s\r\n"
                   % (key, flags, exptime, len(value), value))
        reply = yield from self._read_until(self._LINE_REPLIES)
        return reply.strip()

    def get(self, key: bytes):
        """``get``; returns the value bytes or None on miss."""
        self._send(b"get %s\r\n" % key)
        reply = yield from self._read_until((b"END\r\n",))
        if reply == b"END\r\n":
            return None
        header, rest = reply.split(b"\r\n", 1)
        _value, _key, _flags, nbytes = header.split(b" ")
        return rest[:int(nbytes)]

    def delete(self, key: bytes):
        """``delete``; returns the reply line."""
        self._send(b"delete %s\r\n" % key)
        reply = yield from self._read_until(self._LINE_REPLIES)
        return reply.strip()

    def incr(self, key: bytes, delta: int = 1):
        """``incr``; returns the new value or None when missing."""
        self._send(b"incr %s %d\r\n" % (key, delta))
        reply = yield from self._read_until((b"\r\n",))
        reply = reply.strip()
        if reply == b"NOT_FOUND":
            return None
        return int(reply)

    def stats(self):
        """``stats``; returns the stat dict."""
        self._send(b"stats\r\n")
        reply = yield from self._read_until((b"END\r\n",))
        out = {}
        for line in reply.split(b"\r\n"):
            if line.startswith(b"STAT "):
                _stat, name, value = line.split(b" ", 2)
                out[name.decode()] = value.decode()
        return out

    def raw(self, data: bytes, terminators: tuple[bytes, ...] = None):
        """Send raw bytes; wait for a terminator (protocol testing)."""
        self._send(data)
        reply = yield from self._read_until(
            terminators or self._LINE_REPLIES + (b"\r\n",))
        return reply
