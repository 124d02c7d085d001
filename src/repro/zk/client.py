"""ZooKeeper client: sessions, retries, watches.

The client connects to one ensemble member, keeps its session alive
with pings, and transparently rotates to another member when its server
stops answering — exactly what a Sedna real node does with its
ZooKeeper handle (§III.D).

All blocking operations are process helpers: call them with
``yield from`` inside a simulation process, e.g.::

    def boot(zk):
        yield from zk.connect()
        yield from zk.create("/sedna", b"")
        data, stat = yield from zk.get("/sedna")
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..net.rpc import RpcNode, RpcRejected, RpcTimeout
from ..net.simulator import Simulator
from ..net.transport import Network, estimate_size
from ..obs.metrics import DISABLED
from .server import PROPOSAL_TIMEOUT, RPC_TIMEOUT, ZkConfig
from .watches import EVENT_CHILD
from .znode import (BadVersionError, NodeExistsError, NoNodeError,
                    NotEmptyError, ZkError)

__all__ = ["SessionExpired", "ZkClient"]


class SessionExpired(ZkError):
    """The ensemble expired our session; ephemerals are gone."""


# A ``zk.read`` request with its three strings empty, sized at depth 1
# where it sits in the request; the request adds their lengths.  The
# frontier it carries is two ints at every attempt.
_READ_ARGS = estimate_size({"op": "", "path": "", "watch": False,
                            "watcher": "", "epoch": 0, "zxid": 0}, 1)

_ERROR_MAP = {
    "NoNodeError": NoNodeError,
    "NodeExistsError": NodeExistsError,
    "NotEmptyError": NotEmptyError,
    "BadVersionError": BadVersionError,
    "ZkError": ZkError,
}


def _translate(rej: RpcRejected) -> Exception:
    """Map a server-side refusal back to the typed ZK exception."""
    reason = rej.reason or ""
    name, _, detail = reason.partition(":")
    if name in _ERROR_MAP:
        return _ERROR_MAP[name](detail)
    if reason == "session-expired":
        return SessionExpired()
    return rej


class ZkClient:
    """A session-holding ZooKeeper client.

    Parameters
    ----------
    sim, network:
        The simulation substrate.
    name:
        Endpoint name for this client (unique per simulation).
    servers:
        Ensemble member endpoint names.
    config:
        Shared :class:`~repro.zk.server.ZkConfig` for timing defaults.
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 servers: list[str], config: Optional[ZkConfig] = None,
                 metrics=DISABLED):
        self.sim = sim
        self.name = name
        self.servers = list(servers)
        self.config = config if config is not None else ZkConfig()
        self.rpc = RpcNode(network, name)
        self.rpc.on_notify(self._on_notify)
        self.session_id: Optional[int] = None
        self.session_timeout = self.config.session_timeout
        self.expired = False
        self._server_idx = 0
        # Monotonic-read frontier: the newest (epoch, zxid) any read has
        # observed.  Sent with every read so a member that lags behind
        # it refuses to serve us (real ZooKeeper pins a session to its
        # last-seen zxid on reconnect).  Without this, rotating to a
        # lagging follower mid-refresh can un-happen state we already
        # saw — e.g. a changelog child listed by one member vanishing
        # on the next ``get``.
        self.last_epoch = 0
        self.last_zxid = 0
        # path -> one-shot callbacks, one table per watch kind: the
        # server fires data and child watches on the same path apart.
        self._data_watches: dict[str, list[Callable[[dict], None]]] = {}
        self._child_watches: dict[str, list[Callable[[dict], None]]] = {}
        self._ping_proc = None
        # Stats for the ZK-usage benches.
        self.ops_sent = 0
        self.retries = 0
        self._m_reads = metrics.counter("zk.reads", node=name)
        self._m_writes = metrics.counter("zk.writes", node=name)
        self._m_watch_set = metrics.counter("zk.watches_set", node=name)
        self._m_watch_fired = metrics.counter("zk.watches_fired", node=name)
        metrics.count_from(self, "retries", "zk.retries", node=name)

    # -- connection management ---------------------------------------------
    @property
    def connected(self) -> bool:
        """True while we hold an unexpired session."""
        return self.session_id is not None and not self.expired

    def current_server(self) -> str:
        return self.servers[self._server_idx % len(self.servers)]

    def _rotate(self) -> None:
        self._server_idx += 1
        self.retries += 1

    def _call(self, method: str, args: Any, args_size: Optional[int] = None):
        """Issue an RPC with server rotation on connectivity failures.

        ``args_size`` is as for :meth:`RpcNode.call
        <repro.net.rpc.RpcNode.call>`, and holds for every attempt.  The
        last failure is re-raised from its handler and no local keeps an
        earlier one: a kept error's traceback would hold this frame, a
        cycle only the collector could free.
        """
        attempts = 2 * len(self.servers) + 1
        for attempt in range(1, attempts + 1):
            self.ops_sent += 1
            if isinstance(args, dict) and "zxid" in args and "epoch" in args:
                # Re-stamp the read frontier at every attempt.  A retry
                # can go out long after the call was built, and other
                # processes multiplexed over this session (lease
                # refresh vs. targeted invalidation) may have advanced
                # the frontier meanwhile; carrying the original
                # snapshot would let a lagging member pass the
                # server-behind check and serve data that un-happens
                # state this session already observed.  (A real
                # ZooKeeper session cannot race itself like this — its
                # ops are serialized on one connection.)
                args = dict(args, epoch=self.last_epoch,
                            zxid=self.last_zxid)
            try:
                result = yield from self.rpc.call(
                    self.current_server(), method, args,
                    timeout=PROPOSAL_TIMEOUT, args_size=args_size)
                return result
            except RpcTimeout:
                self._rotate()
                if attempt == attempts:
                    raise
            except RpcRejected as rej:
                if rej.reason in ("no-leader", "leader-timeout", "not-leader",
                                  "server-behind"):
                    self._rotate()
                    yield self.sim.timeout(RPC_TIMEOUT)
                    if attempt == attempts:
                        raise
                    continue
                raise _translate(rej)

    def connect(self, timeout: Optional[float] = None):
        """Open a session and start the keep-alive pinger."""
        # Fail-fast by design: _call already rotated through every
        # server, so an escape here means the whole ensemble is down
        # and the connecting process should crash visibly.
        # repro: allow[rpc-unhandled-failure]
        result = yield from self._call("zk.connect",
                                       {"timeout": timeout})
        self.session_id = result["session"]
        self.session_timeout = result["timeout"]
        self.expired = False
        self._ping_proc = self.sim.process(self._pinger(),
                                           name=f"{self.name}-pinger")
        return self.session_id

    def _pinger(self):
        interval = self.session_timeout / 3.0
        while self.connected and self.rpc.endpoint.up:
            yield self.sim.timeout(interval)
            if not (self.connected and self.rpc.endpoint.up):
                return
            try:
                yield from self._call("zk.ping", {"session": self.session_id})
            except SessionExpired:
                self.expired = True
                return
            except (RpcTimeout, RpcRejected):
                continue  # rotation already happened inside _call

    def close(self):
        """Close the session gracefully (removes our ephemerals)."""
        if self.session_id is None:
            return
        try:
            yield from self._call("zk.close", {"session": self.session_id})
        except (RpcTimeout, RpcRejected, ZkError):
            pass
        self.session_id = None

    def crash(self) -> None:
        """Simulate client death: endpoint down, pings stop, session will
        expire on the leader and ephemerals will vanish (§III.D)."""
        self.rpc.endpoint.crash()

    # -- data operations ---------------------------------------------------
    def _write(self, op: dict):
        self._m_writes.inc()
        # Fail-fast by design: total-ensemble outage during a metadata
        # write crashes the writing process rather than ack silently.
        # repro: allow[rpc-unhandled-failure]
        result = yield from self._call("zk.write",
                                       {"session": self.session_id or 0,
                                        "op": op})
        return result

    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False):
        """Create a znode; returns the actual path."""
        result = yield from self._write({"type": "create", "path": path,
                                         "data": data, "ephemeral": ephemeral,
                                         "sequential": sequential})
        return result["path"]

    def ensure_path(self, path: str):
        """Create all missing ancestors of ``path`` (and ``path`` itself)."""
        parts = [p for p in path.strip("/").split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            try:
                yield from self.create(current)
            except NodeExistsError:
                pass
        return path

    def set(self, path: str, data: bytes, version: int = -1):
        """Replace data; returns the new stat dict."""
        result = yield from self._write({"type": "set", "path": path,
                                         "data": data, "version": version})
        return result["stat"]

    def delete(self, path: str, version: int = -1):
        """Delete a childless znode."""
        yield from self._write({"type": "delete", "path": path,
                                "version": version})

    def sync(self):
        """Catch the connected member up to the leader's zxid before
        reading (read-your-writes across members)."""
        result = yield from self._call("zk.sync", {})
        return result["zxid"]

    # -- transactions --------------------------------------------------------
    @staticmethod
    def op_create(path: str, data: bytes = b"", ephemeral: bool = False,
                  sequential: bool = False) -> dict:
        """Builder: a create step for :meth:`multi`."""
        return {"type": "create", "path": path, "data": data,
                "ephemeral": ephemeral, "sequential": sequential}

    @staticmethod
    def op_set(path: str, data: bytes, version: int = -1) -> dict:
        """Builder: a set step for :meth:`multi`."""
        return {"type": "set", "path": path, "data": data,
                "version": version}

    @staticmethod
    def op_delete(path: str, version: int = -1) -> dict:
        """Builder: a delete step for :meth:`multi`."""
        return {"type": "delete", "path": path, "version": version}

    def multi(self, ops: list[dict]):
        """Atomic batch: all steps apply or none do (watches fire only
        on commit).  Returns the per-step results."""
        result = yield from self._write({"type": "multi", "ops": list(ops)})
        return result["results"]

    def _advance_frontier(self, result: dict) -> None:
        """Adopt the answering member's (epoch, zxid) if it is newer."""
        seen = (result.get("epoch", 0), result.get("zxid", 0))
        if seen > (self.last_epoch, self.last_zxid):
            self.last_epoch, self.last_zxid = seen

    def _read(self, op: str, path: str, watched: bool):
        """One ``zk.read``, its request sized by shape; the reply's
        frontier is adopted."""
        self._m_reads.inc()
        # Fail-fast by design: see connect().
        # repro: allow[rpc-unhandled-failure]
        result = yield from self._call(
            "zk.read", {"op": op, "path": path, "watch": watched,
                        "watcher": self.name, "epoch": self.last_epoch,
                        "zxid": self.last_zxid},
            _READ_ARGS + len(op) + len(path) + len(self.name))
        self._advance_frontier(result)
        return result

    def get(self, path: str, watch: Optional[Callable[[dict], None]] = None):
        """(data, stat) with an optional one-shot data watch."""
        result = yield from self._read("get", path, watch is not None)
        if watch is not None:
            self._m_watch_set.inc()
            self._data_watches.setdefault(path, []).append(watch)
        return result["data"], result["stat"]

    def exists(self, path: str, watch: Optional[Callable[[dict], None]] = None):
        """Stat dict or None, with an optional one-shot watch."""
        result = yield from self._read("exists", path, watch is not None)
        if watch is not None:
            self._m_watch_set.inc()
            self._data_watches.setdefault(path, []).append(watch)
        return result["stat"]

    def get_children(self, path: str,
                     watch: Optional[Callable[[dict], None]] = None):
        """Sorted child names, with an optional one-shot child watch."""
        result = yield from self._read("get_children", path,
                                       watch is not None)
        if watch is not None:
            self._m_watch_set.inc()
            self._child_watches.setdefault(path, []).append(watch)
        return result["children"]

    # -- watch dispatch ------------------------------------------------------
    def _on_notify(self, src: str, body: Any) -> None:
        if body.get("zk") != "watch":
            return
        event = body["event"]
        table = (self._child_watches if event["type"] == EVENT_CHILD
                 else self._data_watches)
        callbacks = table.pop(event["path"], [])
        if callbacks:
            self._m_watch_fired.inc(len(callbacks))
        for cb in callbacks:
            cb(event)
