"""SednaClient — the application-facing API of §III.F.

``write_latest`` / ``write_all`` / ``read_latest`` / ``read_all`` with
the paper's reply vocabulary (``ok`` / ``outdated`` / ``failure``),
plus delete, the causal (DVV) pair and the batched forms.

There is one client; what varies is the *route* a request takes
(§VII).  :class:`SednaClient` sends it "directly routed to a server in
data center" (§III.A): it picks a coordinator node (round-robin by
default) and that node runs the quorum fan-out.
:class:`SmartSednaClient` is the zero-hop route: it holds its own
mapping cache and runs the same
:class:`~repro.core.coordinator.QuorumCoordinator` itself.  Every verb
is defined once and goes through :meth:`SednaClient._op`; only
:meth:`SednaClient._request` differs between the routes.

All operations are process helpers — use ``yield from`` inside a
simulation process.  Per-operation latencies are recorded for the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.rpc import RpcNode, RpcRejected, RpcTimeout
from ..net.simulator import Simulator
from ..net.transport import Network
from ..storage.versioned import ValueElement, WriteOutcome
from ..zk.client import ZkClient
from ..zk.server import ZkConfig
from .cache import MappingCache
from .config import SednaConfig
from .coordinator import QuorumCoordinator
from .types import (DEFAULT_DATASET, DEFAULT_TABLE, encode_key,
                    encode_keys)

__all__ = ["CausalReadResult", "CausalWriteAck", "SednaClient",
           "SmartSednaClient"]


@dataclass(frozen=True)
class CausalWriteAck:
    """Result of :meth:`write_causal` (docs/protocols.md §16).

    ``context`` is the minting replica's causal context in wire form;
    passing it to the next :meth:`write_causal` on the same key
    supersedes exactly the versions in ``siblings`` (which is why the
    ack carries them — overwriting is always informed, never silent).
    """

    status: str
    dot: Optional[tuple]
    context: tuple
    siblings: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == WriteOutcome.OK


@dataclass(frozen=True)
class CausalReadResult:
    """Result of :meth:`read_causal` (docs/protocols.md §16).

    ``siblings`` holds every concurrent version as (source, timestamp,
    value) triples; ``context`` is the causal context to thread into
    the write that reconciles them.
    """

    found: bool
    siblings: tuple
    context: tuple

    @property
    def values(self) -> list:
        """Sibling values only, storage order (oldest first)."""
        return [v for _s, _ts, v in self.siblings]


class SednaClient:
    """Client handle bound to a set of coordinator nodes.

    Parameters
    ----------
    sim, network:
        Simulation substrate.
    name:
        Unique endpoint name; doubles as the write *source* identity
        used by ``write_all`` value lists.
    nodes:
        Coordinator endpoint names (usually every Sedna real node).
    config:
        The cluster's :class:`~repro.core.config.SednaConfig`.
    pinned:
        When set, always use this node as coordinator instead of
        round-robin (the paper's experiments run one client per server
        against its local Sedna service).
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 nodes: list[str], config: Optional[SednaConfig] = None,
                 pinned: Optional[str] = None, obs=None):
        self.sim = sim
        self.name = name
        self.nodes = list(nodes)
        self.config = config if config is not None else SednaConfig()
        self.rpc = RpcNode(network, name)
        self.pinned = pinned
        self._rr = 0
        self._last_ts = 0.0
        # Measurements for the harness.
        self.write_latencies: list[float] = []
        self.read_latencies: list[float] = []
        self.failures = 0
        # The client is where a request-scoped trace is minted — it is
        # the entry point of every operation — and where the end-to-end
        # latency histograms live.  Without an obs bundle every handle
        # is a no-op.
        self._tracer = obs.tracer if obs is not None else None
        metrics = obs.metrics if obs is not None else None
        if metrics is None:
            from ..obs.metrics import DISABLED
            metrics = DISABLED
        self._m_write_lat = metrics.histogram("client.write_seconds",
                                              node=name)
        self._m_read_lat = metrics.histogram("client.read_seconds", node=name)
        self._m_failures = metrics.counter("client.failures", node=name)

    # -- plumbing ---------------------------------------------------------
    def _timestamp(self) -> float:
        """Strictly increasing per-client timestamp (write versions)."""
        ts = self.sim.now
        if ts <= self._last_ts:
            ts = self._last_ts + 1e-9
        self._last_ts = ts
        return ts

    def _coordinator(self) -> str:
        if self.pinned is not None:
            return self.pinned
        node = self.nodes[self._rr % len(self.nodes)]
        self._rr += 1
        return node

    def _request(self, method: str, args: Any):
        """The route: one coordinator RPC with a single failover retry."""
        coordinator = self._coordinator()
        try:
            result = yield from self.rpc.call(coordinator, method, args,
                                              timeout=self.config.client_timeout)
            return result
        except (RpcTimeout, RpcRejected):
            fallback = self._coordinator()
            if fallback == coordinator and len(self.nodes) > 1:
                fallback = self._coordinator()
            result = yield from self.rpc.call(fallback, method, args,
                                              timeout=self.config.client_timeout)
            return result

    def _record(self, read: bool, t0: float, failed: bool) -> None:
        """The one accounting rule, for every verb and both routes.

        The latency since ``t0`` always joins the harness series (reads
        → ``read_latencies``, everything else → ``write_latencies``).
        A completed op is observed in ``client.read_seconds`` /
        ``client.write_seconds``; a failed one counts in
        ``client.failures`` instead, which is how ``repro.obs.fitness``
        reads the three series (ops = observations + failures).
        """
        dt = self.sim.now - t0
        (self.read_latencies if read else self.write_latencies).append(dt)
        if failed:
            self.failures += 1
            self._m_failures.inc()
        else:
            (self._m_read_lat if read else self._m_write_lat).observe(dt)

    def _op(self, name: str, method: str, args: Any, read: bool = False,
            **tags: Any):
        """One operation: mint its trace, route it, account for it.

        Returns the coordinator's reply, or None when the operation
        failed (timeout or refusal on every route tried).
        """
        t0 = self.sim.now
        span = None
        if self._tracer is not None:
            span = self._tracer.start_trace(f"client.{name}", node=self.name)
        try:
            reply = yield from self._request(method, args)
        except (RpcTimeout, RpcRejected):
            reply = None
        self._record(read, t0, reply is None)
        if span is not None:
            if reply is None:
                tags = {"status": "failure"}
            else:
                tags["status"] = reply.get("status", "ok")
                if "found" in reply:
                    tags["found"] = bool(reply["found"])
            self._tracer.finish(span, **tags)
        return reply

    # -- write APIs (§III.F.1) ------------------------------------------------
    def _write(self, mode: str, key: str, value: Any, table: str,
               dataset: str):
        args = {"key": encode_key(key, table, dataset), "value": value,
                "ts": self._timestamp(), "source": self.name, "mode": mode}
        reply = yield from self._op("write", "sedna.write", args)
        return WriteOutcome.FAILURE if reply is None else reply["status"]

    def write_latest(self, key: str, value: Any,
                     table: str = DEFAULT_TABLE,
                     dataset: str = DEFAULT_DATASET):
        """Lock-free last-write-wins write; returns ok/outdated/failure."""
        result = yield from self._write("latest", key, value, table, dataset)
        return result

    def write_all(self, key: str, value: Any,
                  table: str = DEFAULT_TABLE,
                  dataset: str = DEFAULT_DATASET):
        """Per-source value-list write; returns ok/outdated/failure."""
        result = yield from self._write("all", key, value, table, dataset)
        return result

    # -- read APIs (§III.F.2) -------------------------------------------------
    def read_latest(self, key: str, table: str = DEFAULT_TABLE,
                    dataset: str = DEFAULT_DATASET):
        """The freshest value regardless of writer; None when absent."""
        args = {"key": encode_key(key, table, dataset), "mode": "latest"}
        reply = yield from self._op("read", "sedna.read", args, read=True)
        if reply is None or not reply.get("found"):
            return None
        return reply["value"]

    def read_latest_element(self, key: str, table: str = DEFAULT_TABLE,
                            dataset: str = DEFAULT_DATASET):
        """Like :meth:`read_latest` but returns the full element
        (source, timestamp, value)."""
        args = {"key": encode_key(key, table, dataset), "mode": "latest"}
        reply = yield from self._op("read", "sedna.read", args, read=True)
        if reply is None or not reply.get("found"):
            return None
        return ValueElement(reply["source"], reply["ts"], reply["value"])

    def read_all(self, key: str, table: str = DEFAULT_TABLE,
                 dataset: str = DEFAULT_DATASET):
        """Every element of the value list ("all the values corresponding
        that key", §III.F.2); empty on failure."""
        args = {"key": encode_key(key, table, dataset), "mode": "all"}
        reply = yield from self._op("read_all", "sedna.read", args, read=True)
        if reply is None:
            return []
        return [ValueElement(s, ts, v) for s, ts, v in reply["elements"]]

    def delete(self, key: str, table: str = DEFAULT_TABLE,
               dataset: str = DEFAULT_DATASET):
        """Quorum delete of a key; True on success."""
        args = {"key": encode_key(key, table, dataset)}
        reply = yield from self._op("delete", "sedna.delete", args)
        return reply is not None

    # -- causal APIs (docs/protocols.md §16) ----------------------------------
    def write_causal(self, key: str, value: Any, context=None,
                     table: str = DEFAULT_TABLE,
                     dataset: str = DEFAULT_DATASET):
        """Dotted-version-vector write: concurrent writers each survive
        as siblings instead of being silently last-write-wins'd.

        ``context`` is the causal context from a prior
        :meth:`read_causal` (or a prior write's ack) on this key; omit
        it for a blind write, which the server keeps *alongside* any
        concurrent versions.
        """
        context = context or ()
        args = {"key": encode_key(key, table, dataset), "value": value,
                "ts": self._timestamp(), "source": self.name,
                "ctx": [list(pair) for pair in context]}
        reply = yield from self._op("write_causal", "sedna.cwrite", args)
        if reply is None:
            return CausalWriteAck(WriteOutcome.FAILURE, None,
                                  tuple(tuple(p) for p in context))
        return CausalWriteAck(
            status=reply["status"],
            dot=tuple(reply["dot"]) if reply.get("dot") else None,
            context=tuple((r, c) for r, c in reply.get("context", context)),
            siblings=tuple((s, ts, v)
                           for s, ts, v in reply.get("siblings", [])))

    def read_causal(self, key: str, table: str = DEFAULT_TABLE,
                    dataset: str = DEFAULT_DATASET):
        """Quorum read of every surviving sibling plus the causal
        context to thread into the reconciling write; None on failure.
        """
        args = {"key": encode_key(key, table, dataset)}
        reply = yield from self._op("read_causal", "sedna.cread", args,
                                    read=True)
        if reply is None:
            return None
        return CausalReadResult(
            found=bool(reply.get("found")),
            siblings=tuple((s, ts, v)
                           for s, ts, v in reply.get("siblings", [])),
            context=tuple((r, c) for r, c in reply.get("context", [])))

    # -- batch APIs (docs/protocols.md §12) -----------------------------------
    def multi_write(self, items: dict, mode: str = "latest",
                    table: str = DEFAULT_TABLE,
                    dataset: str = DEFAULT_DATASET):
        """Batched write: {key: value} in, {key: ok/outdated/failure} out.

        The coordinator groups keys by virtual node and issues one
        ``replica.mwrite`` per replica per vnode-group, so the N-way
        round-trip cost is paid per *group*, not per key.
        """
        enc = encode_keys(items, table, dataset)
        args = {"entries": [
            {"key": ek, "value": items[uk], "ts": self._timestamp(),
             "source": self.name, "mode": mode} for ek, uk in enc.items()]}
        reply = yield from self._op("mwrite", "sedna.mwrite", args,
                                    keys=len(enc))
        results = {} if reply is None else reply["results"]
        return {uk: results.get(ek, {}).get("status", WriteOutcome.FAILURE)
                for ek, uk in enc.items()}

    def _multi_read(self, mode: str, keys, table: str, dataset: str):
        """{the caller's key: its ``sedna.mread`` row, {} on failure}."""
        enc = encode_keys(keys, table, dataset)
        args = {"keys": list(enc), "mode": mode}
        reply = yield from self._op("mread", "sedna.mread", args, read=True,
                                    keys=len(enc))
        results = {} if reply is None else reply["results"]
        return {uk: results.get(ek) or {} for ek, uk in enc.items()}

    def multi_read(self, keys, table: str = DEFAULT_TABLE,
                   dataset: str = DEFAULT_DATASET):
        """Batched ``read_latest``: {key: value or None (miss/failure)}."""
        rows = yield from self._multi_read("latest", keys, table, dataset)
        return {uk: row["value"] if row.get("found") else None
                for uk, row in rows.items()}

    def multi_read_all(self, keys, table: str = DEFAULT_TABLE,
                       dataset: str = DEFAULT_DATASET):
        """Batched ``read_all``: {key: [ValueElement, ...]}."""
        rows = yield from self._multi_read("all", keys, table, dataset)
        return {uk: [ValueElement(s, ts, v)
                     for s, ts, v in row.get("elements", [])]
                for uk, row in rows.items()}

    def multi_delete(self, keys, table: str = DEFAULT_TABLE,
                     dataset: str = DEFAULT_DATASET):
        """Batched delete: {key: True/False} per-key success."""
        enc = encode_keys(keys, table, dataset)
        reply = yield from self._op("mdelete", "sedna.mdelete",
                                    {"keys": list(enc)}, keys=len(enc))
        results = {} if reply is None else reply["results"]
        return {uk: results.get(ek, {}).get("status") == "ok"
                for ek, uk in enc.items()}


class SmartSednaClient(SednaClient):
    """Zero-hop client: coordinates quorums itself (§VII).

    "Sedna uses a zero-hop DHT that each node caches enough routing
    information locally to route a request to the appropriate node
    directly."  The smart client holds its own mapping cache (synced
    from ZooKeeper with the same adaptive lease as the nodes) and fans
    writes/reads out to the replicas in parallel without an
    intermediate coordinator hop.  This is the configuration the
    paper's §VI load-test programs use: "Sedna writes every key value
    pair three times into different real nodes parallel, and reads
    every key value pair three times from different real nodes."

    Call :meth:`connect` (with ``yield from``) before the first
    operation.
    """

    def __init__(self, sim: Simulator, network: Network, name: str,
                 zk_servers: list[str],
                 config: Optional[SednaConfig] = None,
                 zk_config: Optional[ZkConfig] = None, obs=None):
        super().__init__(sim, network, name, nodes=[], config=config, obs=obs)
        metrics = obs.metrics if obs is not None else None
        self.zk = ZkClient(sim, network, f"{name}-zk", zk_servers, zk_config,
                           metrics=metrics)
        self.cache = MappingCache(sim, self.zk, self.config,
                                  metrics=metrics, owner=name)
        self.coordinator = QuorumCoordinator(sim, self.rpc, self.cache,
                                             self.config, obs=obs)

    def connect(self):
        """Open the ZooKeeper session and load the vnode mapping."""
        yield from self.zk.connect()
        yield from self.cache.load_full()
        self.cache.start_lease_loop()
        return self.name

    def close(self):
        """Stop the lease loop and release the ZooKeeper session."""
        self.cache.stop()
        yield from self.zk.close()

    def _request(self, method: str, args: Any):
        """The route: this client's own coordinator, no hop (a plain
        call — the coordinator's generator is driven by the caller)."""
        return self.coordinator.coordinate(method, args)
