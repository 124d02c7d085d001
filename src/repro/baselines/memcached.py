"""The Memcached baseline of §VI: servers plus a client-side-sharding client.

The paper compares Sedna against "current popular distributed memory
cache system" — a fleet of plain memcached servers addressed by a
client that shards keys client-side ("Some MemCached clients support a
distributed way to write data, we use this features in MemCached test
programs").

Two crucial asymmetries the experiment isolates (§VI.A.1):

* Memcached(1): each datum written/read **once** — no replication.
* Memcached(3): each datum written/read **three times, sequentially**
  from the client ("in Memcached these reads and writes requests were
  issued sequentially"), versus Sedna's three **parallel** replica
  writes issued by the coordinator.
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.latency import MEMCACHED_OP
from ..net.rpc import RpcNode, RpcRejected, RpcTimeout
from ..net.simulator import Simulator
from ..net.transport import Network
from ..storage.hashtable import fnv1a
from ..storage.memstore import MemStore

__all__ = ["MemcachedServer", "MemcachedClusterClient", "MemcachedCluster"]


class MemcachedServer:
    """One memcached server: a MemStore behind the RPC surface."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 memory_limit: int = 64 << 20):
        self.sim = sim
        self.name = name
        self.store = MemStore(memory_limit=memory_limit)
        self.rpc = RpcNode(network, name, service_time=MEMCACHED_OP)
        self.rpc.register("mc.set", self._h_set)
        self.rpc.register("mc.get", self._h_get)

    def _h_set(self, src: str, args: Any):
        return self.store.set(args["key"], args["value"])

    def _h_get(self, src: str, args: Any):
        value = self.store.get(args["key"])
        return {"value": value}


class MemcachedClusterClient:
    """Client-side sharding client (the paper's test-program behaviour)."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 servers: list[str], timeout: float = 2.0):
        self.sim = sim
        self.name = name
        self.servers = list(servers)
        self.timeout = timeout
        self.rpc = RpcNode(network, name)
        self.write_latencies: list[float] = []
        self.read_latencies: list[float] = []
        self.failures = 0

    def _shard(self, key: bytes, offset: int = 0) -> str:
        """Key → server by hash-mod, plus ``offset`` selecting the next
        distinct server for extra copies."""
        idx = (fnv1a(key) + offset) % len(self.servers)
        return self.servers[idx]

    def set(self, key: bytes, value: bytes, copies: int = 1):
        """Store ``copies`` copies **sequentially** on successive shards.

        copies=1 reproduces Memcached(1); copies=3 reproduces the
        Memcached(3) series of Fig. 7(a).
        """
        t0 = self.sim.now
        try:
            for c in range(copies):
                yield from self.rpc.call(self._shard(key, c), "mc.set",
                                         {"key": key, "value": value},
                                         timeout=self.timeout)
        except (RpcTimeout, RpcRejected):
            self.failures += 1
            self.write_latencies.append(self.sim.now - t0)
            return False
        self.write_latencies.append(self.sim.now - t0)
        return True

    def get(self, key: bytes, copies: int = 1):
        """Read the key from ``copies`` shards sequentially; returns the
        first non-None value (paper's 3x-read comparison)."""
        t0 = self.sim.now
        found: Optional[bytes] = None
        try:
            for c in range(copies):
                result = yield from self.rpc.call(self._shard(key, c),
                                                  "mc.get", {"key": key},
                                                  timeout=self.timeout)
                if found is None and result["value"] is not None:
                    found = result["value"]
        except (RpcTimeout, RpcRejected):
            self.failures += 1
            self.read_latencies.append(self.sim.now - t0)
            return found
        self.read_latencies.append(self.sim.now - t0)
        return found


class MemcachedCluster:
    """Assembly: N memcached servers on the simulated network."""

    def __init__(self, sim: Simulator, network: Network, size: int = 9,
                 prefix: str = "mc", memory_limit: int = 64 << 20):
        self.sim = sim
        self.network = network
        self.names = [f"{prefix}{i}" for i in range(size)]
        self.servers = [MemcachedServer(sim, network, name, memory_limit)
                        for name in self.names]
        self._clients = 0

    def client(self, name: Optional[str] = None) -> MemcachedClusterClient:
        """A new sharding client over the whole fleet."""
        self._clients += 1
        return MemcachedClusterClient(
            self.sim, self.network, name or f"mc-client{self._clients}",
            self.names)
