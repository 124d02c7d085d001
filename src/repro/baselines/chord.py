"""Chord-style multi-hop lookup — the routing Sedna avoids (§VII).

"to meet the stringent speed requirements of realtime applications, we
avoid routing requests through multiple nodes like Chord use ...
Sedna uses a zero-hop DHT."  To measure what is being avoided, this
module implements the Chord lookup over the simulated network: nodes
own points on a 2^m id ring, each keeps a finger table, and a lookup
hops greedily until it reaches the key's successor.

Only the *routing* is Chord; once the owner is found the same storage
op runs — so the ablation isolates pure routing latency
(``test_paper[ablation_routing]`` in ``benchmarks/test_paper.py``).
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.latency import REQUEST_HANDLING
from ..net.rpc import RpcNode, RpcRejected, RpcTimeout
from ..net.simulator import Simulator
from ..net.transport import Network
from ..storage.hashtable import fnv1a
from ..storage.memstore import MemStore

__all__ = ["ChordRing", "ChordNode", "ChordClient"]

M_BITS = 32
_SPACE = 1 << M_BITS


def chord_id(name_or_key: bytes) -> int:
    """Position on the 2^m identifier circle."""
    return fnv1a(name_or_key) % _SPACE


def _in_halfopen(x: int, a: int, b: int) -> bool:
    """x in (a, b] on the circle."""
    if a < b:
        return a < x <= b
    return x > a or x <= b


class ChordRing:
    """Static ring construction: ids, successors, finger tables.

    The paper's comparison is about steady-state routing cost, so we
    build the (correct) finger tables directly instead of simulating
    Chord's stabilization protocol.
    """

    def __init__(self, names: list[str]):
        if not names:
            raise ValueError("empty ring")
        self.ids = sorted((chord_id(n.encode()), n) for n in names)

    def successor_of(self, point: int) -> str:
        """The node owning id ``point`` (first node clockwise)."""
        for node_id, name in self.ids:
            if node_id >= point:
                return name
        return self.ids[0][1]

    def finger_table(self, name: str) -> list[str]:
        """The m-entry finger table for ``name``."""
        my_id = chord_id(name.encode())
        return [self.successor_of((my_id + (1 << k)) % _SPACE)
                for k in range(M_BITS)]

    def owner_of_key(self, key: bytes) -> str:
        """The node responsible for ``key``."""
        return self.successor_of(chord_id(key))


class ChordNode:
    """One Chord participant: finger-table routing + a MemStore."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 ring: ChordRing):
        self.sim = sim
        self.name = name
        self.ring = ring
        self.node_id = chord_id(name.encode())
        self.fingers = ring.finger_table(name)
        self.store = MemStore(memory_limit=64 << 20)
        self.rpc = RpcNode(network, name, service_time=REQUEST_HANDLING)
        self.rpc.register("chord.lookup", self._h_lookup)
        self.rpc.register("chord.get", self._h_get)
        self.rpc.register("chord.set", self._h_set)

    def _closest_preceding(self, target: int) -> Optional[str]:
        for finger in reversed(self.fingers):
            fid = chord_id(finger.encode())
            if finger != self.name and _in_halfopen(
                    fid, self.node_id, (target - 1) % _SPACE):
                return finger
        return None

    def _owns(self, target: int) -> bool:
        return self.ring.successor_of(target) == self.name

    def _h_lookup(self, src: str, args: Any):
        """Resolve the owner of an id, hop by hop.

        Returns ``{"owner": name, "hops": n}`` — the recursive Chord
        lookup, each hop one real network round trip.
        """
        target = args["target"]
        hops = args.get("hops", 0)
        if self._owns(target):
            return {"owner": self.name, "hops": hops}
        nxt = self._closest_preceding(target)
        if nxt is None:
            nxt = self.fingers[0]
        return self.rpc.call_async(nxt, "chord.lookup",
                                   {"target": target, "hops": hops + 1})

    def _h_get(self, src: str, args: Any):
        return {"value": self.store.get(args["key"])}

    def _h_set(self, src: str, args: Any):
        return self.store.set(args["key"], args["value"])


class ChordClient:
    """A client that resolves owners through the hop chain, then talks
    to the owner directly (standard Chord usage)."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 entry_node: str, timeout: float = 5.0):
        self.sim = sim
        self.name = name
        self.entry = entry_node
        self.timeout = timeout
        self.rpc = RpcNode(network, name)
        self.lookup_hops: list[int] = []
        self.op_latencies: list[float] = []

    def _resolve(self, key: bytes):
        result = yield from self.rpc.call(
            self.entry, "chord.lookup",
            {"target": chord_id(key)}, timeout=self.timeout)
        self.lookup_hops.append(result["hops"])
        return result["owner"]

    def set(self, key: bytes, value: bytes):
        """Lookup then store."""
        t0 = self.sim.now
        owner = yield from self._resolve(key)
        reply = yield from self.rpc.call(owner, "chord.set",
                                         {"key": key, "value": value},
                                         timeout=self.timeout)
        self.op_latencies.append(self.sim.now - t0)
        return reply

    def get(self, key: bytes):
        """Lookup then read."""
        t0 = self.sim.now
        owner = yield from self._resolve(key)
        reply = yield from self.rpc.call(owner, "chord.get", {"key": key},
                                         timeout=self.timeout)
        self.op_latencies.append(self.sim.now - t0)
        return reply["value"]
