"""Gossip-based membership — the design Sedna argues against (§VII).

"we ... avoid Gossip mechanism to maintain a consistent cluster status
like Cassandra and Redis does", relying on the ZooKeeper sub-cluster
instead.  To *quantify* that argument (see
``benchmarks/test_ablation_membership.py``) we implement the thing
being avoided: an anti-entropy push gossip in the Scuttlebutt/Dynamo
family.

Protocol per node, every ``interval``:

1. bump the local heartbeat counter;
2. pick ``fanout`` random live peers and push the full membership view
   ``{name: (heartbeat, status)}``;
3. on receipt, merge entry-wise (higher heartbeat wins);
4. entries whose heartbeat has not advanced within ``fail_after``
   seconds are marked DEAD (and pruned after ``forget_after``).

Deterministic: each node draws peers from a seeded RNG.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from ..net.simulator import Simulator
from ..net.transport import Message, Network

__all__ = ["GossipNode", "GossipCluster"]

ALIVE = "alive"
DEAD = "dead"


class GossipNode:
    """One gossiping member."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 seeds: list[str], interval: float = 0.5, fanout: int = 2,
                 fail_after: float = 2.0, forget_after: float = 6.0,
                 rng_seed: int = 0):
        self.sim = sim
        self.name = name
        self.seeds = [s for s in seeds if s != name]
        self.interval = interval
        self.fanout = fanout
        self.fail_after = fail_after
        self.forget_after = forget_after
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which would make peer selection — and thus
        # convergence timing — differ between otherwise identical runs.
        self._rng = random.Random(
            rng_seed ^ zlib.crc32(name.encode()) & 0xFFFF)
        self.endpoint = network.endpoint(name, self._on_message)
        self.heartbeat = 0
        # name -> [heartbeat, last_local_bump, status]
        self.view: dict[str, list] = {
            name: [0, sim.now, ALIVE]}
        self.running = False
        self.messages_sent = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin gossiping."""
        self.running = True
        for seed in self.seeds:
            self.view.setdefault(seed, [0, self.sim.now, ALIVE])
        self.sim.process(self._loop(), name=f"{self.name}-gossip")

    def stop(self) -> None:
        """Crash: stop gossiping, endpoint down."""
        self.running = False
        self.endpoint.crash()

    # -- protocol ------------------------------------------------------------
    def _loop(self):
        interval = self.interval
        while self.running:
            yield self.sim.timeout(interval)
            if not self.running:
                return
            self.heartbeat += 1
            self.view[self.name] = [self.heartbeat, self.sim.now, ALIVE]
            self._detect_failures()
            self._push()

    def _push(self) -> None:
        peers = [n for n, entry in self.view.items()
                 if n != self.name and entry[2] == ALIVE]
        if not peers:
            peers = self.seeds
        self._rng.shuffle(peers)
        payload = {"gossip": {name: [entry[0], entry[2]]
                              for name, entry in self.view.items()}}
        for peer in peers[: self.fanout]:
            if self.endpoint.up:
                self.endpoint.send(peer, payload)
                self.messages_sent += 1

    def _on_message(self, msg: Message) -> None:
        if not self.running:
            return
        incoming = msg.payload.get("gossip", {})
        for name, (heartbeat, status) in incoming.items():
            mine = self.view.get(name)
            if mine is None or heartbeat > mine[0]:
                self.view[name] = [heartbeat, self.sim.now,
                                   ALIVE if status == ALIVE else DEAD]

    def _detect_failures(self) -> None:
        now = self.sim.now
        for name, entry in list(self.view.items()):
            if name == self.name:
                continue
            age = now - entry[1]
            if entry[2] == ALIVE and age > self.fail_after:
                entry[2] = DEAD
            elif entry[2] == DEAD and age > self.forget_after:
                del self.view[name]

    # -- queries ----------------------------------------------------------
    def alive_members(self) -> set[str]:
        """Members this node currently believes alive."""
        return {name for name, entry in self.view.items()
                if entry[2] == ALIVE}


class GossipCluster:
    """Assembly of gossiping members with convergence helpers."""

    def __init__(self, sim: Simulator, network: Network, size: int,
                 prefix: str = "g", interval: float = 0.5, fanout: int = 2,
                 fail_after: float = 2.0, rng_seed: int = 0):
        self.sim = sim
        self.network = network
        self.names = [f"{prefix}{i}" for i in range(size)]
        self.nodes = {
            name: GossipNode(sim, network, name, self.names,
                             interval=interval, fanout=fanout,
                             fail_after=fail_after, rng_seed=rng_seed + i)
            for i, name in enumerate(self.names)}

    def start(self) -> None:
        """Start every member."""
        for node in self.nodes.values():
            node.start()

    def add_node(self, name: str, **kwargs) -> GossipNode:
        """A newcomer that only knows the seeds."""
        node = GossipNode(self.sim, self.network, name, self.names, **kwargs)
        self.nodes[name] = node
        node.start()
        return node

    def converged(self) -> bool:
        """True when every live member sees the same live set."""
        live = [n for n in self.nodes.values() if n.running]
        if not live:
            return True
        views = [n.alive_members() for n in live]
        return all(v == views[0] for v in views)

    def total_messages(self) -> int:
        """Gossip messages sent so far across the cluster."""
        return sum(n.messages_sent for n in self.nodes.values())
