"""Active failure detection (Table I: "Heart-beat protocol and Active
detection").

The lazy path (§III.C) repairs a dead node's replicas when traffic
touches them; keys nobody reads stay under-replicated until then.  The
paper's technique table lists *active detection* alongside heartbeats
to close that gap: :class:`ActiveDetector` runs on every node and

1. pings a few peers each pass (cheap liveness probes);
2. on silence, confirms death against the ZooKeeper ephemeral (the same
   §III.D check the lazy path uses);
3. for a confirmed-dead peer, walks this node's *own* vnodes, finds the
   ones whose replica set contained the corpse, and runs the standard
   recovery (reassign + re-duplicate) for a bounded number per pass —
   so background repair never swamps foreground traffic.
"""

from __future__ import annotations

from ..net.rpc import RpcRejected, RpcTimeout
from .cache import ZkLayout
from .node import SednaNode

__all__ = ["ActiveDetector"]


class ActiveDetector:
    """Background liveness prober + proactive replica repair."""

    def __init__(self, node: SednaNode, interval: float = 2.0,
                 peers_per_pass: int = 2, repairs_per_pass: int = 4,
                 probe_timeout: float = 0.3):
        self.node = node
        self.sim = node.sim
        self.interval = interval
        self.peers_per_pass = peers_per_pass
        self.repairs_per_pass = repairs_per_pass
        self.probe_timeout = probe_timeout
        self.running = False
        self._rr = 0
        # Vnodes still awaiting proactive repair, per confirmed corpse.
        # Snapshotted at confirmation time: the first repairs rewrite
        # the mapping, which would otherwise hide the remaining work.
        self._repair_queue: dict[str, list[int]] = {}
        # Stats.
        self.probes = 0
        self.deaths_confirmed = 0
        self.proactive_recoveries = 0
        # The node registers the replica.ping handler itself (see
        # SednaNode._register_rpc): every handler must exist before the
        # endpoint serves traffic, so a late-attached detector cannot
        # be the one to add it.

    def start(self) -> None:
        """Spawn the probe loop."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._loop(), name=f"{self.node.name}-detector")

    def stop(self) -> None:
        """Stop at the next wakeup."""
        self.running = False

    def _known_peers(self) -> list[str]:
        ring = self.node.cache.ring
        return [n for n in ring.real_nodes() if n != self.node.name]

    def _loop(self):
        interval = self.interval
        while self.running and self.node.running:
            yield self.sim.timeout(interval)
            if not (self.running and self.node.running):
                return
            peers = self._known_peers()
            for offset in range(min(self.peers_per_pass, len(peers))):
                peer = peers[(self._rr + offset) % len(peers)]
                yield from self._probe(peer)
            self._rr += self.peers_per_pass
            yield from self._drain_repairs()

    def _probe(self, peer: str):
        self.probes += 1
        try:
            yield from self.node.rpc.call(peer, "replica.ping", {},
                                          timeout=self.probe_timeout)
            return
        except (RpcTimeout, RpcRejected):
            pass
        # Silent peer: confirm against ZooKeeper (§III.D).
        try:
            stat = yield from self.node.zk.exists(ZkLayout.real_node(peer))
        except (RpcTimeout, RpcRejected):
            return
        if stat is not None:
            return  # transient; the ephemeral still lives
        self.deaths_confirmed += 1
        self._enqueue_repairs(peer)

    def _enqueue_repairs(self, dead: str) -> None:
        """Snapshot every vnode whose replica set holds the corpse and
        involves this node (so we can source or receive the data)."""
        if dead in self._repair_queue:
            return
        ring = self.node.cache.ring
        n = self.node.config.replicas
        affected = []
        for vnode_id in range(ring.num_vnodes):
            replicas = ring.replicas_for(vnode_id, n)
            if dead in replicas and self.node.name in replicas:
                affected.append(vnode_id)
        self._repair_queue[dead] = affected

    def _drain_repairs(self):
        """Run a bounded batch of queued recoveries per pass."""
        budget = self.repairs_per_pass
        for dead in list(self._repair_queue):
            queue = self._repair_queue[dead]
            while queue and budget > 0:
                vnode_id = queue.pop(0)
                self.proactive_recoveries += 1
                # Heal the mapping if the corpse is still in this
                # vnode's walk (another detector may have beaten us)...
                yield from self.node._recover_vnode(dead, vnode_id)
                # ...then make sure every current member has the data.
                yield from self.node.reconcile_vnode(vnode_id)
                budget -= 1
            if not queue:
                del self._repair_queue[dead]
            if budget <= 0:
                return
