"""Garbage collection of rows a node no longer replicates.

Vnode ownership moves — joins steal from overloaded owners (§III.D),
rebalancing migrates load (§III.B), recovery rewrites dead nodes'
assignments (§III.C) — but the *old* owner keeps its copies: dropping
them eagerly would race the transfer.  The paper leaves cleanup
unspecified; in a memory-constrained store those orphans are exactly
the bytes you bought RAM for, so the reproduction ships a safe janitor:

For each locally indexed vnode whose current replica set (per the
lease-synced ring) does not include this node, the janitor first
*verifies* via digest exchange that every current replica holds
versions at least as new as ours — pushing any rows they lack — and
only then drops the local copies.  A row is therefore never deleted
from its last up-to-date holder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.rpc import RpcRejected, RpcTimeout
from .antientropy import digest_diff, dvv_covered

if TYPE_CHECKING:
    from .node import SednaNode

__all__ = ["GarbageCollector"]


class GarbageCollector:
    """Periodic orphan-replica janitor hosted on one node."""

    def __init__(self, node: SednaNode, interval: float = 15.0,
                 vnodes_per_pass: int = 8):
        self.node = node
        self.sim = node.sim
        self.interval = interval
        self.vnodes_per_pass = vnodes_per_pass
        self.running = False
        # Stats.
        self.passes = 0
        self.rows_dropped = 0
        self.rows_pushed = 0

    def start(self) -> None:
        """Spawn the janitor loop."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._loop(), name=f"{self.node.name}-gc")

    def stop(self) -> None:
        """Stop at the next wakeup."""
        self.running = False

    def _orphaned_vnodes(self) -> list[int]:
        """Locally indexed vnodes we are no longer a replica of."""
        node = self.node
        ring = node.cache.ring
        n = node.config.replicas
        return [v for v, keys in node.vnode_keys.items()
                if keys and node.name not in ring.replicas_for(v, n)]

    def _loop(self):
        interval = self.interval
        while self.running and self.node.running:
            yield self.sim.timeout(interval)
            if not (self.running and self.node.running):
                return
            yield from self.run_pass()

    def run_pass(self):
        """Collect up to ``vnodes_per_pass`` orphaned vnodes; returns
        the number of rows dropped."""
        self.passes += 1
        dropped = 0
        for vnode_id in self._orphaned_vnodes()[: self.vnodes_per_pass]:
            dropped += yield from self._collect(vnode_id)
        return dropped

    def _collect(self, vnode_id: int):
        """Verify-then-drop one orphaned vnode."""
        node = self.node
        replicas = node.cache.ring.replicas_for(vnode_id,
                                                node.config.replicas)
        if node.name in replicas or not replicas:
            return 0
        mine = node.vnode_digest(vnode_id)
        mine_dvv = node.vnode_dvv_digest(vnode_id)
        if not mine and not mine_dvv:
            node.vnode_keys.pop(vnode_id, None)
            return 0
        # Every current replica must dominate our versions first —
        # causal rows included (vv dominance, see dvv_covered).
        for peer in replicas:
            try:
                reply = yield from node.rpc.call(
                    peer, "replica.digest", {"vnode": vnode_id},
                    timeout=node.config.request_timeout)
            except (RpcTimeout, RpcRejected):
                return 0  # cannot verify -> keep the data, retry later
            _pull, push = digest_diff(mine, reply["digest"])
            dvv_push = dvv_covered(mine_dvv, reply.get("dvv", {}))
            if push or dvv_push:
                bundle = node._export_rows(push, dvv_push)
                if not (yield from node._push_rows(
                        peer, vnode_id, bundle,
                        node.config.request_timeout * 2)):
                    return 0
                self.rows_pushed += (len(bundle["rows"])
                                     + len(bundle["dvv_rows"]))
        # Safe: drop the local copies.
        keys = node.vnode_keys.pop(vnode_id, set())
        dropped = 0
        for key in keys:
            if node.store.delete(key):
                dropped += 1
        self.rows_dropped += dropped
        node.vnode_status.pop(vnode_id, None)
        return dropped
