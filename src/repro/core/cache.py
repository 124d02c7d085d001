"""Local mapping cache with adaptive lease and changelog refresh.

§III.E gives Sedna three strategies against the ZooKeeper read
bottleneck, all implemented here:

1. **Local cache** — every node/client keeps the full vnode→real-node
   assignment in memory and reads ZooKeeper only on invalidation
   ("target node returns 'reject' or 'timeout'").
2. **Adaptive lease** — a periodic sync whose period *halves* when the
   last lease saw many changes and *doubles* when it saw none.
3. **Changelog** — every mapping update also appends a sequential
   znode under ``/sedna/changelog``, so a refresh re-reads only the
   vnodes that actually changed instead of the whole ring.

Watches are deliberately not used (watch-storm argument, §III.E); the
ablation ``test_paper[zk_bottleneck]`` (``benchmarks/test_paper.py``)
quantifies all four variants (no cache / fixed lease / adaptive lease /
adaptive + changelog).
"""

from __future__ import annotations

from typing import Optional

from ..net.simulator import Simulator
from ..obs.metrics import DISABLED
from ..zk.client import ZkClient
from ..zk.znode import NoNodeError
from .config import SednaConfig
from .hashring import Ring

__all__ = ["ZkLayout", "MappingCache"]

#: Bounds of the adaptive lease (§III.E, simulated seconds): the floor
#: after repeated halving under churn, the cap after repeated doubling
#: on a quiet cluster.
LEASE_MIN = 0.25
LEASE_MAX = 16.0


class ZkLayout:
    """Canonical znode paths of a Sedna cluster."""

    ROOT = "/sedna"
    CONFIG = "/sedna/config"
    REAL_NODES = "/sedna/real_nodes"
    VNODES = "/sedna/vnodes"
    CHANGELOG = "/sedna/changelog"
    IMBALANCE = "/sedna/imbalance"

    @staticmethod
    def vnode(vnode_id: int) -> str:
        """Znode path of one virtual node's assignment."""
        return f"{ZkLayout.VNODES}/{vnode_id}"

    @staticmethod
    def real_node(name: str) -> str:
        """Ephemeral liveness znode of a real node."""
        return f"{ZkLayout.REAL_NODES}/{name}"

    @staticmethod
    def imbalance(name: str) -> str:
        """Imbalance-table row znode of a real node."""
        return f"{ZkLayout.IMBALANCE}/{name}"


class MappingCache:
    """The cached ring plus its synchronization policies."""

    def __init__(self, sim: Simulator, zk: ZkClient, config: SednaConfig,
                 adaptive: bool = True, use_changelog: bool = True,
                 metrics=DISABLED, owner: str = ""):
        self.sim = sim
        self.zk = zk
        self.config = config
        self.ring = Ring(config.num_vnodes)
        self.adaptive = adaptive
        self.use_changelog = use_changelog
        self.lease = config.lease_base
        self.last_changelog_seq = -1
        self.loaded = False
        self._running = False
        self._generation = 0
        # Stats for the bottleneck ablation.
        self.full_loads = 0
        self.incremental_refreshes = 0
        self.vnode_reads = 0
        self.invalidations = 0
        self.lookups = 0
        owner = owner or zk.name
        # Plain ints the registry reads at snapshot time.
        for attr, name in (("full_loads", "cache.full_loads"),
                           ("incremental_refreshes", "cache.refreshes"),
                           ("vnode_reads", "cache.vnode_reads"),
                           ("invalidations", "cache.invalidations"),
                           ("lookups", "cache.lookups")):
            metrics.count_from(self, attr, name, node=owner)

    # -- full load ---------------------------------------------------------
    def load_full(self):
        """Read the entire assignment (boot path; §III.E situation 1).

        The changelog position is recorded *before* the vnode sweep: a
        reassignment that commits mid-sweep may or may not be visible
        in the vnodes we read, but its changelog sequence is strictly
        newer than the recorded one, so the next refresh re-reads it.
        Recording the position after the sweep loses exactly that
        window — the entry's sequence is consumed while the sweep still
        returned the old owner, and no refresh ever looks again.
        """
        self.full_loads += 1
        seq = yield from self._newest_changelog_seq()
        for vnode_id in range(self.config.num_vnodes):
            try:
                data, _stat = yield from self.zk.get(ZkLayout.vnode(vnode_id))
                self.vnode_reads += 1
                self.ring.assign(vnode_id, data.decode())
            except NoNodeError:
                self.ring.assign(vnode_id, Ring.UNASSIGNED)
        self.last_changelog_seq = seq
        self.loaded = True

    def _newest_changelog_seq(self):
        try:
            children = yield from self.zk.get_children(ZkLayout.CHANGELOG)
        except NoNodeError:
            return -1
        if not children:
            return -1
        return max(int(name.rsplit("-", 1)[1]) for name in children)

    # -- incremental refresh ----------------------------------------------
    def refresh(self):
        """One sync pass; returns the number of vnodes that changed."""
        if not self.use_changelog:
            # Fall back to re-reading the full assignment.
            before = self.ring.snapshot()
            yield from self.load_full()
            return sum(1 for a, b in zip(before, self.ring.snapshot())
                       if a != b)
        self.incremental_refreshes += 1
        try:
            children = yield from self.zk.get_children(ZkLayout.CHANGELOG)
        except NoNodeError:
            return 0
        fresh = []
        newest = -1
        for name in children:
            seq = int(name.rsplit("-", 1)[1])
            if seq > newest:
                newest = seq
            if seq > self.last_changelog_seq:
                fresh.append((seq, name))
        if newest < self.last_changelog_seq:
            # The changelog's newest entry is *older* than one we have
            # already consumed.  Nothing ever trims the changelog, so
            # consumed history can only vanish one way: a deposed
            # leader's applied tail was truncated by snapshot sync
            # (zk/server._on_commit), taking reassignments we acted on
            # with it.  The incremental path is blind to this — it only
            # looks forward from ``last_changelog_seq`` — so the ring
            # would diverge permanently.  Reload everything and
            # re-anchor the sequence.  (A rollback whose history is
            # re-minted past our position before we look is still
            # healed lazily by the reject→invalidate path.)
            before = self.ring.snapshot()
            yield from self.load_full()
            return sum(1 for a, b in zip(before, self.ring.snapshot())
                       if a != b)
        fresh.sort()
        touched: set[int] = set()
        for seq, name in fresh:
            try:
                data, _ = yield from self.zk.get(f"{ZkLayout.CHANGELOG}/{name}")
                touched.add(int(data.decode()))
            except NoNodeError:
                # Trimmed entry: nothing left to read, but its sequence
                # is consumed all the same — otherwise every later
                # refresh re-fetches the same dead entries forever.
                pass
            self.last_changelog_seq = seq
        changes = 0
        for vnode_id in sorted(touched):
            try:
                data, _ = yield from self.zk.get(ZkLayout.vnode(vnode_id))
                self.vnode_reads += 1
                owner = data.decode()
            except NoNodeError:
                owner = Ring.UNASSIGNED
            if self.ring.owner(vnode_id) != owner:
                self.ring.assign(vnode_id, owner)
                changes += 1
        return changes

    def invalidate(self, vnode_id: int):
        """Targeted re-read after a 'reject'/'timeout' (§III.E strategy 1)."""
        self.invalidations += 1
        try:
            data, _ = yield from self.zk.get(ZkLayout.vnode(vnode_id))
            self.vnode_reads += 1
            self.ring.assign(vnode_id, data.decode())
        except NoNodeError:
            self.ring.assign(vnode_id, Ring.UNASSIGNED)

    # -- lease loop --------------------------------------------------------
    def start_lease_loop(self) -> None:
        """Spawn the periodic sync process (strategy 2)."""
        if self._running:
            return
        self._running = True
        # Each spawn gets a fresh generation token: a stopped loop that
        # is still asleep when the next one starts must retire at its
        # wakeup instead of being revived by the shared flag (which
        # would leave two concurrent sync processes running).
        self._generation += 1
        self.sim.process(self._lease_loop(self._generation),
                         name=f"{self.zk.name}-lease")

    def stop(self) -> None:
        """Stop the lease loop at its next wakeup."""
        self._running = False

    def _alive(self, generation: int) -> bool:
        return (self._running and self._generation == generation
                and self.zk.rpc.endpoint.up)

    def _lease_loop(self, generation: int):
        while self._alive(generation):
            # Read per round: the adaptive lease length changes.
            yield self.sim.timeout(self.lease)
            if not self._alive(generation):
                return
            changes = yield from self.refresh()
            if self.adaptive:
                if changes > 0:
                    # "lease time will reduce to half if there are lots of
                    # changes in ZooKeeper in last lease time"
                    self.lease = max(LEASE_MIN, self.lease / 2)
                else:
                    # "...and grow to double if no change in last lease time"
                    self.lease = min(LEASE_MAX, self.lease * 2)

    # -- lookups -----------------------------------------------------------
    def replicas_for_key(self, encoded_key: str) -> tuple[int, list[str]]:
        """(vnode, replica list) from the cached ring.

        Every lookup answered from the local cache is a ZooKeeper read
        *avoided*; ``cache.lookups`` vs ``zk.reads`` in a snapshot is
        the cache-effectiveness ratio of §III.E."""
        self.lookups += 1
        return self.ring.replicas_for_key(encoded_key, self.config.replicas)
