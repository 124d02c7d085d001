"""Sedna's cluster state in ZooKeeper: its layout, the mapping cache,
and :class:`Placement`, every other read and write of it.

§III.E gives Sedna three strategies against the ZooKeeper read
bottleneck, all implemented by :class:`MappingCache`:

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

§III.D puts all node management in ZooKeeper; :meth:`Placement.rewrite`
is the one writer of a vnode entry.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Optional

from ..net.rpc import RpcRejected, RpcTimeout
from ..net.simulator import Simulator
from ..obs.metrics import DISABLED
from ..zk.client import ZkClient
from ..zk.znode import BadVersionError, NodeExistsError, NoNodeError
from .config import SednaConfig
from .hashring import ImbalanceTable, Ring

__all__ = ["ZkLayout", "MappingCache", "Placement", "create_namespace"]

#: Bounds of the adaptive lease (§III.E, simulated seconds): the floor
#: after repeated halving under churn, the cap after repeated doubling
#: on a quiet cluster.
LEASE_MIN = 0.25
LEASE_MAX = 16.0

#: Concurrent vnode-acquisition workers during a join (§III.D; paper:
#: 8-16).
RETRIEVAL_THREADS = 8


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


def create_namespace(zk: ZkClient, num_vnodes: int,
                     owners: Optional[list[str]] = None):
    """Create the ``/sedna`` tree, config marker last; False, having
    created nothing, when the root exists.  Both bootstraps build it:
    ``join``'s first node with every vnode unassigned, ``assign`` with
    its balanced ``owners``."""
    try:
        yield from zk.create(ZkLayout.ROOT, b"")
    except NodeExistsError:
        return False
    for path in (ZkLayout.REAL_NODES, ZkLayout.VNODES,
                 ZkLayout.CHANGELOG, ZkLayout.IMBALANCE):
        yield from zk.create(path, b"")
    for vnode_id in range(num_vnodes):
        owner = Ring.UNASSIGNED if owners is None else owners[vnode_id]
        yield from zk.create(ZkLayout.vnode(vnode_id), owner.encode())
    yield from zk.create(ZkLayout.CONFIG, str(num_vnodes).encode())
    return True


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
        entries = yield from self._changelog()
        seq = max(entries or (), default=-1)
        for vnode_id in range(self.config.num_vnodes):
            owner = yield from self._read_owner(vnode_id)
            self.ring.assign(vnode_id, owner)
        self.last_changelog_seq = seq
        self.loaded = True

    def _read_owner(self, vnode_id: int):
        """One vnode entry's owner as ZooKeeper holds it."""
        try:
            data, _stat = yield from self.zk.get(ZkLayout.vnode(vnode_id))
        except NoNodeError:
            return Ring.UNASSIGNED
        self.vnode_reads += 1
        return data.decode()

    def _reload(self):
        """A full load; returns how many vnodes it changed."""
        before = self.ring.snapshot()
        yield from self.load_full()
        return sum(1 for a, b in zip(before, self.ring.snapshot()) if a != b)

    def _changelog(self):
        """Changelog sequence -> entry name; None with no changelog."""
        try:
            children = yield from self.zk.get_children(ZkLayout.CHANGELOG)
        except NoNodeError:
            return None
        return {int(name.rsplit("-", 1)[1]): name for name in children}

    # -- incremental refresh ----------------------------------------------
    def refresh(self):
        """One sync pass; returns the number of vnodes that changed."""
        if not self.use_changelog:
            # Fall back to re-reading the full assignment.
            return (yield from self._reload())
        self.incremental_refreshes += 1
        entries = yield from self._changelog()
        if entries is None:
            return 0
        if max(entries, default=-1) < self.last_changelog_seq:
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
            return (yield from self._reload())
        fresh = sorted((seq, name) for seq, name in entries.items()
                       if seq > self.last_changelog_seq)
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
            owner = yield from self._read_owner(vnode_id)
            if self.ring.owner(vnode_id) != owner:
                self.ring.assign(vnode_id, owner)
                changes += 1
        return changes

    def invalidate(self, vnode_id: int):
        """Targeted re-read after a 'reject'/'timeout' (§III.E strategy 1)."""
        self.invalidations += 1
        owner = yield from self._read_owner(vnode_id)
        self.ring.assign(vnode_id, owner)

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


class Placement:
    """One node's reads and writes of the cluster state (§III.D–E),
    planned from its cached ring (``cache``, rebound on restart); the
    node moves the data that follows from what these return."""

    def __init__(self, cache: MappingCache, name: str):
        self.cache = cache
        self.sim, self.zk, self.config = cache.sim, cache.zk, cache.config
        self.name = name

    # -- membership ----------------------------------------------------------
    def register(self):
        """Create the namespace when first (§III.E: 'it only happens
        once when the Sedna cluster firstly starts up'), else wait for
        the initializer's config marker; then create this node's
        ephemeral liveness znode."""
        if not (yield from create_namespace(self.zk, self.config.num_vnodes)):
            while (yield from self.zk.exists(ZkLayout.CONFIG)) is None:
                yield self.sim.timeout(0.2)
        try:
            yield from self.zk.create(ZkLayout.real_node(self.name), b"",
                                      ephemeral=True)
        except NodeExistsError:
            pass  # stale ephemeral from a fast restart; session replaces it

    def confirm_dead(self, name: str):
        """True when ZooKeeper confirms ``name``'s ephemeral is gone
        ("check their existence by asking the ZooKeeper service",
        §III.D); False when it lives or ZooKeeper cannot be asked."""
        try:
            stat = yield from self.zk.exists(ZkLayout.real_node(name))
        except (RpcTimeout, RpcRejected):
            return False
        return stat is None

    # -- the one writer ------------------------------------------------------
    def rewrite(self, vnode_id: int, new_owner: str,
                replaceable: Callable[[str], bool], adopt: bool = True):
        """Version-checked move of one vnode entry to ``new_owner``;
        the owner it replaced, or None when it wrote nothing (the entry
        named ``new_owner``, or ``replaceable`` refused its owner: both
        adopted into the ring, a refused one only if ``adopt``).  The
        set and its changelog entry are ONE transaction: a set whose
        append was lost would leave every changelog-following cache
        stale on that vnode.  ZooKeeper errors, a lost version race
        included, propagate."""
        data, stat = yield from self.zk.get(ZkLayout.vnode(vnode_id))
        owner = data.decode()
        if owner == new_owner or not replaceable(owner):
            if adopt or owner == new_owner:
                self.cache.ring.assign(vnode_id, owner)
            return None
        yield from self.zk.multi([
            self.zk.op_set(ZkLayout.vnode(vnode_id), new_owner.encode(),
                           version=stat["version"]),
            self.zk.op_create(f"{ZkLayout.CHANGELOG}/e-",
                              str(vnode_id).encode(), sequential=True),
        ])
        self.cache.ring.assign(vnode_id, new_owner)
        return owner

    # -- join claims (§III.D) ------------------------------------------------
    def acquire(self, took_over):
        """Claim a fair share of vnodes, :data:`RETRIEVAL_THREADS`
        workers at once; a worker runs ``took_over(vnode, previous
        owner)`` after each claim."""
        live = yield from self.zk.get_children(ZkLayout.REAL_NODES)
        target = max(1, math.ceil(self.config.num_vnodes / max(1, len(live))))
        ring = self.cache.ring
        counts = ring.load_counts()
        mine = len(ring.vnodes_of(self.name))
        # Work list: unassigned vnodes first, then vnodes of overloaded owners.
        queue = ring.unassigned() + [
            v for v, owner in enumerate(ring.assignment)
            if owner not in (Ring.UNASSIGNED, self.name)
            and counts.get(owner, 0) > target]
        # A fresh joiner (one that owns nothing yet) starts its walk at
        # its own slice, so concurrent joiners do not race for the same
        # vnodes; a lone joiner and a node that owns some walk from 0.
        fresh = sorted(name for name in live if name not in counts)
        if self.name in fresh and len(fresh) > 1:
            offset = fresh.index(self.name) * len(queue) // len(fresh)
            queue = queue[offset:] + queue[:offset]
        queue.reverse()

        def worker():
            nonlocal mine
            while queue and mine < target:
                if (yield from self._claim(queue.pop(), target, took_over)):
                    mine += 1

        workers = [self.sim.process(worker(), name=f"{self.name}-acq{i}")
                   for i in range(RETRIEVAL_THREADS)]
        for proc in workers:
            yield proc

    def _claim(self, vnode_id: int, target: int, took_over):
        """Claim a vnode that is unassigned or whose owner is still over
        ``target``; True on success.  A foreign owner is left to the
        lease loop, not adopted."""
        try:
            previous = yield from self.rewrite(
                vnode_id, self.name,
                lambda owner: (owner == Ring.UNASSIGNED
                               or self.cache.ring.load_of(owner) > target),
                adopt=False)
        except (BadVersionError, NoNodeError):
            return False  # raced with another joiner
        if previous is None:
            return False
        yield from took_over(vnode_id, previous)
        return True

    # -- lazy recovery (§III.C) ----------------------------------------------
    def recover(self, dead: str, vnode_id: int):
        """Give the walk positions that placed ``dead`` in this vnode's
        replica set to the least-loaded live node; ``(moved, before)``,
        the positions rewritten and every vnode's replica set before, or
        None.  A rewritten position shifts the walk of *every* vnode
        crossing it, so the caller re-duplicates each vnode's rows to
        each member its current set has and ``before`` lacks."""
        n = self.config.replicas
        positions = self.cache.ring.walk_positions(vnode_id, n)
        dead_positions = [v for v, owner in positions if owner == dead]
        if not dead_positions:
            return None
        try:
            live = yield from self.zk.get_children(ZkLayout.REAL_NODES)
        except (RpcTimeout, RpcRejected, NoNodeError):
            return None
        others = [name for name in live if name != dead]
        current = {owner for _v, owner in positions}
        candidates = [name for name in others if name not in current] or others
        if not candidates:
            return None
        ring = self.cache.ring
        counts = ring.load_counts()
        candidates.sort(key=lambda name: (counts.get(name, 0), name))
        before = {v: set(ring.replicas_for(v, n))
                  for v in range(self.config.num_vnodes)}
        moved = 0
        for position in dead_positions:
            try:
                if (yield from self.rewrite(position, candidates[0],
                                            lambda owner: owner == dead)):
                    moved += 1
            except (BadVersionError, NoNodeError, RpcTimeout, RpcRejected):
                continue
        return moved, before

    # -- imbalance table (§III.B) --------------------------------------------
    def publish_imbalance(self, row: dict):
        """Write this node's imbalance-table row.  Ownership comes from
        the (lease-synced) ring, not from the row's touched-vnode
        statuses — a node may own cold vnodes."""
        path = ZkLayout.imbalance(self.name)
        row["vnodes"] = len(self.cache.ring.vnodes_of(self.name))
        payload = repr(row).encode()
        try:
            yield from self.zk.set(path, payload)
        except NoNodeError:
            try:
                yield from self.zk.create(path, payload)
            except (NodeExistsError, NoNodeError):
                pass
        except (RpcTimeout, RpcRejected):
            pass

    def read_imbalance(self):
        """``(table, live names, rows dropped)``: the imbalance rows of
        the registered nodes; a departed node's row is deleted."""
        table = ImbalanceTable()
        dropped = 0
        live = set((yield from self.zk.get_children(ZkLayout.REAL_NODES)))
        try:
            rows = yield from self.zk.get_children(ZkLayout.IMBALANCE)
        except NoNodeError:
            return table, live, dropped
        for name in rows:
            path = ZkLayout.imbalance(name)
            try:
                if name not in live:
                    yield from self.zk.delete(path)
                    dropped += 1
                    continue
                data, _ = yield from self.zk.get(path)
                table.update(name, ast.literal_eval(data.decode()))
            except (NoNodeError, BadVersionError, ValueError, SyntaxError):
                continue
        return table, live, dropped
