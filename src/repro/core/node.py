"""SednaNode — one real node of the Sedna cluster.

Every server in the data center runs the same components (§III.A):

* the **local memory storage** (a :class:`VersionedStore`, the
  "modified Memcached" of §VI) holding the replicas of the virtual
  nodes this server participates in;
* the **Sedna service**: the RPC surface.  Any node can act as the
  *coordinator* for a client request — the shared
  :class:`~repro.core.coordinator.QuorumCoordinator` hashes the key to
  a virtual node, fans the operation out to all N replicas in parallel
  and answers once the R/W quorum is met (§III.C);
* the **ZooKeeper client**: ephemeral registration under
  ``/sedna/real_nodes``, the mapping cache with adaptive lease, and the
  periodic imbalance-table push (§III.D–E);
* **lazy recovery**: a replica that times out or refuses during a
  read/write triggers an asynchronous investigation — if ZooKeeper
  confirms the node is gone, the affected assignment entries are
  rewritten and the lost replica re-duplicated from a healthy copy
  (§III.C);
* the configured **persistence strategy** (none / snapshot / WAL).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Optional

from ..net.latency import LOCAL_STORE_OP, REQUEST_HANDLING
from ..net.rpc import RpcNode, RpcRejected, RpcTimeout, Sized, unsized
from ..net.simulator import Event, Simulator
from ..net.transport import Network, estimate_size
from ..obs.metrics import VnodeStatsFeed
from ..persistence.disk import SimDisk
from ..persistence.strategy import make_strategy
from ..storage.versioned import (ValueElement, VersionedStore, WriteOutcome,
                                 unwire_context, unwire_dvv_row,
                                 wire_dvv_row)
from ..zk.client import ZkClient
from ..zk.server import ZkConfig
from ..zk.znode import BadVersionError, NodeExistsError, NoNodeError
from .antientropy import digest_diff, dvv_digest_diff
from .cache import MappingCache, ZkLayout
from .config import SednaConfig
from .coordinator import (OPS, QuorumCoordinator, unwire_elements,
                          wire_elements)
from .hashring import Ring, VnodeStatus

__all__ = ["SednaNode"]

# The batched replica replies are sized from their shape (see
# repro.net.rpc.Sized): a fixed skeleton plus, per key, its string and
# its status or row.  Keys are encoded full keys, so strings.
_MWRITE_BASE = estimate_size({"statuses": {}}, 1)
_MREAD_BASE = estimate_size({"rows": {}, "lww": {}}, 1)


def _mread_row_size(wire: list) -> int:
    """``estimate_size(wire, 3)``: a wire row where ``replica.mread``
    puts it (reply, ``rows``, row), by its shape when the element
    holds the usual string source, float timestamp and string value."""
    size = 8
    for element in wire:
        source, ts, value = element
        if type(source) is str and type(ts) is float and type(value) is str:
            size += 16 + len(source) + len(value)
        else:
            size += estimate_size(element, 4)
    return size


class SednaNode:
    """One Sedna real node (storage replica + request coordinator)."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 zk_servers: list[str], config: Optional[SednaConfig] = None,
                 zk_config: Optional[ZkConfig] = None,
                 disk: Optional[SimDisk] = None, obs=None):
        self.sim = sim
        self.network = network
        self.name = name
        self.config = config if config is not None else SednaConfig()
        # Observability bundle (repro.obs.Observability), optional.
        self.obs = obs
        metrics = obs.metrics if obs is not None else None
        if metrics is None:
            from ..obs.metrics import DISABLED
            handles = DISABLED
        else:
            handles = metrics
        self.rpc = RpcNode(network, name, service_time=REQUEST_HANDLING)
        self.zk = ZkClient(sim, network, f"{name}-zk", zk_servers, zk_config,
                           metrics=metrics)
        self.disk = disk if disk is not None else SimDisk()
        self._reset_volatile()
        self.coordinator = QuorumCoordinator(
            sim, self.rpc, self.cache, self.config,
            local_name=name, local_dispatch=self._local_dispatch,
            on_suspect=self._maybe_investigate, obs=obs)
        self.running = False

        # Dedup of in-flight failure investigations.
        self._investigating: set[tuple[str, int]] = set()

        # Live-migration state (donor side).  While a vnode id is in
        # ``migrating_out`` every write/delete landing on it is applied
        # locally *and* forwarded to the receiver, so no acked write is
        # stranded on the donor when the assignment flips; the window
        # lingers for a couple of lease periods past the cutover to
        # cover stale-cache stragglers.  ``_migration_snaps`` holds the
        # sorted key snapshot the chunk stream walks; the generation
        # counter invalidates a pending linger-close when the same
        # vnode re-enters migration.
        self.migrating_out: dict[int, str] = {}
        self._migration_snaps: dict[int, list[str]] = {}
        self._migration_gen: dict[int, int] = {}

        # Stats.
        self.replica_writes = 0
        self.replica_reads = 0
        self.investigations = 0
        self.recoveries = 0
        self.repairs = 0
        self.migration_forwards = 0
        self.migration_forward_failures = 0
        self._m_forwards = handles.counter("migrate.forwards", node=name)
        self._m_forward_fails = handles.counter(
            "migrate.forward_failures", node=name)
        self._m_chunks_served = handles.counter(
            "migrate.chunks_served", node=name)

        self._register_rpc()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _reset_volatile(self) -> None:
        """Build, empty, what a crash loses: mapping cache, store,
        vnode index, persistence strategy (its disk survives).  Both
        construction and :meth:`restart` come through here, so a
        restarted node cannot drift from a new one."""
        metrics = self.obs.metrics if self.obs is not None else None
        self.cache = MappingCache(self.sim, self.zk, self.config,
                                  metrics=metrics, owner=self.name)
        self.store = VersionedStore(
            clock=lambda: self.sim.now, metrics=metrics, node=self.name,
            dvv_sibling_cap=self.config.dvv_sibling_cap)
        self.persistence = make_strategy(self.config.persistence, self.disk,
                                         self.name,
                                         self.config.snapshot_interval)
        # Vnode-local bookkeeping.  The per-vnode stats feed is the
        # single source of the read/write frequencies behind the
        # imbalance table (§III.B); ``vnode_status`` stays as an alias
        # of the feed's mapping for handoff/GC code and tests.
        self.vnode_keys: dict[int, set[str]] = {}
        self.vstats = VnodeStatsFeed(self.name, VnodeStatus)
        self.vnode_status: dict[int, VnodeStatus] = self.vstats.statuses
        if self.obs is not None:
            self.obs.metrics.register_feed(self.vstats)

    def _register_rpc(self) -> None:
        r = self.rpc.register
        # Client-facing coordinator API: every method of the op table,
        # one handler.
        for method in OPS:
            r(method, partial(self._h_coordinate, method))
        # Replica-to-replica API.
        r("replica.write", self._h_replica_write)
        r("replica.read", self._h_replica_read)
        r("replica.cwrite", self._h_replica_cwrite)
        r("replica.cmerge", self._h_replica_cmerge)
        r("replica.cread", self._h_replica_cread)
        r("replica.delete", self._h_replica_delete)
        r("replica.mwrite", self._h_replica_mwrite)
        r("replica.mread", self._h_replica_mread)
        r("replica.mdelete", self._h_replica_mdelete)
        r("replica.transfer", self._h_replica_transfer)
        r("replica.install", self._h_replica_install)
        r("replica.repair", self._h_replica_repair)
        r("replica.digest", self._h_replica_digest)
        r("replica.fetch", self._h_replica_fetch)
        # Liveness probe for the failure detector.  Registered here so
        # the wire surface is complete before the endpoint serves any
        # traffic; attaching a detector later must not widen it.
        r("replica.ping", lambda src, args: "pong")
        # Live-migration protocol (rebalancer-driven, §III.B extension).
        r("stats.vnodes", self._h_vnode_stats)
        r("migrate.begin", self._h_migrate_begin)
        r("migrate.chunk", self._h_migrate_chunk)
        r("migrate.forward", self._h_migrate_forward)
        r("migrate.end", self._h_migrate_end)
        r("migrate.settle", self._h_migrate_settle)

    # ------------------------------------------------------------------
    # Membership (§III.D)
    # ------------------------------------------------------------------
    def join(self):
        """The full join protocol; run as ``yield from node.join()``.

        1. local store is already up (constructed);
        2. connect to ZooKeeper, run the initial procedure when first;
        3. register the ephemeral liveness znode;
        4. load the mapping and acquire virtual nodes with
           ``retrieval_threads`` concurrent workers;
        5. start the lease loop, imbalance pusher and persistence.
        """
        yield from self.zk.connect()
        yield from self._ensure_initialized()
        try:
            yield from self.zk.create(ZkLayout.real_node(self.name), b"",
                                      ephemeral=True)
        except NodeExistsError:
            pass  # stale ephemeral from a fast restart; session replaces it
        yield from self.cache.load_full()
        yield from self._acquire_vnodes()
        self.cache.start_lease_loop()
        self.sim.process(self._imbalance_pusher(),
                         name=f"{self.name}-imbalance")
        self.persistence.start(self.sim, self._rows_for_persistence)
        recovered = self.persistence.recover()
        for key, elements in recovered.items():
            self.store.merge_elements(key, elements)
            self._index_key(key)
        self.running = True
        return self.name

    def _rows_for_persistence(self) -> dict:
        return {key: list(row.elements)
                for key, row in self.store.rows.items()}

    def _ensure_initialized(self):
        """First node creates the whole /sedna namespace (§III.E: 'it
        only happens once when the Sedna cluster firstly starts up')."""
        try:
            yield from self.zk.create(ZkLayout.ROOT, b"")
            initializer = True
        except NodeExistsError:
            initializer = False
        if initializer:
            for path in (ZkLayout.REAL_NODES, ZkLayout.VNODES,
                         ZkLayout.CHANGELOG, ZkLayout.IMBALANCE):
                yield from self.zk.create(path, b"")
            for vnode_id in range(self.config.num_vnodes):
                yield from self.zk.create(ZkLayout.vnode(vnode_id), b"")
            yield from self.zk.create(
                ZkLayout.CONFIG,
                str(self.config.num_vnodes).encode())
            return
        # Someone else is initializing: wait for the config marker.
        while True:
            stat = yield from self.zk.exists(ZkLayout.CONFIG)
            if stat is not None:
                return
            yield self.sim.timeout(0.2)

    def _acquire_vnodes(self):
        """Claim a fair share of virtual nodes, concurrently (§III.D)."""
        live = yield from self.zk.get_children(ZkLayout.REAL_NODES)
        target = max(1, math.ceil(self.config.num_vnodes / max(1, len(live))))
        counts = self.cache.ring.load_counts()
        mine = len(self.cache.ring.vnodes_of(self.name))
        # Work list: unassigned vnodes first, then vnodes of overloaded owners.
        candidates = self.cache.ring.unassigned()
        overloaded = [v for v, owner in enumerate(self.cache.ring.assignment)
                      if owner not in (Ring.UNASSIGNED, self.name)
                      and counts.get(owner, 0) > target]
        candidates.extend(overloaded)
        queue = list(reversed(candidates))
        state = {"mine": mine}

        def worker():
            while queue and state["mine"] < target:
                vnode_id = queue.pop()
                claimed = yield from self._try_claim(vnode_id, target)
                if claimed:
                    state["mine"] += 1

        workers = [self.sim.process(worker(), name=f"{self.name}-acq{i}")
                   for i in range(self.config.retrieval_threads)]
        for proc in workers:
            yield proc

    def _try_claim(self, vnode_id: int, target: int):
        """Version-checked claim of one vnode; True on success."""
        try:
            data, stat = yield from self.zk.get(ZkLayout.vnode(vnode_id))
        except NoNodeError:
            return False
        owner = data.decode()
        if owner == self.name:
            self.cache.ring.assign(vnode_id, owner)
            return False
        if owner != Ring.UNASSIGNED:
            counts = self.cache.ring.load_counts()
            if counts.get(owner, 0) <= target:
                return False  # no longer overloaded
        try:
            yield from self.write_assignment(vnode_id, self.name,
                                             stat["version"])
        except (BadVersionError, NoNodeError):
            return False  # raced with another joiner
        self.cache.ring.assign(vnode_id, self.name)
        status = self.vnode_status.setdefault(vnode_id, VnodeStatus())
        if owner != Ring.UNASSIGNED:
            # The claim-time pull gives us the vnode's history up to
            # now, but coordinators with stale mapping caches keep
            # routing writes to the old replica set for up to a lease;
            # serve no reads until that window is swept.
            status.warming = True
            yield from self._pull_vnode(vnode_id, owner)
            self.sim.process(self._finish_handoff(vnode_id, owner, status),
                             name=f"{self.name}-handoff-{vnode_id}")
        return True

    def _finish_handoff(self, vnode_id: int, predecessor: str,
                        status: VnodeStatus):
        """Close the handoff race window for a claimed vnode.

        Writes acknowledged by the old replica set after our claim-time
        pull would be invisible here; once every mapping cache has had
        a lease period to catch up, re-pull the predecessor's rows and
        digest-sync with the other current replicas, then start
        answering reads.

        The catch-up must actually *succeed* before warming clears — a
        predecessor that crashed mid-churn would otherwise silently
        re-open the stale-read window warming exists to close.  Any
        write acked by the old W-quorum lives on at least one member
        of the current set besides the predecessor, so a complete
        digest-sync (every peer contacted) is as good as the pull.
        Failures retry a bounded number of times before availability
        wins and reads resume anyway.
        """
        try:
            yield self.sim.timeout(self.config.lease_base * 2)
            for _attempt in range(5):
                if not self.running:
                    return
                pulled = yield from self._pull_vnode(vnode_id, predecessor)
                _pl, _ps, failed_peers = yield from self.reconcile_vnode(
                    vnode_id)
                if pulled or failed_peers == 0:
                    return
                yield self.sim.timeout(self.config.lease_base)
        finally:
            status.warming = False

    def write_assignment(self, vnode_id: int, owner: str, version: int):
        """Version-checked ownership rewrite plus its changelog entry,
        as ONE transaction.

        The two writes must be atomic: if the mapping set applied but
        the changelog append was lost (response dropped, client died
        between the calls), every cache following the changelog would
        stay stale on that vnode forever.
        """
        yield from self.zk.multi([
            self.zk.op_set(ZkLayout.vnode(vnode_id), owner.encode(),
                           version=version),
            self.zk.op_create(f"{ZkLayout.CHANGELOG}/e-",
                              str(vnode_id).encode(), sequential=True),
        ])

    def reassign(self, vnode_id: int, expected_owner: str, new_owner: str):
        """Version-checked ownership move in ZooKeeper + changelog; True
        when this call moved the vnode.  If someone else (a concurrent
        recovery or rebalancer) rewrote the entry first, their choice is
        adopted into the local ring.  ZooKeeper errors, a lost version
        race included, propagate: each caller has its own policy."""
        data, stat = yield from self.zk.get(ZkLayout.vnode(vnode_id))
        owner = data.decode()
        if owner != expected_owner:
            self.cache.ring.assign(vnode_id, owner)
            return False
        yield from self.write_assignment(vnode_id, new_owner,
                                         stat["version"])
        self.cache.ring.assign(vnode_id, new_owner)
        return True

    def _pull_vnode(self, vnode_id: int, source: str,
                    target: Optional[str] = None):
        """Copy a vnode's rows from ``source`` into the local store or,
        given another node as ``target``, relay them there."""
        timeout = self.config.request_timeout * 4
        try:
            bundle = yield from self.rpc.call(
                source, "replica.transfer", {"vnode": vnode_id},
                timeout=timeout)
        except (RpcTimeout, RpcRejected):
            return False
        if target in (None, self.name):
            self._import_rows(bundle)
            return True
        return (yield from self._push_rows(target, vnode_id, bundle,
                                           timeout))

    def _merge_durably(self, key: str, elements: list[ValueElement],
                       lww: Optional[bool] = None) -> None:
        """Merge foreign elements and log them to persistence — migrated
        replicas must survive a power loss just like written ones.

        ``lww`` is the sender's knowledge of the row's write mode, so
        merges into collapsed ``write_latest`` rows prune superseded
        sources instead of re-inflating the value list.
        """
        self.store.merge_elements(key, elements, lww=lww)
        self._index_key(key)
        for element in elements:
            self.persistence.on_write(key, element)

    def _lww_flags(self, keys) -> dict[str, bool]:
        """Write-mode flags for the given keys (known modes only) —
        shipped beside every bulk row payload so receivers merge with
        the right discipline."""
        flags = {}
        for key in keys:
            row = self.store.rows.get(key)
            if row is not None and row.lww is not None:
                flags[key] = row.lww
        return flags

    def _export_rows(self, keys, dvv_keys=None) -> dict:
        """The *row bundle* ``{"rows", "lww", "dvv_rows"}`` for ``keys``
        (causal rows for ``dvv_keys``, by default the same keys) — the
        one wire format of every bulk path (docs/protocols.md §5.1).
        Absent rows are left out; entries keep the caller's key order,
        which is wire-visible."""
        rows = {}
        for key in keys:
            elements = self.store.read_all(key)
            if elements:
                rows[key] = wire_elements(elements)
        dvv_rows = {}
        for key in keys if dvv_keys is None else dvv_keys:
            drow = self.store.dvv_rows.get(key)
            if drow is not None:
                dvv_rows[key] = wire_dvv_row(drow)
        return {"rows": rows, "lww": self._lww_flags(rows),
                "dvv_rows": dvv_rows}

    def _import_rows(self, bundle: dict) -> int:
        """Merge a row bundle into the local store in sender order;
        returns the rows it brought (every LWW row plus each causal row
        that changed ours).  Both merges are idempotent and per-key
        commutative: a bundle delivered twice, or two in either order,
        leave the same store.  Causal rows are not logged to
        persistence: the DVV mode is an in-memory replication mode;
        durability across power loss comes from the replica set, not
        the disk strategies (documented in docs/protocols.md §16)."""
        flags = bundle.get("lww", {})
        for key, blob in bundle["rows"].items():
            self._merge_durably(key, unwire_elements(blob),
                                lww=flags.get(key))
        merged = len(bundle["rows"])
        for key, blob in (bundle.get("dvv_rows") or {}).items():
            merged += self.store.causal_merge(key, unwire_dvv_row(blob))
            self._index_key(key)
        return merged

    def _push_rows(self, peer: str, vnode_id: int, bundle: dict,
                   timeout: float):
        """Install a row bundle on ``peer``; True when it acked."""
        try:
            yield from self.rpc.call(peer, "replica.install",
                                     {"vnode": vnode_id, **bundle},
                                     timeout=timeout)
        except (RpcTimeout, RpcRejected):
            return False
        return True

    def _imbalance_pusher(self):
        """Periodically publish this node's imbalance-table row (§III.B)."""
        path = ZkLayout.imbalance(self.name)
        interval = self.config.imbalance_push_interval
        while True:
            yield self.sim.timeout(interval)
            if not (self.running and self.rpc.endpoint.up):
                return
            # The row is the stats feed's aggregate — the same numbers
            # an obs snapshot exports per vnode, so the published table
            # and the metrics can never disagree.
            row = self.vstats.row()
            # Ownership comes from the (lease-synced) ring, not from the
            # touched-vnode statuses — a node may own cold vnodes.
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

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the node: memory gone, endpoints dark, disk survives."""
        self.running = False
        self.rpc.endpoint.crash()
        self.zk.crash()
        self.cache.stop()
        self.persistence.stop()
        # Any in-flight migration window dies with the memory; the
        # rebalancer's ledger notices the dead donor and aborts/retries.
        self.migrating_out.clear()
        self._migration_snaps.clear()
        self._migration_gen.clear()

    def restart(self):
        """Restart after a crash: fresh memory, recover from disk, rejoin.

        Run as ``yield from node.restart()``.
        """
        self.rpc.endpoint.restart()
        self.zk.rpc.endpoint.restart()
        self.zk.session_id = None
        self.zk.expired = False
        self._reset_volatile()
        self.coordinator.cache = self.cache
        yield from self.join()

    # ------------------------------------------------------------------
    # Local indexing helpers
    # ------------------------------------------------------------------
    def _index_key(self, key: str) -> None:
        self._index_keys((key,))

    def _index_keys(self, keys) -> None:
        """Add keys to the vnode index; each touched vnode's key count
        is set once, not once per key."""
        vnode_of = self.cache.ring.vnode_of
        vnode_keys = self.vnode_keys
        touched = {}
        for key in keys:
            vnode_id = vnode_of(key)
            indexed = vnode_keys.get(vnode_id)
            if indexed is None:
                indexed = vnode_keys[vnode_id] = set()
            indexed.add(key)
            touched[vnode_id] = indexed
        for vnode_id, indexed in touched.items():
            self.vstats.status(vnode_id).keys = len(indexed)

    def _status(self, vnode_id: int) -> VnodeStatus:
        return self.vstats.status(vnode_id)

    # ------------------------------------------------------------------
    # Replica-side handlers (the storage plane)
    # ------------------------------------------------------------------
    def _guard_owner(self, vnode_id: int) -> None:
        """Refuse a replica op on a vnode this node does not replicate.

        Our mapping may be stale too: re-read it while refusing
        (§III.E strategy 1 works on both sides of the RPC).
        """
        if not self.cache.loaded:
            return
        replicas = self.cache.ring.replicas_for(vnode_id,
                                                self.config.replicas)
        if self.name not in replicas:
            self.sim.process(self.cache.invalidate(vnode_id))
            raise RpcRejected("not-owner")

    def _guard_warm(self, vnode_id: int) -> None:
        """Refuse reads mid-handoff: answering now could miss writes
        still routed to the old replica set through stale caches."""
        status = self.vnode_status.get(vnode_id)
        if status is not None and status.warming:
            raise RpcRejected("warming")

    # Each single-key handler is the one-entry case of its batch
    # sibling: the local computation is shared, only the reply keeps
    # its own wire shape (sizes feed the latency model).

    def _apply_writes(self, vnode_id: int, entries: list) -> dict[str, str]:
        """Apply a vnode-group of writes: one ownership check, one
        forward to a migration receiver, one stats update per touched
        vnode; per-key outcomes (a key sent twice reports its last
        entry's).  Each applied entry is logged by its own outcome."""
        self._guard_owner(vnode_id)
        self.replica_writes += len(entries)
        self.vstats.record_write(vnode_id, len(entries))
        store = self.store
        statuses = {}
        outcomes = []
        for e in entries:
            write = (store.write_latest if e["mode"] == "latest"
                     else store.write_all)
            outcome = write(e["key"], e["value"], e["ts"], e["source"])
            statuses[e["key"]] = outcome
            outcomes.append(outcome)
        self._index_keys(statuses)
        persistence = self.persistence
        if persistence.logs_writes:
            for e, outcome in zip(entries, outcomes):
                if outcome == WriteOutcome.OK:
                    persistence.on_write(e["key"], ValueElement(
                        e["source"], e["ts"], e["value"]))
        receiver = self._forward_target(vnode_id)
        if receiver is not None:
            self._spawn_forward(
                receiver, vnode_id,
                rows={e["key"]: [(e["source"], e["ts"], e["value"])]
                      for e in entries},
                lww={e["key"]: e["mode"] == "latest" for e in entries})
        return statuses

    def _after_flush(self, reply: dict):
        """``reply``, held back by the persistence strategy's write
        delay (one flush for the whole group)."""
        delay = self.persistence.write_delay()
        if delay <= 0.0:
            return reply
        ev = self.sim.event()
        self.sim.schedule_callback(delay, lambda: ev.succeed(reply))
        return ev

    def _h_replica_write(self, src: str, args: Any):
        statuses = self._apply_writes(args["vnode"], [args])
        return self._after_flush({"status": statuses[args["key"]]})

    def _h_replica_mwrite(self, src: str, args: Any):
        """Batched replica.write with per-key outcomes."""
        statuses = self._apply_writes(args["vnode"], args["entries"])
        size = (_MWRITE_BASE + sum(map(len, statuses))
                + sum(map(len, statuses.values())))
        return self._after_flush(Sized({"statuses": statuses}, size))

    def _read_rows(self, vnode_id: int, keys: list) -> dict:
        """Every element of each key, after one ownership/warming check."""
        self._guard_owner(vnode_id)
        self._guard_warm(vnode_id)
        self.replica_reads += len(keys)
        self.vstats.record_read(vnode_id, len(keys))
        read_all = self.store.read_all
        return {key: read_all(key) for key in keys}

    def _h_replica_read(self, src: str, args: Any):
        key = args["key"]
        elements = self._read_rows(args["vnode"], [key])[key]
        row = self.store.rows.get(key)
        return {"elements": wire_elements(elements),
                "lww": row.lww if row is not None else None}

    def _h_replica_mread(self, src: str, args: Any):
        """Batched replica.read: one round-trip; keys with no row are
        absent from ``rows``.  Each row's size is cached on it until
        its next write."""
        stored = self.store.rows
        rows, flags = {}, {}
        size = _MREAD_BASE
        for key, elements in self._read_rows(args["vnode"],
                                             args["keys"]).items():
            if not elements:
                continue
            row = stored[key]
            wire = rows[key] = wire_elements(elements)
            row_size = row.wire_size
            if row_size is None:
                row_size = row.wire_size = _mread_row_size(wire)
            size += len(key) + row_size
            if row.lww is not None:
                flags[key] = row.lww
                size += len(key) + 1
        return Sized({"rows": rows, "lww": flags}, size)

    def _apply_deletes(self, vnode_id: int, keys: list) -> dict[str, str]:
        """Drop a vnode-group of keys; per-key ``ok``/``missing``.

        Unlike every other replica write path this takes no ownership
        guard, so a non-owner acks deletes (recorded under ROADMAP aim
        3; adding the guard moves digests).
        """
        indexed = self.vnode_keys.get(vnode_id)
        statuses = {}
        for key in keys:
            existed = self.store.delete(key)
            if indexed is not None:
                indexed.discard(key)
            statuses[key] = "ok" if existed else "missing"
        receiver = self._forward_target(vnode_id)
        if receiver is not None:
            self._spawn_forward(receiver, vnode_id, deletes=list(keys))
        return statuses

    def _h_replica_delete(self, src: str, args: Any):
        self._apply_deletes(args["vnode"], [args["key"]])
        return {"status": "ok"}

    def _h_replica_mdelete(self, src: str, args: Any):
        """Batched replica.delete with per-key outcomes."""
        return {"statuses": self._apply_deletes(args["vnode"], args["keys"])}

    def _h_replica_cwrite(self, src: str, args: Any):
        """Causal (DVV) dot-minting write: apply the client's context,
        mint a fresh dot, return the resulting row for replication."""
        vnode_id = args["vnode"]
        self._guard_owner(vnode_id)
        self.replica_writes += 1
        key = args["key"]
        dot, row = self.store.causal_update(
            key, args["value"], args["ts"], args["source"],
            unwire_context(args.get("ctx")), self.name)
        self._index_key(key)
        self.vstats.record_write(vnode_id)
        receiver = self._forward_target(vnode_id)
        if receiver is not None:
            self._spawn_forward(receiver, vnode_id,
                                dvv_rows={key: wire_dvv_row(row)})
        return {"status": "ok", "dot": list(dot),
                "row": wire_dvv_row(row)}

    def _h_replica_cmerge(self, src: str, args: Any):
        """Causal (DVV) row merge: replication fan-out, read repair and
        anti-entropy all land here (idempotent)."""
        vnode_id = args["vnode"]
        self._guard_owner(vnode_id)
        self.replica_writes += 1
        key = args["key"]
        self.store.causal_merge(key, unwire_dvv_row(args["row"]))
        self._index_key(key)
        self.vstats.record_write(vnode_id)
        receiver = self._forward_target(vnode_id)
        if receiver is not None:
            row = self.store.causal_read(key)
            self._spawn_forward(receiver, vnode_id,
                                dvv_rows={key: wire_dvv_row(row)})
        return {"status": "ok"}

    def _h_replica_cread(self, src: str, args: Any):
        """Causal (DVV) read: the whole row (siblings + context)."""
        vnode_id = args["vnode"]
        self._guard_owner(vnode_id)
        self._guard_warm(vnode_id)
        self.replica_reads += 1
        self.vstats.record_read(vnode_id)
        row = self.store.causal_read(args["key"])
        return {"row": wire_dvv_row(row) if row is not None else None}

    def _h_replica_transfer(self, src: str, args: Any):
        """Ship every row of one vnode (re-duplication / rebalance)."""
        # sorted(): set order is hash order, and the row dict's order
        # is wire-visible (replay identity across PYTHONHASHSEEDs).
        return self._export_rows(
            sorted(self.vnode_keys.get(args["vnode"], set())))

    def _h_replica_install(self, src: str, args: Any):
        """Receive a vnode's rows (the re-duplication target side)."""
        self._import_rows(args)
        return {"status": "ok",
                "installed": len(args["rows"]) + len(args.get("dvv_rows")
                                                     or {})}

    def _h_replica_repair(self, src: str, args: Any):
        """Read-repair: merge the coordinator's freshest elements."""
        self.repairs += 1
        self._merge_durably(args["key"], unwire_elements(args["elements"]),
                            lww=args.get("lww"))
        return {"status": "ok"}

    def vnode_digest(self, vnode_id: int) -> dict[str, list[tuple]]:
        """Per-key version vectors of one vnode: key -> [(source, ts)].

        The anti-entropy exchange compares digests instead of shipping
        whole vnodes, so a quiet cluster syncs for metadata cost only.
        """
        digest: dict[str, list[tuple]] = {}
        for key in sorted(self.vnode_keys.get(vnode_id, set())):
            elements = self.store.read_all(key)
            if elements:
                digest[key] = sorted((e.source, e.timestamp)
                                     for e in elements)
        return digest

    def vnode_dvv_digest(self, vnode_id: int) -> dict[str, list]:
        """Per-key causal digests of one vnode: key -> [vv, dots].

        ``vv`` is the sorted version vector, ``dots`` the sorted
        sibling dots — together they identify the row state without
        shipping sibling values.
        """
        digest: dict[str, list] = {}
        for key in sorted(self.vnode_keys.get(vnode_id, set())):
            row = self.store.dvv_rows.get(key)
            if row is not None and (row.vv or row.siblings):
                digest[key] = [
                    [[rep, cnt] for rep, cnt in sorted(row.vv.items())],
                    [[rep, cnt] for rep, cnt in
                     sorted(s.dot for s in row.siblings)]]
        return digest

    def _h_replica_digest(self, src: str, args: Any):
        """Anti-entropy: report this replica's digest for a vnode."""
        return {"digest": self.vnode_digest(args["vnode"]),
                "dvv": self.vnode_dvv_digest(args["vnode"])}

    def _h_replica_fetch(self, src: str, args: Any):
        """Anti-entropy: ship the requested keys' full rows."""
        return self._export_rows(args.get("keys", ()),
                                 args.get("dvv_keys", ()))

    # ------------------------------------------------------------------
    # Live migration (donor/receiver sides; driver in rebalance.py)
    # ------------------------------------------------------------------
    def _h_vnode_stats(self, src: str, args: Any):
        """Per-vnode activity rows for the vnodes this node owns.

        The rebalancer asks the *donor* directly instead of widening
        the ZooKeeper imbalance row: the table stays "quite small"
        (§III.B) and the answer is live rather than a push interval
        stale.
        """
        stats = {}
        for vnode_id in self.cache.ring.vnodes_of(self.name):
            status = self.vstats.statuses.get(vnode_id)
            if status is None:
                stats[vnode_id] = {"keys": 0, "bytes": 0,
                                   "reads": 0, "writes": 0}
            else:
                stats[vnode_id] = {"keys": status.keys,
                                   "bytes": status.bytes,
                                   "reads": status.reads,
                                   "writes": status.writes}
        return {"stats": stats}

    def _h_migrate_begin(self, src: str, args: Any):
        """Open the forwarding window and snapshot the chunk key list."""
        vnode_id = args["vnode"]
        receiver = args["to"]
        current = self.migrating_out.get(vnode_id)
        if current is not None and current != receiver:
            raise RpcRejected("migrating")
        self.migrating_out[vnode_id] = receiver
        self._migration_gen[vnode_id] = \
            self._migration_gen.get(vnode_id, 0) + 1
        snapshot = sorted(self.vnode_keys.get(vnode_id, set()))
        self._migration_snaps[vnode_id] = snapshot
        return {"status": "ok", "keys": len(snapshot)}

    def _h_migrate_chunk(self, src: str, args: Any):
        """Ship one byte-budgeted chunk of the begin-time snapshot.

        New keys written after ``migrate.begin`` ride the forwarding
        window instead; keys deleted since the snapshot are skipped
        (the cursor still advances past them).
        """
        vnode_id = args["vnode"]
        if vnode_id not in self.migrating_out:
            raise RpcRejected("not-migrating")
        snapshot = self._migration_snaps.get(vnode_id, [])
        cursor = args["cursor"]
        budget = args["budget"]
        chunk = self._export_rows(())   # a row bundle, filled key by key
        size = 0
        while cursor < len(snapshot):
            key = snapshot[cursor]
            cursor += 1
            one = self._export_rows((key,))
            for part, entries in one.items():
                chunk[part].update(entries)
            size += sum(len(key) + len(repr(blob)) for blob in
                        (*one["rows"].values(), *one["dvv_rows"].values()))
            if size >= budget:
                break
        self._m_chunks_served.inc()
        return {**chunk, "next": cursor, "done": cursor >= len(snapshot),
                "bytes": size}

    def _h_migrate_forward(self, src: str, args: Any):
        """Receiver side of the forwarding window: merge double-applied
        writes (and replay deletes) for a vnode migrating in."""
        self._import_rows(args)
        for key in args.get("deletes", ()):
            self.store.delete(key)
            keys = self.vnode_keys.get(args["vnode"])
            if keys is not None:
                keys.discard(key)
        return {"status": "ok"}

    def _h_migrate_end(self, src: str, args: Any):
        """Close a migration on the donor.

        On commit the ring is updated at once (further stale-cache
        writes draw ``not-owner`` and retry against the new set) but
        the forwarding window *lingers* two lease periods so double-
        applies still cover writes already in flight to us.  On abort
        the window closes immediately.
        """
        vnode_id = args["vnode"]
        receiver = self.migrating_out.get(vnode_id)
        if receiver is None:
            return {"status": "idle"}
        self._migration_snaps.pop(vnode_id, None)
        if not args["committed"]:
            self.migrating_out.pop(vnode_id, None)
            return {"status": "aborted"}
        self.cache.ring.assign(vnode_id, receiver)
        gen = self._migration_gen.get(vnode_id, 0)
        self.sim.process(self._linger_close(vnode_id, receiver, gen),
                         name=f"{self.name}-linger-{vnode_id}")
        return {"status": "committed"}

    def _linger_close(self, vnode_id: int, receiver: str, gen: int):
        """Drop the forwarding window after the stale-cache horizon,
        unless the vnode re-entered migration meanwhile."""
        yield self.sim.timeout(self.config.lease_base * 2)
        if (self._migration_gen.get(vnode_id) == gen
                and self.migrating_out.get(vnode_id) == receiver):
            self.migrating_out.pop(vnode_id, None)

    def _h_migrate_settle(self, src: str, args: Any):
        """Receiver-side cutover notice: adopt ownership locally and
        schedule a post-cutover digest reconcile, mirroring the join
        handoff's catch-up (stale caches keep routing writes to the old
        replica set for up to a lease)."""
        vnode_id = args["vnode"]
        self.cache.ring.assign(vnode_id, self.name)
        self.vstats.status(vnode_id)  # materialize the stats row
        self.sim.process(self._post_migration_reconcile(vnode_id),
                         name=f"{self.name}-settle-{vnode_id}")
        return {"status": "ok"}

    def _post_migration_reconcile(self, vnode_id: int):
        yield self.sim.timeout(self.config.lease_base * 2)
        if self.running:
            yield from self.reconcile_vnode(vnode_id)

    def _forward_target(self, vnode_id: int) -> Optional[str]:
        return self.migrating_out.get(vnode_id)

    def _spawn_forward(self, receiver: str, vnode_id: int,
                       rows: Optional[dict] = None,
                       deletes: Optional[list] = None,
                       lww: Optional[dict] = None,
                       dvv_rows: Optional[dict] = None) -> None:
        """Fire-and-forget double-apply of a write/delete to the
        migration receiver (one retry; terminal failures are counted —
        the pre-cutover digest verify re-pulls anything still missing)."""
        self.migration_forwards += 1
        self._m_forwards.inc()
        args = {"vnode": vnode_id, "rows": rows or {},
                "deletes": deletes or [], "lww": lww or {},
                "dvv_rows": dvv_rows or {}}
        self.sim.process(self._forward(receiver, args),
                         name=f"{self.name}-fwd-{vnode_id}")

    def _forward(self, receiver: str, args: Any):
        try:
            yield from self.rpc.call_retry(
                receiver, "migrate.forward", args,
                timeout=self.config.request_timeout, attempts=2)
        except (RpcTimeout, RpcRejected):
            self.migration_forward_failures += 1
            self._m_forward_fails.inc()

    # ------------------------------------------------------------------
    # Coordinator plumbing
    # ------------------------------------------------------------------
    def _local_dispatch(self, method: str, args: Any) -> Event:
        """Replica op against ourselves: skip the network, still pay the
        local store-op cost."""
        ev = self.sim.event()

        def run() -> None:
            handler = self.rpc._handlers[method]
            try:
                result = handler(self.name, args)
            except RpcRejected as rej:
                ev.fail(rej)
                return
            if isinstance(result, Event):
                def finish(inner: Event) -> None:
                    if inner.ok:
                        ev.succeed(unsized(inner.value))
                    else:
                        ev.fail(inner.value)
                if result.callbacks is None:
                    finish(result)
                else:
                    result.callbacks.append(finish)
            else:
                ev.succeed(unsized(result))

        self.sim.schedule_callback(LOCAL_STORE_OP, run)
        return ev

    def _deferred(self, gen, label: str) -> Event:
        """Run ``gen`` as a process whose outcome feeds a fresh event."""
        result = self.sim.event()

        def runner():
            try:
                value = yield from gen
            except Exception as err:  # surfaces as 'refuse' to the caller
                if not result.triggered:
                    result.fail(err if isinstance(err, RpcRejected)
                                else RpcRejected(repr(err)))
                return
            if not result.triggered:
                result.succeed(value)

        self.sim.process(runner(), name=f"{self.name}-{label}")
        return result

    def _h_coordinate(self, method: str, src: str, args: Any) -> Event:
        """The client-facing plane: any ``sedna.*`` request, run by this
        node's coordinator in a process of its own."""
        return self._deferred(self.coordinator.coordinate(method, args),
                              f"coord-{method[6:]}")

    # ------------------------------------------------------------------
    # Lazy failure recovery (§III.C–D)
    # ------------------------------------------------------------------
    def _maybe_investigate(self, suspect: str, vnode_id: int) -> None:
        """Schedule an asynchronous investigation of a failed replica."""
        if suspect == self.name or not self.running:
            return
        token = (suspect, vnode_id)
        if token in self._investigating:
            return
        self._investigating.add(token)
        self.investigations += 1
        self.sim.process(self._investigate(suspect, vnode_id),
                         name=f"{self.name}-investigate-{suspect}")

    def _investigate(self, suspect: str, vnode_id: int):
        try:
            # "check their existence by asking the ZooKeeper service"
            try:
                stat = yield from self.zk.exists(ZkLayout.real_node(suspect))
            except (RpcTimeout, RpcRejected):
                return
            if stat is not None:
                return  # alive: transient hiccup, nothing to do (§III.D)
            yield from self._recover_vnode(suspect, vnode_id)
        finally:
            self._investigating.discard((suspect, vnode_id))

    def _recover_vnode(self, dead: str, vnode_id: int):
        """Rewrite the assignment entries that placed ``dead`` in this
        vnode's replica set, then re-duplicate the data (§III.C)."""
        positions = self.cache.ring.walk_positions(vnode_id,
                                                   self.config.replicas)
        old_members = {owner for _v, owner in positions}
        dead_positions = [v for v, owner in positions if owner == dead]
        if not dead_positions:
            return
        try:
            live = yield from self.zk.get_children(ZkLayout.REAL_NODES)
        except (RpcTimeout, RpcRejected, NoNodeError):
            return
        current_owners = {owner for _v, owner in positions if owner != dead}
        candidates = [n for n in live
                      if n != dead and n not in current_owners]
        if not candidates:
            candidates = [n for n in live if n != dead]
        if not candidates:
            return
        counts = self.cache.ring.load_counts()
        candidates.sort(key=lambda n: (counts.get(n, 0), n))
        # Rewriting a position shifts the successor chain of *every*
        # vnode whose replica walk crosses it, not just this one's: a
        # node can enter vnode Q's replica set because position P≠Q
        # changed hands.  Snapshot all replica sets first, so each
        # vnode's rows follow each of its new members — a member left
        # empty here later satisfies read quorums with no data, which
        # breaks R/W intersection for writes the old set acked.
        before = {v: set(self.cache.ring.replicas_for(v,
                                                      self.config.replicas))
                  for v in range(self.config.num_vnodes)}
        for position in dead_positions:
            try:
                moved = yield from self.reassign(position, dead,
                                                 candidates[0])
            except (BadVersionError, NoNodeError, RpcTimeout, RpcRejected):
                continue
            if moved:
                self.recoveries += 1
        for v in range(self.config.num_vnodes):
            for member in self.cache.ring.replicas_for(
                    v, self.config.replicas):
                if member not in before[v]:
                    yield from self._reduplicate(v, member)

    def _reduplicate(self, vnode_id: int, target: str):
        """Copy the vnode's rows to its new owner from a healthy copy."""
        keys = self.vnode_keys.get(vnode_id)
        if keys and target != self.name:
            yield from self._push_rows(
                target, vnode_id, self._export_rows(sorted(keys)),
                self.config.request_timeout * 4)
            return
        # We took the vnode over ourselves, or hold nothing of it: the
        # rows come from another member of the (new) replica set, for
        # us to keep or to pass on.
        for source in self.cache.ring.replicas_for(vnode_id,
                                                   self.config.replicas):
            if source not in (target, self.name) and (
                    yield from self._pull_vnode(vnode_id, source, target)):
                return

    def reconcile_vnode(self, vnode_id: int):
        """Digest-reconcile one vnode with its other replicas.

        Pulls versions peers dominate us on, pushes versions we
        dominate them on (newest-per-source merge both ways).  Shared
        by the anti-entropy manager's periodic passes and the active
        detector's post-recovery data repair.  Returns
        ``(keys_pulled, keys_pushed, failed_peers)`` — ``failed_peers``
        counts replicas whose state could not be (fully) pulled, so
        callers needing a *complete* inbound sync (vnode handoff) can
        tell success from a round of swallowed timeouts.
        """
        replicas = self.cache.ring.replicas_for(vnode_id,
                                                self.config.replicas)
        peers = [r for r in replicas if r != self.name]
        mine = self.vnode_digest(vnode_id)
        mine_dvv = self.vnode_dvv_digest(vnode_id)
        pulled = 0
        pushed = 0
        failed_peers = 0
        for peer in peers:
            try:
                reply = yield from self.rpc.call(
                    peer, "replica.digest", {"vnode": vnode_id},
                    timeout=self.config.request_timeout)
            except (RpcTimeout, RpcRejected):
                failed_peers += 1
                continue
            theirs = reply["digest"]
            pull, push = digest_diff(mine, theirs)
            dvv_pull, dvv_push = dvv_digest_diff(mine_dvv,
                                                 reply.get("dvv", {}))
            if pull or dvv_pull:
                try:
                    # The vnode key is diagnostic context (taps key
                    # repair traffic by vnode); the handler works off
                    # the explicit key lists.  Dropping it would shrink
                    # the wire size and shift the latency model,
                    # breaking golden digests.
                    # repro: allow[rpc-payload-mismatch]
                    fetched = yield from self.rpc.call(
                        peer, "replica.fetch",
                        {"vnode": vnode_id, "keys": pull,
                         "dvv_keys": dvv_pull},
                        timeout=self.config.request_timeout * 2)
                except (RpcTimeout, RpcRejected):
                    failed_peers += 1
                else:
                    pulled += self._import_rows(fetched)
                    mine = self.vnode_digest(vnode_id)
                    mine_dvv = self.vnode_dvv_digest(vnode_id)
            if push or dvv_push:
                bundle = self._export_rows(push, dvv_push)
                sent = len(bundle["rows"]) + len(bundle["dvv_rows"])
                if sent and (yield from self._push_rows(
                        peer, vnode_id, bundle,
                        self.config.request_timeout * 2)):
                    pushed += sent
        return pulled, pushed, failed_peers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-node counters for the harness."""
        coordinator = self.coordinator
        return {
            "name": self.name,
            "running": self.running,
            "keys": len(self.store),
            "vnodes": len(self.cache.ring.vnodes_of(self.name)),
            **{op.counter: getattr(coordinator, op.counter)
               for op in OPS.values()},
            "coalesced_reads": coordinator.coalesced_reads,
            "replica_writes": self.replica_writes,
            "replica_reads": self.replica_reads,
            "investigations": self.investigations,
            "recoveries": self.recoveries,
            "repairs": self.repairs,
        }
