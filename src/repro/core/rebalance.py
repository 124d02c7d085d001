"""Data-balance manager — one of the pluggable cluster-status modules.

§III.A: "the top layer cluster status manager layer ... contains
components which are pluggable modules providing different
functionalities, like replica management, nodes management, data
balance, etc."  §III.B supplies its input: the per-real-node imbalance
table computed from virtual-node statuses and pushed to ZooKeeper
("this information is calculated and stored locally, and periodically
updated to ZooKeeper").

:class:`Rebalancer` attaches to any Sedna node and periodically:

1. reads the imbalance rows from ``/sedna/imbalance`` and the live
   membership from ``/sedna/real_nodes``;
2. drops rows of departed nodes;
3. scores every node with the weighted *heat* metric (§III.B carries
   read/write frequency, not just capacity) over the activity since
   the previous pass, and plans hottest → coldest moves that strictly
   shrink the heat gap;
4. executes each move as a *live chunked migration*: a forwarding
   window opens on the donor (writes are double-applied to the
   receiver so no acked write is stranded), the vnode streams over in
   byte-budgeted chunks, a digest check verifies the copy, and only
   then does the version-checked assignment flip — concurrent
   rebalancers and mid-flight crashes leave the vnode where it was.

Failed or unfinished migrations live in a pending ledger and resume
next pass (bounded attempts, then abort) instead of being silently
dropped.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Optional

from ..net.rpc import RpcRejected, RpcTimeout
from ..zk.znode import BadVersionError, NoNodeError
from .antientropy import digest_diff, dvv_covered
from .cache import ZkLayout
from .config import REQUEST_TIMEOUT
from .hashring import HEAT_WEIGHTS, ImbalanceTable, vnode_heat
from .node import SednaNode

__all__ = ["Rebalancer", "Migration", "plan_move", "pick_migration_vnode",
           "activity_delta"]

#: Fraction of the donor/receiver heat gap reserved as anti-thrash
#: slack: a vnode only moves when its own heat fits well inside the
#: gap, so near-balanced nodes never swap vnodes back and forth.
HEAT_SLACK_FRAC = 0.25

#: Begin/copy/verify failures tolerated per migration before it is
#: abandoned (``aborted``).
MAX_ATTEMPTS = 4

#: Cumulative counters in stats rows (everything else is a level).
_COUNTER_FIELDS = ("reads", "writes")


def activity_delta(current: dict, previous: Optional[dict]) -> dict:
    """Stats row describing activity *since the previous observation*.

    ``reads``/``writes`` are monotone counters, so the delta is the
    difference (clamped at 0 — a restart resets counters); gauges like
    ``keys``/``bytes``/``vnodes`` pass through.  Without a previous
    observation the cumulative row is the delta.
    """
    if previous is None:
        return dict(current)
    out = dict(current)
    for name in _COUNTER_FIELDS:
        out[name] = max(0, current.get(name, 0) - previous.get(name, 0))
    return out


def plan_move(rows: dict[str, dict], *, mode: str = "heat",
              threshold: float = 2.0,
              slack_frac: float = HEAT_SLACK_FRAC,
              weights: Optional[dict] = None,
              ) -> Optional[tuple[str, str, float]]:
    """Pure planner: ``(donor, receiver, heat_limit)`` or None.

    ``heat_limit`` bounds the heat of the vnode allowed to move: a
    move only strictly improves the donor/receiver gap when the moved
    vnode's heat fits under ``gap * (1 - slack_frac) / 2``.  In
    ``count`` mode (legacy behaviour) the donor/receiver come from
    vnode counts and any vnode may move (limit = inf) once the count
    spread exceeds ``threshold``.

    The planner never returns ``donor == receiver``.
    """
    if len(rows) < 2:
        return None
    table = ImbalanceTable()
    for name in sorted(rows):
        table.update(name, rows[name])
    if mode == "count":
        donor = table.most_loaded("vnodes")
        receiver = table.least_loaded("vnodes")
        if donor is None or receiver is None or donor == receiver:
            return None
        spread = (table.rows[donor].get("vnodes", 0)
                  - table.rows[receiver].get("vnodes", 0))
        if spread <= threshold:
            return None
        return donor, receiver, math.inf
    if mode != "heat":
        raise ValueError(f"unknown rebalance mode {mode!r}")
    donor = table.hottest(weights)
    receiver = table.coldest(weights)
    if donor is None or receiver is None or donor == receiver:
        return None
    gap = table.heat(donor, weights) - table.heat(receiver, weights)
    limit = gap * (1.0 - slack_frac) / 2.0
    w = weights if weights is not None else HEAT_WEIGHTS
    if limit < w.get("vnodes", 0.0):
        # Not even an idle vnode can move without overshooting.
        return None
    return donor, receiver, limit


def pick_migration_vnode(owned: list[int], stats: dict[int, dict],
                         limit: float = math.inf,
                         weights: Optional[dict] = None) -> Optional[int]:
    """The hottest of the donor's vnodes whose heat fits ``limit``.

    Deterministic tiebreak: equal heat prefers the lowest vnode id.
    Vnodes without a stats row count as idle (base heat only).
    """
    best: Optional[int] = None
    best_heat = -1.0
    for vnode_id in sorted(owned):
        heat = vnode_heat(stats.get(vnode_id, {}), weights)
        if heat <= limit and heat > best_heat:
            best = vnode_id
            best_heat = heat
    return best


@dataclass
class Migration:
    """Ledger entry for one vnode move (live, resumable, abortable)."""

    vnode: int
    donor: str
    receiver: str
    state: str = "pending"          # pending -> copying -> done|aborted
    cursor: int = 0                 # chunk-stream position in the snapshot
    attempts: int = 0
    chunks: int = 0
    bytes_moved: int = 0
    reason: str = ""                # last failure, '' while healthy
    started_at: float = 0.0


class Rebalancer:
    """Periodic load-aware balance process hosted on one Sedna node.

    Parameters
    ----------
    node:
        Host node; its ZooKeeper client, RPC endpoint and mapping cache
        are reused.
    interval:
        Seconds between balance passes.
    threshold:
        Count-mode only: minimum (max - min) vnode-count spread before
        moving anything.
    max_moves_per_pass:
        Upper bound on *new* migrations started per pass (gradual
        rebalancing keeps the change-log churn within what the
        adaptive lease absorbs).
    mode:
        ``"heat"`` (default) scores nodes by the weighted activity
        metric; ``"count"`` reproduces the legacy count-equalizing
        behaviour (still with live chunked migration).
    pass_byte_budget:
        Migration bytes shipped per pass across all migrations; an
        unfinished copy parks in the ledger and resumes next pass.
    chunk_bytes:
        Byte budget per ``migrate.chunk`` pull.
    """

    def __init__(self, node: SednaNode, interval: float = 5.0,
                 threshold: int = 2, max_moves_per_pass: int = 4,
                 mode: str = "heat", pass_byte_budget: int = 512 * 1024,
                 chunk_bytes: int = 16 * 1024,
                 weights: Optional[dict] = None):
        if mode not in ("heat", "count"):
            raise ValueError(f"unknown rebalance mode {mode!r}")
        self.node = node
        self.sim = node.sim
        self.interval = interval
        self.threshold = threshold
        self.max_moves_per_pass = max_moves_per_pass
        self.mode = mode
        self.pass_byte_budget = pass_byte_budget
        self.chunk_bytes = chunk_bytes
        self.weights = dict(weights if weights is not None else HEAT_WEIGHTS)
        self.running = False
        self._in_pass = False
        self._loop_alive = False
        # Ledger.
        self.pending: dict[int, Migration] = {}
        self.completed: list[Migration] = []
        # Activity baselines for between-pass deltas.
        self._prev_rows: dict[str, dict] = {}
        self._prev_vstats: dict[tuple[str, int], dict] = {}
        # Stats.
        self.passes = 0
        self.moves = 0
        self.rows_dropped = 0
        self.chunks = 0
        self.bytes_moved = 0
        self.aborts = 0
        self.transfer_failures = 0
        metrics = node.obs.metrics
        metrics.count_from(self, "passes", "rebalance.passes",
                           node=node.name)
        metrics.count_from(self, "moves", "rebalance.moves", node=node.name)
        self._m_spread = metrics.gauge("rebalance.vnode_spread",
                                       node=node.name)
        self._m_heat_spread = metrics.gauge("rebalance.heat_spread",
                                            node=node.name)
        for attr, name in (("chunks", "migrate.chunks"),
                           ("bytes_moved", "migrate.bytes"),
                           ("aborts", "migrate.aborts")):
            metrics.count_from(self, attr, name, node=node.name)

    def start(self) -> None:
        """Spawn the balance loop (or revive it after a host crash)."""
        if self.running and self._loop_alive:
            return
        self.running = True
        self._loop_alive = True
        self.sim.process(self._loop(), name=f"{self.node.name}-rebalance")

    def stop(self) -> None:
        """Stop at the next wakeup."""
        self.running = False

    def drain(self, timeout: float = 30.0):
        """Wait until no migration is pending or in flight (bounded).

        Run as ``yield from rebalancer.drain()`` before final-state
        checks: a parked copy is harmless (the donor still owns the
        vnode) but letting it finish exercises the cutover too.
        """
        deadline = self.sim.now + timeout
        while ((self._in_pass or self.pending)
               and self.sim.now < deadline and self.running
               and self._loop_alive and self.node.running):
            yield self.sim.timeout(self.interval / 2.0)

    def abort_pending(self, reason: str = "drained") -> None:
        """Abort every parked migration (quiesce cleanup: a parked copy
        is safe — the donor still owns the vnode — but the ledger must
        end with every entry resolved)."""
        for vnode_id in sorted(self.pending):
            self._abort(self.pending[vnode_id], reason)

    def ledger(self) -> list[dict]:
        """Summary rows for every migration driven (resolved first,
        then still-parked ones) — what chaos reports and invariants
        consume."""
        entries = list(self.completed)
        entries.extend(self.pending[v] for v in sorted(self.pending))
        return [{"vnode": m.vnode, "donor": m.donor,
                 "receiver": m.receiver, "state": m.state,
                 "attempts": m.attempts, "chunks": m.chunks,
                 "bytes": m.bytes_moved, "reason": m.reason}
                for m in entries]

    # ------------------------------------------------------------------
    def _loop(self):
        interval = self.interval
        try:
            while self.running and self.node.running:
                yield self.sim.timeout(interval)
                if not (self.running and self.node.running):
                    return
                try:
                    self._in_pass = True
                    yield from self.run_pass()
                except (RpcTimeout, RpcRejected, NoNodeError):
                    continue
                finally:
                    self._in_pass = False
        finally:
            self._loop_alive = False

    def read_table(self):
        """Fetch the imbalance table and prune departed nodes' rows."""
        zk = self.node.zk
        table = ImbalanceTable()
        live = yield from zk.get_children(ZkLayout.REAL_NODES)
        live_set = set(live)
        try:
            rows = yield from zk.get_children(ZkLayout.IMBALANCE)
        except NoNodeError:
            return table, live_set
        for name in rows:
            if name not in live_set:
                try:
                    yield from zk.delete(f"{ZkLayout.IMBALANCE}/{name}")
                    self.rows_dropped += 1
                except (NoNodeError, BadVersionError):
                    pass
                continue
            try:
                data, _ = yield from zk.get(f"{ZkLayout.IMBALANCE}/{name}")
            except NoNodeError:
                continue
            try:
                table.update(name, ast.literal_eval(data.decode()))
            except (ValueError, SyntaxError):
                continue
        return table, live_set

    def run_pass(self):
        """One balance pass; returns the number of vnodes moved."""
        self.passes += 1
        table, live = yield from self.read_table()
        if len(table.rows) < 2:
            return 0
        # Ownership counts come from the host's lease-synced ring — the
        # imbalance rows lag by up to a push interval, and acting on
        # stale counts makes concurrent rebalancers thrash; the table
        # still supplies the activity metrics (keys/reads/writes).
        ring_counts = self.node.cache.ring.load_counts()
        for name in table.rows:
            if name in ring_counts:
                table.rows[name]["vnodes"] = ring_counts[name]
        # Heat works on activity *since the last pass*: a node that
        # migrated its hot vnode away must stop looking hot, or every
        # later pass would keep draining it.
        raw_rows = {name: dict(row) for name, row in table.rows.items()}
        for name in table.rows:
            table.rows[name] = activity_delta(table.rows[name],
                                              self._prev_rows.get(name))
        self._prev_rows = raw_rows
        self._m_spread.set(table.spread("vnodes"))
        self._m_heat_spread.set(table.heat_spread(self.weights))

        budget = self.pass_byte_budget
        moved = 0
        # 1. Resume parked migrations before planning anything new.
        for vnode_id in sorted(self.pending):
            if budget <= 0:
                break
            migration = self.pending[vnode_id]
            if migration.receiver not in live:
                self._abort(migration, "receiver-dead")
                continue
            if migration.donor not in live:
                self._abort(migration, "donor-dead")
                continue
            done, budget = yield from self._drive(migration, budget)
            if done:
                moved += 1
        # 2. Plan new moves off the (delta-heat) table.
        started = 0
        while started < self.max_moves_per_pass and budget > 0:
            plan = plan_move(table.rows, mode=self.mode,
                             threshold=self.threshold,
                             weights=self.weights)
            if plan is None:
                break
            donor, receiver, limit = plan
            vnode_id, stats = yield from self._pick_vnode(donor, limit)
            if vnode_id is None:
                break
            started += 1
            migration = Migration(vnode=vnode_id, donor=donor,
                                  receiver=receiver,
                                  started_at=self.sim.now)
            self.pending[vnode_id] = migration
            done, budget = yield from self._drive(migration, budget)
            if done:
                moved += 1
            # Re-plan off adjusted rows either way: an in-flight copy
            # still ends up moving this vnode's heat to the receiver.
            self._shift_row(table, donor, receiver, stats)
        return moved

    def _shift_row(self, table: ImbalanceTable, donor: str, receiver: str,
                   stats: dict) -> None:
        """Move one vnode's worth of load between two table rows."""
        if donor not in table.rows or receiver not in table.rows:
            return
        sign = {donor: -1, receiver: +1}
        for name in (donor, receiver):
            row = table.rows[name]
            row["vnodes"] = row.get("vnodes", 0) + sign[name]
            for field_name in ("keys", "bytes", "reads", "writes"):
                shift = sign[name] * stats.get(field_name, 0)
                row[field_name] = max(0, row.get(field_name, 0) + shift)

    def _pick_vnode(self, donor: str, limit: float = math.inf):
        """(vnode id, its delta-activity row) for the donor, or (None, {}).

        Asks the donor for its live per-vnode stats feed and picks the
        hottest vnode under ``limit`` (idle fallback keeps count mode
        working when the donor cannot answer).
        """
        owned = self.node.cache.ring.vnodes_of(donor)
        owned = [v for v in owned if v not in self.pending]
        if not owned:
            return None, {}
        try:
            reply = yield from self.node.rpc.call(
                donor, "stats.vnodes", {},
                timeout=REQUEST_TIMEOUT)
            raw = reply["stats"]
        except (RpcTimeout, RpcRejected):
            raw = {}
        stats = {}
        for vnode_id in owned:
            row = raw.get(vnode_id, {})
            stats[vnode_id] = activity_delta(
                row, self._prev_vstats.get((donor, vnode_id)))
            self._prev_vstats[(donor, vnode_id)] = dict(row)
        vnode_id = pick_migration_vnode(owned, stats, limit, self.weights)
        if vnode_id is None:
            return None, {}
        return vnode_id, stats[vnode_id]

    # ------------------------------------------------------------------
    # Migration driver
    # ------------------------------------------------------------------
    def _drive(self, migration: Migration, budget: int):
        """Advance one migration; returns (committed, remaining budget).

        Any RPC failure parks the migration for a retry next pass
        (bounded by :data:`MAX_ATTEMPTS`) — never a silent drop.
        """
        rpc = self.node.rpc
        timeout = REQUEST_TIMEOUT
        vnode_id = migration.vnode
        try:
            if migration.state == "pending":
                yield from rpc.call(
                    migration.donor, "migrate.begin",
                    {"vnode": vnode_id, "to": migration.receiver},
                    timeout=timeout)
                migration.state = "copying"
                migration.cursor = 0
            # Chunked copy: donor walks its begin-time snapshot.
            while True:
                chunk = yield from rpc.call(
                    migration.donor, "migrate.chunk",
                    {"vnode": vnode_id, "cursor": migration.cursor,
                     "budget": min(self.chunk_bytes, max(budget, 1))},
                    timeout=timeout)
                yield from self._relay(migration, chunk)
                migration.cursor = chunk["next"]
                migration.chunks += 1
                migration.bytes_moved += chunk["bytes"]
                self.chunks += 1
                self.bytes_moved += chunk["bytes"]
                budget -= max(chunk["bytes"], 1)
                if chunk["done"]:
                    break
                if budget <= 0:
                    return False, 0
            # Verified cutover: the receiver must hold everything the
            # donor holds before the assignment flips.
            ok = yield from self._verify(migration)
            if not ok:
                self._retry(migration, "digest-mismatch")
                return False, budget
            committed = yield from self._cutover(migration)
            if not committed:
                self._abort(migration, "lost-ownership-race")
                return False, budget
            migration.state = "done"
            self.pending.pop(vnode_id, None)
            self.completed.append(migration)
            self.moves += 1
            return True, budget
        except (RpcTimeout, RpcRejected) as err:
            self.transfer_failures += 1
            self._retry(migration, type(err).__name__)
            return False, budget

    def _relay(self, migration: Migration, bundle: dict):
        """Hand the donor's row bundle (a chunk or a repair fetch) to
        the receiver, which merges it as a forwarded write; an empty
        bundle costs no RPC."""
        if bundle["rows"] or bundle["dvv_rows"]:
            yield from self.node.rpc.call(
                migration.receiver, "migrate.forward",
                {"vnode": migration.vnode, "rows": bundle["rows"],
                 "lww": bundle["lww"], "dvv_rows": bundle["dvv_rows"]},
                timeout=REQUEST_TIMEOUT)

    def _verify(self, migration: Migration):
        """Digest check + bounded repair pulls; True when receiver has
        every key/version the donor has for the vnode."""
        rpc = self.node.rpc
        timeout = REQUEST_TIMEOUT
        vnode_id = migration.vnode
        for _ in range(3):
            donor_d = yield from rpc.call(
                migration.donor, "replica.digest", {"vnode": vnode_id},
                timeout=timeout)
            recv_d = yield from rpc.call(
                migration.receiver, "replica.digest", {"vnode": vnode_id},
                timeout=timeout)
            pull, _push = digest_diff(recv_d["digest"], donor_d["digest"])
            # Causal rows: the receiver must have *seen* every donor
            # event (vv dominance) before the assignment flips.
            dvv_pull = dvv_covered(donor_d.get("dvv", {}),
                                   recv_d.get("dvv", {}))
            if not pull and not dvv_pull:
                return True
            fetched = yield from rpc.call(
                migration.donor, "replica.fetch",
                {"keys": pull, "dvv_keys": dvv_pull},
                timeout=timeout)
            yield from self._relay(migration, fetched)
        return False

    def _cutover(self, migration: Migration):
        """Version-checked assignment flip, then settle/end notices."""
        rpc = self.node.rpc
        timeout = REQUEST_TIMEOUT
        vnode_id = migration.vnode
        try:
            if not (yield from self.node.reassign(
                    vnode_id, migration.donor, migration.receiver)):
                # A concurrent rebalancer (or recovery) moved it first.
                return False
        except (BadVersionError, NoNodeError):
            return False
        # Best-effort notices; the forwarding window and the receiver's
        # post-cutover reconcile cover a lost notice.
        try:
            yield from rpc.call(migration.receiver, "migrate.settle",
                                {"vnode": vnode_id}, timeout=timeout)
        except (RpcTimeout, RpcRejected):
            pass
        try:
            yield from rpc.call(migration.donor, "migrate.end",
                                {"vnode": vnode_id, "committed": True},
                                timeout=timeout)
        except (RpcTimeout, RpcRejected):
            pass
        return True

    def _retry(self, migration: Migration, reason: str) -> None:
        """Park a failed migration for the next pass (bounded)."""
        migration.attempts += 1
        migration.reason = reason
        migration.state = "pending"
        migration.cursor = 0
        if migration.attempts >= MAX_ATTEMPTS:
            self._abort(migration, reason)

    def _abort(self, migration: Migration, reason: str) -> None:
        """Give up on a migration: the donor keeps the vnode."""
        migration.state = "aborted"
        migration.reason = reason
        self.pending.pop(migration.vnode, None)
        self.completed.append(migration)
        self.aborts += 1
        self.sim.process(self._close_donor_window(migration),
                         name=f"{self.node.name}-abort-{migration.vnode}")

    def _close_donor_window(self, migration: Migration):
        """Best-effort donor-side cleanup after an abort."""
        try:
            yield from self.node.rpc.call(
                migration.donor, "migrate.end",
                {"vnode": migration.vnode, "committed": False},
                timeout=REQUEST_TIMEOUT)
        except (RpcTimeout, RpcRejected):
            pass
