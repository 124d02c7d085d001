"""One ZooKeeper ensemble member (ZAB-lite).

Protocol summary (a deliberately simplified but behaviourally faithful
ZooKeeper Atomic Broadcast):

* One **leader** orders all writes: it assigns a monotonically growing
  ``zxid``, sends the proposal to every follower in parallel, and
  commits once a *majority* of the ensemble (counting itself) has
  acknowledged.  Commits are applied strictly in zxid order on every
  member, so all trees stay identical.
* **Followers** serve reads from their local applied tree (ZooKeeper's
  read-scalability property the paper leans on, §III.E) and forward
  writes, session opens and pings to the leader.
* **Sessions** are replicated transactions; the liveness clock is
  leader-local.  Expiry commits a ``session_close`` that removes the
  session's ephemerals.
* **Failover**: the leader multicasts heartbeats; a follower that
  misses them starts an election.  The candidate with the highest
  ``(epoch, last_zxid, name)`` among reachable members claims
  leadership with a bumped epoch and lagging members sync a full
  snapshot.  A leader that cannot gather a proposal quorum *steps
  down* — it may be minority-partitioned, and committing locally
  without majority agreement would diverge from the elected history.

Timing constants live in :class:`ZkConfig`; defaults are scaled to the
paper's sub-millisecond LAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.latency import ZK_READ_OP
from ..net.rpc import (QuorumWait, RpcError, RpcNode, RpcRejected,
                       RpcTimeout)
from ..net.simulator import Simulator
from ..net.transport import Network
from .session import SessionTable
from .watches import WatchRegistry
from .znode import ZkError, ZnodeTree, parent_of

__all__ = ["ZkConfig", "ZkServer"]


@dataclass
class ZkConfig:
    """Ensemble timing and behaviour knobs (simulated seconds)."""

    session_timeout: float = 2.0       # default client session timeout
    expiry_check_interval: float = 0.5  # leader scan for dead sessions
    leader_beat_interval: float = 0.4   # leader heartbeat multicast
    beats_missed_for_election: int = 3
    rpc_timeout: float = 0.5            # intra-ensemble call deadline
    proposal_timeout: float = 1.0       # quorum wait deadline


class ZkServer:
    """One ensemble member: RPC surface, replicated tree, election logic."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 peers: list[str], config: Optional[ZkConfig] = None,
                 disk=None):
        self.sim = sim
        self.name = name
        self.peers = [p for p in peers if p != name]
        self.config = config if config is not None else ZkConfig()
        self.rpc = RpcNode(network, name, service_time=ZK_READ_OP)
        self.rpc.on_notify(self._on_notify)
        # Optional transaction log on a crash-surviving disk: real
        # ZooKeeper logs every committed txn before applying, so the
        # ensemble's state (Sedna's vnode mapping!) survives a
        # whole-datacenter power loss.
        self.disk = disk
        self._txn_log = f"{name}.zk-txnlog"

        # Replicated state.
        self.tree = ZnodeTree()
        self.sessions = SessionTable()
        self.applied_zxid = 0

        # Member-local state.
        self.watches = WatchRegistry()
        self.role = "follower"
        self.epoch = 0
        self.leader_name: Optional[str] = None
        self.last_beat = 0.0
        self.running = False
        self._electing = False

        # Ordered-commit machinery.
        self._pending: dict[int, dict] = {}       # proposed, not committed
        self._commit_buffer: dict[int, dict] = {}  # committed, out of order
        self._result_events: dict[int, Any] = {}   # leader: zxid -> Event
        self._gap_healing = False                  # snapshot-sync in flight
        self._heal_target = 0                      # committed zxid seen in beats

        # Leader-only counters.
        self.next_zxid = 0
        self._session_counter = 0

        # Stats for the ZK-bottleneck bench.
        self.reads_served = 0
        self.writes_led = 0
        self.watch_events_sent = 0

        self._register_rpc()

    # -- ensemble size helpers -------------------------------------------
    @property
    def ensemble_size(self) -> int:
        return len(self.peers) + 1

    @property
    def majority(self) -> int:
        return self.ensemble_size // 2 + 1

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    # -- lifecycle ----------------------------------------------------------
    def start(self, as_leader: bool = False) -> None:
        """Boot the member; ``as_leader`` seeds the initial ensemble."""
        self.running = True
        if as_leader:
            self._become_leader(self.epoch + 1)
        else:
            self.last_beat = self.sim.now
            self.sim.process(self._follower_watchdog(), name=f"{self.name}-watchdog")

    def stop(self) -> None:
        """Crash the member (endpoint down, processes wind down)."""
        self.running = False
        self.rpc.endpoint.crash()

    def restart(self) -> None:
        """Bring a crashed member back as a follower; it will sync."""
        self.rpc.endpoint.restart()
        self.running = True
        self.role = "follower"
        self._electing = False
        self.last_beat = self.sim.now
        self.sim.process(self._follower_watchdog(), name=f"{self.name}-watchdog")
        self.sim.process(self._sync_from(self.leader_name), name=f"{self.name}-resync")

    def recover_from_disk(self) -> int:
        """Replay the on-disk transaction log into fresh state.

        Used for cold restarts (whole-ensemble power loss): state is
        rebuilt locally before any peer is reachable.  Returns the
        highest zxid recovered.
        """
        if self.disk is None:
            return 0
        self.tree = ZnodeTree()
        self.sessions = SessionTable()
        self.applied_zxid = 0
        self._pending.clear()
        self._commit_buffer.clear()
        for zxid, op in self.disk.read_log(self._txn_log):
            if zxid == self.applied_zxid + 1:
                self._apply(zxid, op)
        self.next_zxid = max(self.next_zxid, self.applied_zxid)
        return self.applied_zxid

    def cold_restart(self, as_leader: bool = False) -> None:
        """Full restart after power loss: replay disk, then rejoin."""
        self.recover_from_disk()
        self.rpc.endpoint.restart()
        self.running = True
        self._electing = False
        if as_leader:
            self._become_leader(self.epoch + 1)
        else:
            self.role = "follower"
            self.last_beat = self.sim.now
            self.sim.process(self._follower_watchdog(),
                             name=f"{self.name}-watchdog")

    # -- RPC registration -----------------------------------------------------
    def _register_rpc(self) -> None:
        r = self.rpc.register
        # Client-facing.
        r("zk.connect", self._h_connect)
        r("zk.ping", self._h_ping)
        r("zk.read", self._h_read)
        r("zk.write", self._h_write)
        r("zk.close", self._h_close)
        # Peer-facing.  Commit and new-leader announcements travel the
        # one-way notify channel (_on_notify -> _on_commit /
        # _adopt_leader), not request/response RPC, so they have no
        # entries here.
        r("zk.propose", self._h_propose)
        r("zk.sync_req", self._h_sync_req)
        r("zk.sync", self._h_sync)
        r("zk.vote_req", self._h_vote_req)

    # ======================================================================
    # Client-facing handlers
    # ======================================================================
    def _h_connect(self, src: str, args: Any):
        """Open a session (forwarded to the leader)."""
        if not self.is_leader:
            return self._forward("zk.connect", args)
        self._session_counter += 1
        session_id = (self.epoch << 32) | self._session_counter
        timeout = args.get("timeout") or self.config.session_timeout
        op = {"type": "session_open", "session": session_id,
              "timeout": timeout}
        ev = self._lead_proposal(op)
        result = self.sim.event()

        def done(done_ev):
            if done_ev.ok:
                result.succeed({"session": session_id, "timeout": timeout})
            else:
                result.fail(done_ev.value)
        self._chain(ev, done)
        return result

    def _h_ping(self, src: str, args: Any):
        """Session keep-alive; leader records, follower forwards."""
        if not self.is_leader:
            return self._forward("zk.ping", args)
        if not self.sessions.ping(args["session"], self.sim.now):
            raise RpcRejected("session-expired")
        return "pong"

    def _h_close(self, src: str, args: Any):
        """Graceful session close."""
        if not self.is_leader:
            return self._forward("zk.close", args)
        if args["session"] not in self.sessions:
            return "closed"
        return self._lead_proposal({"type": "session_close",
                                    "session": args["session"]})

    def _h_read(self, src: str, args: Any):
        """Serve get/exists/get_children locally; register watches.

        A client whose read frontier (epoch, zxid) is ahead of our
        applied state is refused with ``server-behind`` — serving it
        would un-happen data it already observed (the session-level
        monotonic-read guarantee real ZooKeeper enforces on
        reconnect).  The client rotates to a caught-up member.
        """
        if ((args.get("epoch", 0), args.get("zxid", 0))
                > (self.epoch, self.applied_zxid)):
            raise RpcRejected("server-behind")
        self.reads_served += 1
        op = args["op"]
        path = args["path"]
        watch = args.get("watch", False)
        watcher = args.get("watcher", src)
        frontier = {"epoch": self.epoch, "zxid": self.applied_zxid}
        try:
            if op == "get":
                data, stat = self.tree.get(path)
                if watch:
                    self.watches.add_data(path, watcher)
                return {"data": data, "stat": vars(stat).copy(), **frontier}
            if op == "exists":
                stat = self.tree.exists(path)
                if watch:
                    self.watches.add_data(path, watcher)
                return {"stat": vars(stat).copy() if stat else None,
                        **frontier}
            if op == "get_children":
                children = self.tree.get_children(path)
                if watch:
                    self.watches.add_child(path, watcher)
                return {"children": children, **frontier}
        except ZkError as err:
            raise RpcRejected(f"{type(err).__name__}:{err}")
        raise RpcRejected(f"unknown-read-op:{op}")

    def _h_write(self, src: str, args: Any):
        """Forward writes to the leader; lead them when we are it."""
        if not self.is_leader:
            return self._forward("zk.write", args)
        op = dict(args["op"])
        session = args.get("session", 0)
        # A multi's sub-ops run under the same session, so an ephemeral
        # create inside one needs it alive just the same.
        if (any(sub.get("ephemeral") for sub in (op, *op.get("ops", ())))
                and session not in self.sessions):
            raise RpcRejected("session-expired")
        op["session"] = session
        self.writes_led += 1
        return self._lead_proposal(op)

    def _forward(self, method: str, args: Any):
        """Relay a request to the current leader; deferred result."""
        if self.leader_name is None or self.leader_name == self.name:
            raise RpcRejected("no-leader")
        result = self.sim.event()
        call = self.rpc.call_async(self.leader_name, method, args)
        deadline = self.sim.timeout(self.config.proposal_timeout)

        def check(_ev):
            # Whichever side settles the race defuses the other.
            if result.triggered:
                return
            if call.triggered:
                deadline.defuse()
                if call.ok:
                    result.succeed(call.value)
                else:
                    result.fail(call.value)
            elif deadline.triggered:
                call.defuse()
                result.fail(RpcRejected("leader-timeout"))
        call.callbacks.append(check)
        deadline.callbacks.append(check)
        return result

    @staticmethod
    def _chain(ev, callback) -> None:
        """Attach ``callback`` whether or not ``ev`` has already fired."""
        if ev.callbacks is None:
            callback(ev)
        else:
            ev.callbacks.append(callback)

    # ======================================================================
    # Leader: proposal / commit pipeline
    # ======================================================================
    def _lead_proposal(self, op: dict):
        """Run the ZAB round for ``op``; returns a deferred result event."""
        self.next_zxid += 1
        zxid = self.next_zxid
        result = self.sim.event()
        # Background proposals (e.g. session expiry) may ignore the
        # outcome; a quorum failure is then simply dropped.
        result.callbacks.append(lambda _e: None)
        self._result_events[zxid] = result
        self.sim.process(self._proposal_round(zxid, op),
                         name=f"{self.name}-prop-{zxid}")
        return result

    def _proposal_round(self, zxid: int, op: dict):
        acks_needed = self.majority - 1  # self counts as one ack
        epoch = self.epoch
        payload = {"epoch": epoch, "zxid": zxid, "op": op}
        if acks_needed > 0:
            acks = [(None, self.rpc.call_async(peer, "zk.propose", payload))
                    for peer in self.peers]
            try:
                yield QuorumWait(self.sim, acks, acks_needed,
                                 self.config.proposal_timeout).done
            except RpcError as err:
                ev = self._result_events.pop(zxid, None)
                if ev is not None and not ev.triggered:
                    ev.fail(RpcRejected(f"quorum-failed:{err}"))
                # No majority reachable: we may be on the minority side
                # of a partition, and anything committed locally from
                # here on could diverge from the history the majority
                # elects.  Step down — the allocated zxid dies with
                # this reign and the next leader reuses it in a new
                # epoch, so the commit stream stays gapless.
                self._step_down(f"quorum-failed:{err}")
                return
        if not (self.running and self.is_leader and self.epoch == epoch):
            # Deposed (or stepped down) while this round was in flight.
            ev = self._result_events.pop(zxid, None)
            if ev is not None and not ev.triggered:
                ev.fail(RpcRejected("leader-changed"))
            return
        # Commit locally (in order) and tell the followers.
        self._commit(zxid, op)
        for peer in self.peers:
            self.rpc.notify(peer, {"zk": "commit", "zxid": zxid, "op": op,
                                   "epoch": self.epoch})

    def _step_down(self, reason: str) -> None:
        """Abdicate after losing contact with the majority.

        Every caller still waiting on a round is failed, and the
        pending/commit buffers are dropped: rounds wedged behind the
        failed one were never observed as committed by any client, and
        keeping them would let them apply after a new leader reuses
        their zxids for different operations.
        """
        if not self.is_leader:
            return
        self.role = "follower"
        self.leader_name = None
        self.last_beat = self.sim.now
        for zxid in list(self._result_events):
            ev = self._result_events.pop(zxid)
            if not ev.triggered:
                ev.fail(RpcRejected(f"leader-stepped-down:{reason}"))
        self._pending.clear()
        self._commit_buffer.clear()
        self.next_zxid = self.applied_zxid
        self.sim.process(self._follower_watchdog(),
                         name=f"{self.name}-watchdog")

    def _h_propose(self, src: str, args: Any):
        """Follower side: log the proposal and ack."""
        if args["epoch"] < self.epoch:
            raise RpcRejected("stale-epoch")
        self._pending[args["zxid"]] = args["op"]
        return "ack"

    def _on_commit(self, zxid: int, op: Optional[dict], epoch: int,
                   src: Optional[str] = None) -> None:
        if epoch < self.epoch:
            return
        if zxid <= self.applied_zxid:
            if epoch > self.epoch:
                # A newer-epoch leader is committing at or below our
                # applied frontier: our tail was earned under a deposed
                # reign and diverged.  Snapshot sync truncates it.
                self.sim.process(self._sync_from(src or self.leader_name,
                                                 force=True))
            return
        known = self._pending.pop(zxid, None)
        if op is None:
            op = known  # fall back to the proposal we logged
        if op is None:
            self.sim.process(self._sync_from(self.leader_name))
            return
        # The commit's op is authoritative over the logged proposal:
        # applying a proposal the leader replaced would diverge.
        self._commit(zxid, op)

    def _commit(self, zxid: int, op: dict) -> None:
        """Buffer the commit and apply every consecutive zxid."""
        self._commit_buffer[zxid] = op
        self._apply_ready()
        if self._commit_buffer and not self.is_leader:
            # A buffered commit we cannot apply means an earlier commit
            # notify was lost (they are fire-and-forget): without
            # intervention this member wedges at applied_zxid forever
            # and serves permanently stale reads.  Pull a snapshot.
            # (The leader's own buffer gaps come from rounds finishing
            # out of order and always drain by themselves.)
            self._start_gap_heal()

    def _start_gap_heal(self) -> None:
        if not self._gap_healing:
            self._gap_healing = True
            self.sim.process(self._heal_gap(), name=f"{self.name}-gap-heal")

    def _behind(self) -> bool:
        """A known commit we cannot reach by applying in order."""
        if (self._commit_buffer
                and min(self._commit_buffer) > self.applied_zxid + 1):
            return True
        return self.applied_zxid < self._heal_target

    def _apply_ready(self) -> None:
        """Apply every consecutive buffered commit."""
        while self.applied_zxid + 1 in self._commit_buffer:
            z = self.applied_zxid + 1
            todo = self._commit_buffer.pop(z)
            if self.disk is not None:
                self.disk.append(self._txn_log, (z, todo))
            outcome = self._apply(z, todo)
            ev = self._result_events.pop(z, None)
            if ev is not None and not ev.triggered:
                if isinstance(outcome, ZkError):
                    ev.fail(RpcRejected(f"{type(outcome).__name__}:{outcome}"))
                else:
                    ev.succeed(outcome)

    def _heal_gap(self):
        """Close a commit gap via snapshot sync, retrying while it lasts."""
        try:
            # Grace first: the missing commit usually arrives within an
            # RTT when it was merely reordered rather than dropped.
            yield self.sim.timeout(self.config.rpc_timeout)
            while self.running and not self.is_leader and self._behind():
                yield from self._sync_from(self.leader_name)
                self._apply_ready()
                if self._behind():
                    yield self.sim.timeout(self.config.rpc_timeout)
        finally:
            self._gap_healing = False

    def _apply(self, zxid: int, op: dict):
        """Apply one committed txn to the replicated state.

        Deterministic across members; returns the op result or the
        :class:`ZkError` it raised.  Fires local watches.
        """
        self.applied_zxid = zxid
        if self.is_leader and zxid > self.next_zxid:
            self.next_zxid = zxid
        kind = op["type"]
        try:
            if kind in ("create", "set", "delete"):
                pending: list[tuple[str, str]] = []
                result = self._apply_datum(zxid, op, pending)
                for op_type, path in pending:
                    self._fire_watches(op_type, path)
                return result
            if kind == "multi":
                # Atomic transaction: a failing sub-op raises out of the
                # tree's transaction, which undoes the earlier ones from
                # its journal (the outer handler returns the error).
                # Watches fire only when the whole transaction commits.
                pending = []
                results = []
                with self.tree.transaction():
                    for sub in op["ops"]:
                        sub = dict(sub)
                        sub.setdefault("session", op.get("session", 0))
                        results.append(self._apply_datum(zxid, sub, pending))
                for op_type, path in pending:
                    self._fire_watches(op_type, path)
                return {"results": results}
            if kind == "session_open":
                self.sessions.open(op["session"], op["timeout"], self.sim.now)
                return {}
            if kind == "session_close":
                self.sessions.close(op["session"])
                removed = self.tree.remove_session(op["session"], zxid)
                for path in removed:
                    self._fire_watches("delete", path)
                return {"removed": removed}
        except ZkError as err:
            return err
        return ZkError(f"unknown-op:{kind}")

    def _apply_datum(self, zxid: int, op: dict,
                     pending_watches: list) -> dict:
        """Apply one data mutation; raises :class:`ZkError` on failure.

        Watch firings are appended to ``pending_watches`` instead of
        sent immediately, so multi transactions can defer them until
        the whole batch commits.
        """
        kind = op["type"]
        if kind == "create":
            owner = op.get("session", 0) if op.get("ephemeral") else 0
            actual = self.tree.create(op["path"], op["data"], zxid,
                                      ephemeral_owner=owner,
                                      sequential=op.get("sequential", False))
            pending_watches.append(("create", actual))
            return {"path": actual}
        if kind == "set":
            stat = self.tree.set(op["path"], op["data"], zxid,
                                 op.get("version", -1))
            pending_watches.append(("set", op["path"]))
            return {"stat": vars(stat).copy()}
        if kind == "delete":
            self.tree.delete(op["path"], zxid, op.get("version", -1))
            pending_watches.append(("delete", op["path"]))
            return {}
        raise ZkError(f"unknown-multi-op:{kind}")

    def _fire_watches(self, op_type: str, path: str) -> None:
        for client, event in self.watches.events_for_txn(
                op_type, path, parent_of(path)):
            self.watch_events_sent += 1
            self.rpc.notify(client, {"zk": "watch", "event": dict(event)})

    # ======================================================================
    # Leader duties: heartbeats and session expiry
    # ======================================================================
    def _become_leader(self, epoch: int) -> None:
        self.role = "leader"
        self.epoch = epoch
        self.leader_name = self.name
        self._electing = False
        # Proposals and buffered commits we logged as a *follower* of
        # the previous reign are orphans now, exactly as in
        # _adopt_leader: the zxids they sit at are about to be
        # re-allocated by our own reign (next_zxid below restarts from
        # the applied frontier).  Keeping them lets a stale buffered
        # commit apply on the leader alone the moment the new reign's
        # frontier reaches its zxid — same zxid, different op on
        # leader vs followers, and the ensemble diverges permanently.
        self._pending.clear()
        self._commit_buffer.clear()
        # Continue the zxid sequence from our applied history — a fresh
        # leader proposing from zxid 1 would never commit (ordering
        # gap), and zxids allocated under a previous reign of ours that
        # died with a step-down must be reused, not skipped.
        self.next_zxid = self.applied_zxid
        self.sessions.reset_clocks(self.sim.now)
        self.sim.process(self._leader_beats(), name=f"{self.name}-beats")
        self.sim.process(self._expiry_scan(), name=f"{self.name}-expiry")

    def _leader_beats(self):
        while self.running and self.is_leader:
            for peer in self.peers:
                # ``committed`` lets a follower detect a *tail* gap — a
                # lost commit notify with no later commit to reveal it.
                self.rpc.notify(peer, {"zk": "beat", "epoch": self.epoch,
                                       "leader": self.name,
                                       "committed": self.applied_zxid})
            yield self.sim.timeout(self.config.leader_beat_interval)

    def _expiry_scan(self):
        while self.running and self.is_leader:
            yield self.sim.timeout(self.config.expiry_check_interval)
            if not (self.running and self.is_leader):
                return
            for sid in self.sessions.expired(self.sim.now):
                self._lead_proposal({"type": "session_close", "session": sid})

    # ======================================================================
    # Election
    # ======================================================================
    def _follower_watchdog(self):
        wait = (self.config.leader_beat_interval
                * self.config.beats_missed_for_election)
        while self.running and not self.is_leader:
            yield self.sim.timeout(wait)
            if not self.running or self.is_leader or self._electing:
                continue
            if self.sim.now - self.last_beat > wait:
                yield from self._run_election()

    def _run_election(self):
        self._electing = True
        try:
            # Votes compare (epoch, zxid, name): a member that followed
            # the newest reign must win over a deposed leader whose
            # higher zxid is an orphaned tail of an older epoch.
            my_vote = (self.epoch, self.applied_zxid, self.name)
            # The poll payload is diagnostic context for taps/traces;
            # voters answer with their own credentials and ignore it.
            # Dropping the keys would shrink the wire size and shift
            # the latency model, breaking golden digests.
            # repro: allow[rpc-payload-mismatch]
            calls = [self.rpc.call_async(peer, "zk.vote_req",
                                         {"candidate": self.name,
                                          "zxid": self.applied_zxid})
                     for peer in self.peers]
            yield self.sim.timeout(self.config.rpc_timeout)
            votes = [my_vote]
            reachable = 1
            for call in calls:
                if call.triggered and call.ok:
                    votes.append((call.value.get("epoch", 0),
                                  call.value["zxid"], call.value["name"]))
                    reachable += 1
                elif not call.triggered:
                    call.defuse()  # the straggler's vote is moot
            if reachable < self.majority:
                return  # cannot form a quorum; retry on next watchdog tick
            if max(votes) == my_vote:
                new_epoch = max(vote[0] for vote in votes) + 1
                self._become_leader(new_epoch)
                for peer in self.peers:
                    self.rpc.notify(peer, {"zk": "new_leader",
                                           "epoch": new_epoch,
                                           "leader": self.name})
        finally:
            self._electing = False

    def _h_vote_req(self, src: str, args: Any):
        """Answer an election poll with our own credentials."""
        return {"zxid": self.applied_zxid, "name": self.name,
                "epoch": self.epoch}

    def _adopt_leader(self, leader: str, epoch: int) -> None:
        if epoch < self.epoch:
            return
        was_leader = self.is_leader
        crossed_reign = epoch > self.epoch
        if crossed_reign:
            # Proposals and buffered commits earned under an older
            # reign are orphans; applying them after the new leader
            # reuses their zxids would diverge.  The forced sync below
            # (and the beats' committed frontier) re-learns anything
            # the new reign actually kept.
            self._pending.clear()
            self._commit_buffer.clear()
        self.epoch = epoch
        self.leader_name = leader
        self.last_beat = self.sim.now
        if leader != self.name:
            self.role = "follower"
            if was_leader:
                self.sim.process(self._follower_watchdog(),
                                 name=f"{self.name}-watchdog")
            self.sim.process(self._sync_from(leader, force=crossed_reign),
                             name=f"{self.name}-sync")

    # ======================================================================
    # Snapshot sync
    # ======================================================================
    def _h_sync(self, src: str, args: Any):
        """Client ``sync``: wait until this member has applied at least
        the leader's current zxid — read-your-writes for reads served by
        a lagging follower (the real ZooKeeper sync semantics)."""
        if self.is_leader:
            return {"zxid": self.applied_zxid}
        result = self.sim.event()
        call = self.rpc.call_async(self.leader_name or "", "zk.sync", {})

        def leader_answered(ev):
            if not ev.ok:
                if not result.triggered:
                    result.fail(RpcRejected("no-leader"))
                return
            target = ev.value["zxid"]

            def wait():
                deadline = self.sim.now + self.config.proposal_timeout
                while self.applied_zxid < target:
                    if self.sim.now >= deadline:
                        # Fall back to an explicit snapshot sync.
                        yield from self._sync_from(self.leader_name)
                        break
                    yield self.sim.timeout(0.01)
                if not result.triggered:
                    result.succeed({"zxid": self.applied_zxid})

            self.sim.process(wait(), name=f"{self.name}-sync-wait")

        call.callbacks.append(leader_answered)
        return result

    def _h_sync_req(self, src: str, args: Any):
        """Leader: ship a full snapshot to a lagging member."""
        if not self.is_leader:
            raise RpcRejected("not-leader")
        return {"tree": self.tree.dump(),
                "sessions": self.sessions.dump(),
                "zxid": self.applied_zxid,
                "epoch": self.epoch}

    def _sync_from(self, leader: Optional[str], force: bool = False):
        """Pull and install the leader's snapshot.

        ``force`` loads the snapshot even when its zxid is *not* ahead
        of ours: crossing into a new reign means equal-or-lower zxids
        can name different operations, so state earned under the old
        epoch must be replaced, not kept.  The same applies whenever
        the answering leader's epoch is newer than ours.
        """
        if leader is None or leader == self.name:
            return
        try:
            snap = yield from self.rpc.call(leader, "zk.sync_req", {},
                                            timeout=self.config.proposal_timeout)
        except (RpcTimeout, RpcRejected):
            return
        snap_epoch = snap.get("epoch", self.epoch)
        if snap_epoch < self.epoch:
            return  # a deposed leader answered; its snapshot is stale
        # The answering leader's zxid is the authoritative committed
        # frontier; a beat from a deposed leader may have promised more.
        self._heal_target = min(self._heal_target, snap["zxid"])
        if snap_epoch > self.epoch:
            self.epoch = snap_epoch
            self.leader_name = leader
            self._pending.clear()
            self._commit_buffer.clear()
            force = True
        if force or snap["zxid"] > self.applied_zxid:
            self.tree = ZnodeTree.load(snap["tree"])
            self.sessions.load(snap["sessions"], self.sim.now)
            self.applied_zxid = snap["zxid"]
            self._pending = {z: op for z, op in self._pending.items()
                             if z > snap["zxid"]}
            self._commit_buffer = {z: op for z, op in self._commit_buffer.items()
                                   if z > snap["zxid"]}

    # ======================================================================
    # Notifications (beats, commits)
    # ======================================================================
    def _on_notify(self, src: str, body: Any) -> None:
        kind = body.get("zk")
        if kind == "beat":
            if body["epoch"] >= self.epoch:
                self._adopt_leader_soft(body["leader"], body["epoch"])
                self.last_beat = self.sim.now
                committed = body.get("committed", 0)
                if committed > self.applied_zxid and not self.is_leader:
                    self._heal_target = max(self._heal_target, committed)
                    self._start_gap_heal()
        elif kind == "commit":
            self._on_commit(body["zxid"], body.get("op"), body["epoch"], src)
        elif kind == "new_leader":
            self._adopt_leader(body["leader"], body["epoch"])

    def _adopt_leader_soft(self, leader: str, epoch: int) -> None:
        """Adopt leadership info from a beat without forcing a resync."""
        if epoch > self.epoch or self.leader_name is None:
            self._adopt_leader(leader, epoch)
        elif epoch == self.epoch and leader == self.leader_name:
            pass  # steady state
