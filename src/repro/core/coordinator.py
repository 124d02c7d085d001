"""Quorum coordination: the parallel N-replica fan-out of §III.C/F.

Sedna is "a zero-hop DHT that each node caches enough routing
information locally to route a request to the appropriate node
directly" (§VII).  The same coordination logic therefore runs in two
places:

* inside every :class:`~repro.core.node.SednaNode`, serving requests
  from thin clients that route to any server (§III.A); and
* inside the *smart* :class:`~repro.core.client.SmartSednaClient`,
  which caches the mapping itself and talks straight to the replicas —
  the configuration the paper's load-test programs use ("Sedna writes
  every key value pair three times into different real nodes parallel",
  §VI.A.1).

:class:`QuorumCoordinator` encapsulates it once for both, and the paper
describes **one** protocol, so there is one pipeline
(docs/protocols.md §12): :meth:`QuorumCoordinator.coordinate` looks the
RPC method up in :data:`OPS` and runs it through

* one *attempt loop* (replica-set lookup → fan-out round → wait out a
  warming replica → invalidate the mapping and retry once),
* one *fan-out round* on a callback-counted
  :class:`~repro.net.rpc.QuorumWait` (answer at R/W, suspect refusals,
  keep watching the laggards), and
* for reads, one *merge / agree / repair / late-laggard* routine.

A single-key operation is the one-element case of a vnode-group; the
batched operations group their keys by virtual node and run the groups
concurrently, issuing **one** ``replica.mread``/``mwrite``/``mdelete``
per replica per group (Keyspace/Spinnaker-style batching: the
per-message and per-quorum overhead is amortized over the whole
group).  Concurrent single-key reads of the same key coalesce onto
shared fan-out rounds (thundering-herd protection).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from ..net.rpc import QuorumWait, RpcError, RpcNode, RpcRejected
from ..net.simulator import Event, Simulator
from ..net.transport import estimate_size
from ..storage.versioned import (DvvRow, ValueElement, WriteOutcome,
                                 unwire_dvv_row, wire_context, wire_dvv_row)
from .cache import MappingCache
from .config import SednaConfig

__all__ = ["OPS", "QuorumCoordinator", "wire_elements", "unwire_elements"]


def wire_elements(elements: list[ValueElement]) -> list[tuple]:
    """Serialize value-list elements for the simulated wire: plain
    tuples, never the named tuple itself (it sizes as an opaque
    object)."""
    return [(e.source, e.timestamp, e.value) for e in elements]


def unwire_elements(blob: list[tuple]) -> list[ValueElement]:
    """Inverse of :func:`wire_elements`."""
    return [ValueElement(source, ts, value) for source, ts, value in blob]


def _key(item: Any) -> str:
    """Key of one group item: a write entry (dict) or a bare key."""
    return item["key"] if type(item) is dict else item


def _order(el: tuple) -> tuple:
    """:func:`~repro.storage.versioned.element_order` of a wire tuple."""
    return (el[1], el[0])


def _holds(elements, latest: tuple) -> bool:
    """Does a replica's answer (wire tuples) hold the freshest version?"""
    source, timestamp = latest[0], latest[1]
    for e in elements:
        if e[0] == source and e[1] == timestamp:
            return True
    return False


class _LwwMerge:
    """Merge state of one ``latest``/``all`` read round over a group.

    Newest element per source under the full (timestamp, source) order,
    exactly as :meth:`VersionedStore.merge_elements` would merge the
    replies into an empty store, but on the replies' own wire tuples:
    a merged row is a list of the elements replicas sent, nothing is
    rebuilt.  Each reply carries the row's write-mode flag so LWW rows
    collapse here too — the repair payload must not re-inflate a
    collapsed row on the replicas.  The single-key wire
    (``replica.read`` / ``replica.repair``) and the batched one
    (``replica.mread`` / ``replica.install``) differ only in
    :meth:`_rows` and :meth:`repair_args`.
    """

    repair_failed = "read-repair-failed"

    def __init__(self, keys: list[str], single: bool):
        self.keys = keys
        self.single = single
        #: key -> merged wire row / its write-mode flag.
        self.merged: dict[str, list[tuple]] = {}
        self.lww: dict[str, Optional[bool]] = {}
        #: replica -> key -> the wire row it answered with.
        self.responses: dict[str, dict[str, list[tuple]]] = {}

    def _rows(self, reply: dict) -> tuple[dict, dict]:
        """One replica reply as ({key: wire row}, {key: lww flag})."""
        if self.single:
            key = self.keys[0]
            return {key: reply["elements"]}, {key: reply.get("lww")}
        return reply["rows"], reply.get("lww", {})

    def absorb(self, name: str, reply: dict) -> None:
        rows, flags = self._rows(reply)
        self.responses[name] = rows
        merged, lww = self.merged, self.lww
        for k in self.keys:
            row = merged.get(k)
            if row is None:
                row = merged[k] = []
                lww[k] = None
            flag = flags.get(k)
            if flag is not None:
                lww[k] = flag
            for el in rows.get(k, ()):
                source = el[0]
                for i, mine in enumerate(row):
                    if mine[0] == source:
                        if (el[1], source) > (mine[1], mine[0]):
                            del row[i]
                            row.append(el)
                        break
                else:
                    row.append(el)
            if lww[k] and len(row) > 1:
                row[:] = [max(row, key=_order)]

    def missing(self) -> bool:
        """Does some key look absent (what churn insurance re-checks)?"""
        merged = self.merged
        return any(not merged[k] for k in self.keys)

    def settle(self) -> list[str]:
        """Freeze the merged snapshot; returns the responders in reply
        order — arrival order for a single key, sorted for a batch (the
        order is part of the reply and of the repair fan-out)."""
        responders = (list(self.responses) if self.single
                      else sorted(self.responses))
        self.latest: dict[str, Optional[tuple]] = {}
        #: key -> merged wire row, for the keys some replica holds.
        self.wire: dict[str, list[tuple]] = {}
        self.agree: dict[str, int] = {}
        #: stale replica -> {key: merged wire row} it has to be sent.
        self.repairs: dict[str, dict[str, list[tuple]]] = {}
        answers = [(name, self.responses[name]) for name in responders]
        for k in self.keys:
            row = self.merged[k]    # absorb() made one for every key
            if not row:
                self.latest[k] = None
                self.agree[k] = sum(1 for _n, rows in answers
                                    if not rows.get(k))
                continue
            latest = self.latest[k] = (row[0] if len(row) == 1
                                       else max(row, key=_order))
            self.wire[k] = row
            agree = 0
            for name, rows in answers:
                if _holds(rows.get(k, ()), latest):
                    agree += 1
                else:
                    self.repairs.setdefault(name, {})[k] = row
            self.agree[k] = agree
        return responders

    def repair_args(self, vnode_id: int, rows: dict) -> dict:
        lww = self.lww
        if self.single:
            key = self.keys[0]
            return {"vnode": vnode_id, "key": key, "elements": rows[key],
                    "lww": lww[key]}
        return {"vnode": vnode_id, "rows": rows,
                "lww": {k: lww[k] for k in rows if lww[k] is not None}}

    def lacking(self, reply: dict) -> dict:
        """Merged rows a late responder turns out to be missing."""
        if not self.wire:
            return {}
        rows, _flags = self._rows(reply)
        return {k: self.wire[k] for k, latest in self.latest.items()
                if latest is not None and k in self.wire
                and not _holds(rows.get(k, ()), latest)}

    def result(self, key: str, mode: str, responders: list[str]) -> dict:
        if mode == "all":
            return {"elements": self.wire.get(key, []),
                    "responders": responders}
        latest = self.latest[key]
        if latest is None:
            return {"found": False, "responders": responders}
        source, ts, value = latest
        return {"found": True, "value": value, "ts": ts,
                "source": source, "responders": responders}


class _DvvMerge:
    """Merge state of one causal (DVV) read round: the R replicas' rows
    merged server-side.  The merged row's siblings are every concurrent
    version still alive; its version vector is the causal context
    returned to the client.  Replicas whose copy differs from the merge
    get it pushed back through ``replica.cmerge``.  No churn insurance
    and no late-laggard repair on this path (anti-entropy covers it).
    """

    repair_failed = "causal-repair-failed"

    def __init__(self, keys: list[str], single: bool):
        self.key = keys[0]
        self.row = DvvRow()
        #: replica -> shape of the row it answered with.
        self.responses: dict[str, tuple] = {}

    def absorb(self, name: str, reply: dict) -> None:
        row = (DvvRow() if reply["row"] is None
               else unwire_dvv_row(reply["row"]))
        self.responses[name] = row.shape()
        self.row.merge(row)

    def missing(self) -> bool:
        return False

    def settle(self) -> list[str]:
        responders = sorted(self.responses)
        shape = self.row.shape()
        stale = [n for n in responders if self.responses[n] != shape]
        self.agree = {self.key: len(responders) - len(stale)}
        self.repairs = {}
        if stale and (self.row.siblings or self.row.vv):
            row_wire = wire_dvv_row(self.row)
            self.repairs = {n: {self.key: row_wire} for n in stale}
        return responders

    def repair_args(self, vnode_id: int, rows: dict) -> dict:
        return {"vnode": vnode_id, "key": self.key, "row": rows[self.key]}

    def lacking(self, reply: dict) -> dict:
        return {}

    def result(self, key: str, mode: str, responders: list[str]) -> dict:
        return {"found": bool(self.row.siblings),
                "siblings": [[s.source, s.timestamp, s.value]
                             for s in self.row.siblings],
                "context": wire_context(self.row.vv),
                "responders": responders}


class _Op(NamedTuple):
    """One row of :data:`OPS`: everything that differs between the
    ``sedna.*`` methods.  The pipeline itself never branches on a
    method name.

    ``replica``/``repair`` name the replica-plane methods and
    ``replica_args`` builds the fan-out payload; the protocol analyzer
    reads all three (and the ``args`` keys the lambdas touch) straight
    from this table, so the literals here *are* the wire contract.
    """

    counter: str        # QuorumCoordinator attribute counting its rounds
    span: str
    #: request args -> group items: write entries (dicts) or bare keys.
    items: Callable[[Any], list]
    replica: str
    #: (vnode id, the group's items, request args) -> fan-out payload.
    replica_args: Callable[[int, list, Any], dict]
    failed: str = ""    # reason prefix when the quorum is not met
    read: bool = False  # R-quorum + merge/repair; else W-quorum + acks
    batch: bool = False  # one process per vnode-group, per-key failures
    #: (replica reply, the group's first key) -> the keys that replica
    #: applied; None: always ok.
    ack: Optional[Callable[[dict, str], Any]] = None
    merge: Any = None   # reads: _LwwMerge or _DvvMerge
    repair: str = ""    # reads: method that pushes the merged rows back
    latency: str = ""   # coord.<latency>.latency observed per attempt
    coalesce: bool = False  # concurrent callers share fan-out rounds
    mint: bool = False  # causal write: dot-minting two-phase round


OPS: dict[str, _Op] = {
    "sedna.write": _Op(
        counter="coordinated_writes", span="coord.write", latency="write",
        items=lambda args: [args],
        replica="replica.write",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "key": args["key"], "value": args["value"],
            "ts": args["ts"], "source": args["source"],
            "mode": args["mode"]},
        failed="write-quorum-failed",
        ack=lambda reply, key: (
            (key,) if reply["status"] == WriteOutcome.OK else ())),
    "sedna.read": _Op(
        counter="coordinated_reads", span="coord.read",
        read=True, coalesce=True,
        items=lambda args: [args["key"]],
        replica="replica.read",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "key": args["key"]},
        failed="read-quorum-failed",
        merge=_LwwMerge, repair="replica.repair"),
    # Not in the paper's API; completes the CRUD.  Runs the write
    # pipeline end to end so deletes issued right after churn trigger
    # the same lazy recovery as writes (§III.C/E).
    "sedna.delete": _Op(
        counter="coordinated_deletes", span="coord.delete",
        items=lambda args: [args["key"]],
        replica="replica.delete",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "key": args["key"]},
        failed="delete-quorum-failed"),
    "sedna.cwrite": _Op(
        counter="coordinated_causal_writes", span="coord.cwrite",
        latency="write", mint=True,
        items=lambda args: [args],
        replica="replica.cwrite",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "key": args["key"], "value": args["value"],
            "ts": args["ts"], "source": args["source"],
            "ctx": list(args.get("ctx") or [])}),
    "sedna.cread": _Op(
        counter="coordinated_causal_reads", span="coord.cread",
        read=True, latency="read",
        items=lambda args: [args["key"]],
        replica="replica.cread",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "key": args["key"]},
        failed="causal-read-failed",
        merge=_DvvMerge, repair="replica.cmerge"),
    "sedna.mwrite": _Op(
        counter="coordinated_multi_writes", span="coord.mwrite", batch=True,
        items=lambda args: args["entries"],
        replica="replica.mwrite",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode,
            "entries": [{"key": e["key"], "value": e["value"],
                         "ts": e["ts"], "source": e["source"],
                         "mode": e["mode"]} for e in items]},
        failed="write-quorum-failed",
        ack=lambda reply, key: [k for k, status in reply["statuses"].items()
                                if status == WriteOutcome.OK]),
    "sedna.mread": _Op(
        counter="coordinated_multi_reads", span="coord.mread",
        read=True, batch=True,
        items=lambda args: list(dict.fromkeys(args["keys"])),
        replica="replica.mread",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "keys": items},
        failed="read-quorum-failed",
        merge=_LwwMerge, repair="replica.install"),
    "sedna.mdelete": _Op(
        counter="coordinated_multi_deletes", span="coord.mdelete",
        batch=True,
        items=lambda args: list(dict.fromkeys(args["keys"])),
        replica="replica.mdelete",
        replica_args=lambda vnode, items, args: {
            "vnode": vnode, "keys": items},
        failed="delete-quorum-failed"),
}


class _InflightRead:
    """One in-flight read round in the coalescing map.

    ``done`` carries the round's result to followers; ``started`` is
    the simulated instant the round's fan-out was issued — the
    freshness-safety watermark followers compare their own invocation
    time against.
    """

    __slots__ = ("done", "started")

    def __init__(self, done: Event, started: float):
        self.done = done
        self.started = started


class QuorumCoordinator:
    """Runs quorum reads/writes against the replica plane.

    Parameters
    ----------
    sim, rpc, cache, config:
        The substrate handles.
    local_name / local_dispatch:
        When the coordinator lives on a storage node, calls to itself
        short-circuit the network through ``local_dispatch(method,
        args) -> Event``.
    on_suspect:
        Callback ``(replica_name, vnode_id)`` fired when a replica
        refuses or stays silent — nodes hook their lazy-recovery
        investigation here (§III.C).
    """

    def __init__(self, sim: Simulator, rpc: RpcNode, cache: MappingCache,
                 config: SednaConfig,
                 local_name: Optional[str] = None,
                 local_dispatch: Optional[Callable[[str, Any], Event]] = None,
                 on_suspect: Optional[Callable[[str, int], None]] = None,
                 obs=None):
        self.sim = sim
        self.rpc = rpc
        self.cache = cache
        self.config = config
        self.local_name = local_name
        self.local_dispatch = local_dispatch
        self.on_suspect = on_suspect
        # In-flight read rounds, keyed by (key, mode), for coalescing.
        self._inflight_reads: dict[tuple[str, str], _InflightRead] = {}
        # Stats.  The coordinated_* counters count fan-out *rounds*: a
        # retried write counts twice, a batch once per vnode-group.
        for op in OPS.values():
            setattr(self, op.counter, 0)
        self.coalesced_reads = 0
        self.read_repairs = 0
        # Observability: fan-out depth / laggard / repair series plus
        # coordinator-level spans (both no-ops without an obs bundle).
        self._tracer = obs.tracer if obs is not None else None
        metrics = obs.metrics if obs is not None else None
        if metrics is None:
            from ..obs.metrics import DISABLED
            metrics = DISABLED
        owner = local_name or rpc.name
        self._m_fanout = metrics.histogram(
            "quorum.fanout", node=owner,
            buckets=(1.0, 2.0, 3.0, 5.0, 8.0, 13.0))
        self._m_laggards = metrics.counter("quorum.laggards", node=owner)
        self._m_suspects = metrics.counter("quorum.suspects", node=owner)
        self._m_read_repairs = metrics.counter(
            "quorum.read_repairs", node=owner)
        self._m_coalesced = metrics.counter(
            "quorum.coalesced_reads", node=owner)
        # End-to-end coordinator latency (the number the rebalance bench
        # reports as p99): observed per request at quorum settle.
        self._m_latency = {
            kind: metrics.histogram(
                f"coord.{kind}.latency", node=owner,
                buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.2))
            for kind in ("write", "read")}

    def _span(self, name: str):
        """Open a coordinator span (None without an active trace)."""
        if self._tracer is None:
            return None
        return self._tracer.begin(name, node=self.local_name or self.rpc.name)

    # -- plumbing -----------------------------------------------------------
    def _suspect(self, name: str, vnode_id: int) -> None:
        self._m_suspects.inc()
        if self.on_suspect is not None:
            self.on_suspect(name, vnode_id)

    def _replica_call(self, replica: str, method: str, args: Any,
                      args_size: Optional[int] = None) -> Event:
        """``args_size``: ``estimate_size(args, 1)``, from a fan-out
        that sends one ``args`` to every replica and sized it once."""
        if replica == self.local_name and self.local_dispatch is not None:
            return self.local_dispatch(method, args)
        return self.rpc.call_async(replica, method, args, args_size)

    def _post_quorum_watch(self, calls: list[tuple[str, Event]],
                           vnode_id: int, already_ok: set[str]) -> None:
        """Keep watching the laggards after the quorum returned.

        Late refusals trigger suspicion, and so does *silence*: a dead
        replica never answers, so each outstanding call gets a deadline
        (§III.C: "according to the 'timeout', 'refuse' response ...
        Sedna service will determine whether the servers have failed").

        Called exactly once per fan-out, so it doubles as the sampling
        point for the fan-out-depth histogram and the laggard counter
        (replicas still silent when the quorum settled).

        One callback watches both the reply and its silence timer; the
        reply defuses the timer, so an answered laggard releases the
        call at once instead of request_timeout later.
        """
        self._m_fanout.observe(float(len(calls)))
        self._m_laggards.inc(sum(1 for name, ev in calls
                                 if name not in already_ok
                                 and not ev.triggered))
        for name, ev in calls:
            if name in already_ok:
                continue
            if ev.callbacks is None:
                if not ev.ok:
                    self._suspect(name, vnode_id)
                continue
            silence = self.sim.timeout(self.config.request_timeout)

            def watch(fired: Event, name=name, ev=ev, silence=silence) -> None:
                if fired is ev:
                    silence.defuse()
                    if not ev.ok:
                        self._suspect(name, vnode_id)
                elif not ev.triggered:
                    self._suspect(name, vnode_id)

            ev.callbacks.append(watch)
            silence.callbacks.append(watch)

    def _replica_set(self, key: str, found=None):
        """``(vnode id, replicas)`` from the cache, with one invalidation
        retry when the set is short; ``found`` is the caller's own
        lookup of ``key``, when it made one."""
        if found is None:
            found = self.cache.replicas_for_key(key)
        if len(found[1]) < self.config.replicas:
            yield from self.cache.invalidate(found[0])
            found = self.cache.replicas_for_key(key)
        return found

    def _warm_wait_limit(self) -> int:
        """How many request_timeout periods a warming replica is worth
        waiting out (two lease periods: the stale-cache window)."""
        return int(self.config.lease_base * 2
                   / self.config.request_timeout) + 2

    # -- the entry point ----------------------------------------------------
    def coordinate(self, method: str, args: Any):
        """Run one ``sedna.*`` request; ``yield from`` the result.

        Returns the method's reply dict, or raises
        :class:`~repro.net.rpc.RpcRejected` (a batch fails per key
        instead, inside ``reply["results"]``).
        """
        op = OPS[method]
        if op.coalesce:
            return self._coalesced(op, args)
        return self._run(op, args)

    def _run(self, op: _Op, args: Any):
        span = self._span(op.span)
        items = op.items(args)
        try:
            if op.batch:
                # Group by virtual node; the per-vnode quorums run
                # concurrently and fail independently.  The cache is
                # read directly; only a short replica set goes through
                # _replica_set's invalidation.
                groups: dict[int, list] = {}
                placed: dict[int, tuple[int, list[str]]] = {}
                lookup = self.cache.replicas_for_key
                n = self.config.replicas
                for item in items:
                    key = _key(item)
                    found = lookup(key)
                    if len(found[1]) < n:
                        found = yield from self._replica_set(key, found)
                    groups.setdefault(found[0], []).append(item)
                    placed[found[0]] = found
                results: dict[str, Any] = {}
                procs = [self.sim.process(
                    self._group(op, groups[v], args, placed[v], results),
                    name=f"{op.span[6:]}-v{v}") for v in sorted(groups)]
                for proc in procs:
                    yield proc
                result: dict = {"results": results}
                tags = {"keys": len(items), "groups": len(groups)}
            else:
                rows = yield from self._attempts(op, items, args)
                result = rows[_key(items[0])]
                tags = {} if span is None else {
                    k: result[k] for k in ("status", "found") if k in result}
        except RpcError:
            if span is not None:
                self._tracer.finish(span, status="failed")
            raise
        if span is not None:
            self._tracer.finish(span, **tags)
        return result

    def _coalesced(self, op: _Op, args: Any):
        """Single-key read entry: coalesces concurrent readers.

        Concurrent reads of the same ``(key, mode)`` share fan-out
        rounds instead of each paying its own N-way RPC storm
        (thundering-herd protection).  Sharing is *freshness-safe*: a
        follower only adopts a result whose fan-out started at or after
        the follower's own invocation — every write acked before the
        follower invoked is then visible in the shared result through
        the R+W>N overlap.  Followers that arrive while an older round
        is in flight wait it out and share the *next* round, so a herd
        of K concurrent readers costs at most two fan-outs.  When a
        round fails, its followers detach safely: each loops to either
        share a round a sibling just started or lead its own.
        """
        key = op.items(args)[0]
        token = (key, args.get("mode", "latest"))
        invoked = self.sim.now
        while True:
            entry = self._inflight_reads.get(token)
            if entry is None:
                break
            self.coalesced_reads += 1
            self._m_coalesced.inc()
            try:
                shared = yield entry.done
            except RpcError:
                shared = None  # the round's leader failed: detach
            if shared is not None and entry.started >= invoked:
                self._m_latency["read"].observe(self.sim.now - invoked)
                return dict(shared)
            # The settled round predates us (its replica responses may
            # miss writes acked before we invoked) or failed: loop.
        entry = _InflightRead(self.sim.event(), self.sim.now)
        # Observable, never mandatory: every follower may have detached
        # by the time the round settles.
        entry.done.callbacks.append(lambda _e: None)
        self._inflight_reads[token] = entry
        try:
            result = yield from self._run(op, args)
        except BaseException as err:
            self._inflight_reads.pop(token, None)
            if isinstance(err, Exception) and not entry.done.triggered:
                entry.done.fail(err)
            raise
        self._inflight_reads.pop(token, None)
        if not entry.done.triggered:
            entry.done.succeed(result)
        self._m_latency["read"].observe(self.sim.now - invoked)
        return result

    # -- the pipeline -------------------------------------------------------
    def _group(self, op: _Op, items: list, args: Any,
               placed: tuple[int, list[str]], out: dict):
        """Process body of one vnode-group of a batch: a group whose
        quorum fails takes only its own keys down — entries of groups
        that already met their quorum are **not** re-sent."""
        try:
            out.update((yield from self._attempts(op, items, args, placed)))
        except RpcRejected as err:
            for item in items:
                out[_key(item)] = self._failed_row(op, err.reason)

    @staticmethod
    def _failed_row(op: _Op, reason: str, responders=()) -> dict:
        """Per-key failure of a batched op."""
        if op.read:
            return {"status": "failure", "found": False, "error": reason,
                    "responders": list(responders)}
        row = {"status": WriteOutcome.FAILURE, "acks": []}
        if reason != "not-enough-replicas":
            # Wire compatibility: a write/delete group that never fanned
            # out has always failed without an "error" entry.
            row["error"] = reason
        return row

    def _attempts(self, op: _Op, items: list, args: Any,
                  placed: Optional[tuple[int, list[str]]] = None):
        """One vnode-group (a single key is a group of one) through the
        attempt loop; returns ``{key: reply row}``.

        Each attempt is one fan-out round: parallel calls to all N
        replicas, answered at the R/W quorum (§III.C/F).  A failed
        round is retried — after ``request_timeout`` while a freshly
        claimed replica is still ``warming`` (its handoff catch-up is
        transient, so reads wait it out), otherwise **once** after
        invalidating the mapping: a stale mapping fails a quorum with
        ``not-owner`` refusals (§III.E).

        ``placed`` is the group's ``(vnode id, replicas)`` when the
        caller already looked it up (batches do, to form the groups).
        """
        cfg = self.config
        sim = self.sim
        key = _key(items[0])
        quorum = cfg.read_quorum if op.read else cfg.write_quorum
        retried = False
        warm_waits = 0
        while True:
            setattr(self, op.counter, getattr(self, op.counter) + 1)
            started = sim.now
            if placed is None:
                placed = yield from self._replica_set(key)
            vnode_id, replicas = placed
            rows = None
            reason = "not-enough-replicas"
            warming = False
            if len(replicas) < quorum:
                if not op.batch:
                    raise RpcRejected(reason)
            elif op.mint:
                rows, reason = yield from self._mint_and_replicate(
                    vnode_id, replicas, key,
                    op.replica_args(vnode_id, items, args))
            else:
                payload = op.replica_args(vnode_id, items, args)
                size = estimate_size(payload, 1)
                calls = [(r, self._replica_call(r, op.replica, payload, size))
                         for r in replicas]
                wait = QuorumWait(sim, calls, quorum, cfg.request_timeout)
                try:
                    oks, fails = yield wait.done
                except RpcError as err:
                    self._post_quorum_watch(calls, vnode_id, set())
                    reason = f"{op.failed}:{err}"
                    warming = op.read and any(
                        isinstance(exc, RpcRejected) and "warming" in str(exc)
                        for _n, exc in wait.fails)
                else:
                    for name, _exc in fails:
                        self._suspect(name, vnode_id)
                    if op.read:
                        rows = yield from self._merge_and_repair(
                            op, vnode_id, items, calls, oks,
                            args.get("mode", "latest"))
                    else:
                        rows = self._acked(op, vnode_id, items, calls, oks)
            if rows is not None:
                if op.latency:
                    self._m_latency[op.latency].observe(sim.now - started)
                return rows
            if warming and warm_waits < self._warm_wait_limit():
                warm_waits += 1
                yield sim.timeout(cfg.request_timeout)
            elif not retried:
                retried = True
                yield from self.cache.invalidate(vnode_id)
            else:
                raise RpcRejected(reason)
            # A batch formed its groups from the first lookup and only
            # re-reads the cache; a single key goes back through
            # _replica_set, which also refreshes a short replica set.
            placed = self.cache.replicas_for_key(key) if op.batch else None

    def _acked(self, op: _Op, vnode_id: int, items: list,
               calls: list, oks: list) -> dict:
        """Settle a write/delete round: watch the laggards, fold the W
        acks into per-key statuses."""
        self._post_quorum_watch(calls, vnode_id, {n for n, _v in oks})
        acks = [name for name, _v in oks]
        # A key is ok when any W-quorum member applied it.
        applied = None
        if op.ack is not None:
            first = _key(items[0])
            applied = set()
            for _n, reply in oks:
                applied.update(op.ack(reply, first))
        rows = {}
        for item in items:
            key = _key(item)
            status = ("ok" if applied is None or key in applied
                      else WriteOutcome.OUTDATED)
            rows[key] = ({"status": status, "acks": acks} if op.batch else
                         {"status": status, "vnode": vnode_id, "acks": acks})
        return rows

    def _merge_and_repair(self, op: _Op, vnode_id: int, keys: list[str],
                          calls: list, oks: list, mode: str):
        """Settle a read round: merge, check R-equality, repair.

        §III.C: "requests all the corresponding real nodes to get data
        with timestamp, then checks for R equality."  Where fewer than R
        copies agree on the freshest version of a key, the merged rows
        are pushed to the stale responders (read repair) and the answer
        waits for as many repair acks as R-equality requires; repairs
        beyond that are fire-and-forget so divergent third replicas
        converge on the next read instead of lingering stale.
        """
        cfg = self.config
        merge = op.merge(keys, not op.batch)
        for name, reply in oks:
            merge.absorb(name, reply)
        if len(merge.responses) < len(calls) and merge.missing():
            # An apparent miss met by the first R (empty) replies can be
            # a membership-churn artifact: a recent write may live only
            # on a replica that has not answered yet (its quorum-set
            # overlap shrank while the mapping moved).  Cheap insurance:
            # wait out the remaining replies before concluding.
            pending = [(n, ev) for n, ev in calls if n not in merge.responses]
            laggards = QuorumWait(self.sim, pending, len(pending),
                                  cfg.request_timeout, fail_fast=False)
            try:
                yield laggards.done
            except RpcError:
                pass
            for name, reply in laggards.oks:
                merge.absorb(name, reply)
        responders = merge.settle()
        repairs = merge.repairs
        waits = []
        if repairs:
            repaired = len({k for rows in repairs.values() for k in rows})
            self.read_repairs += repaired
            self._m_read_repairs.inc(repaired)
            repair_calls = [
                (n, self._replica_call(
                    n, op.repair, merge.repair_args(vnode_id, repairs[n])))
                for n in responders if n in repairs]
            for k in keys:
                kcalls = [(n, ev) for n, ev in repair_calls
                          if k in repairs[n]]
                needed = min(cfg.read_quorum - merge.agree[k], len(kcalls))
                if needed > 0:
                    waits.append((k, QuorumWait(self.sim, kcalls, needed,
                                                cfg.request_timeout)))
        failed = {}
        for k, wait in waits:
            try:
                yield wait.done
            except RpcError as err:
                failed[k] = f"{merge.repair_failed}:{err}"
                if not op.batch:
                    raise RpcRejected(failed[k])
        self._post_quorum_watch(calls, vnode_id, set(merge.responses))

        # Laggards that answer *after* the quorum may still be stale
        # (e.g. a freshly recovered replica with an empty row): check
        # their late responses against the merged snapshot and repair
        # fire-and-forget.
        def late_check(done: Event, name: str) -> None:
            lacking = merge.lacking(done.value) if done.ok else None
            if lacking:
                self._replica_call(name, op.repair,
                                   merge.repair_args(vnode_id, lacking))

        for name, ev in calls:
            if name in merge.responses:
                continue
            if ev.callbacks is None:
                late_check(ev, name)
            else:
                ev.callbacks.append(
                    lambda done, _n=name: late_check(done, _n))
        rows = {}
        for k in keys:
            if k in failed:
                rows[k] = self._failed_row(op, failed[k], responders)
            else:
                rows[k] = merge.result(k, mode, responders)
                if op.batch:
                    rows[k]["status"] = "ok"
        return rows

    def _mint_and_replicate(self, vnode_id: int, replicas: list[str],
                            key: str, payload: dict):
        """The causal (DVV) write round: mint a dot, replicate the row.

        Phase 1 picks the first reachable replica as the *dot-minting*
        node (``replica.cwrite``): the client's causal context discards
        the siblings it has seen and the write gets a fresh
        ``(replica, counter)`` dot.  Phase 2 replicates the resulting
        row to the remaining replicas (``replica.cmerge``) until W
        total acks are in.  Returns ``(rows, None)``, or ``(None,
        reason)`` when either phase failed — the attempt loop then
        invalidates and retries once.  The first dot may survive on the
        minter; the retry mints a fresh sibling, which the client's
        next context-carrying write supersedes — safe, never silently
        lost.
        """
        cfg = self.config
        minter = mint_fail = None
        for candidate in replicas:
            wait = QuorumWait(self.sim, [(candidate, self._replica_call(
                candidate, "replica.cwrite", payload))], 1,
                cfg.request_timeout)
            try:
                oks, _fails = yield wait.done
            except RpcError as err:
                mint_fail = err
                self._suspect(candidate, vnode_id)
                continue
            minter, minted = oks[0]
            break
        if minter is None:
            return None, f"causal-write-failed:{mint_fail}"
        row_wire = minted["row"]
        merge_args = {"vnode": vnode_id, "key": key, "row": row_wire}
        size = estimate_size(merge_args, 1)
        calls = [(r, self._replica_call(r, "replica.cmerge", merge_args, size))
                 for r in replicas if r != minter]
        acks = [minter]
        needed = min(cfg.write_quorum - 1, len(calls))
        if needed > 0:
            wait = QuorumWait(self.sim, calls, needed, cfg.request_timeout)
            try:
                oks, fails = yield wait.done
            except RpcError as err:
                self._post_quorum_watch(calls, vnode_id, set())
                return None, f"causal-replicate-failed:{err}"
            for name, _exc in fails:
                self._suspect(name, vnode_id)
            acks.extend(name for name, _v in oks)
            self._post_quorum_watch(calls, vnode_id, {n for n, _v in oks})
        # The ack context is the minting replica's row vv, which may
        # cover concurrent siblings the client never read — so the ack
        # also carries those siblings' values (Riak's return_body).  A
        # follow-up write with this context supersedes exactly the
        # versions listed here: an *informed* overwrite, never a
        # silent loss.
        return {key: {"status": "ok", "vnode": vnode_id,
                      "dot": minted["dot"], "context": row_wire["vv"],
                      "siblings": [[s, ts, v] for _r, _c, s, ts, v
                                   in row_wire["siblings"]],
                      "acks": acks}}, None
