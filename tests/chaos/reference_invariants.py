"""The invariant checkers' reference: the record-scanning versions, kept
as oracle.

These are ``repro.chaos.invariants``' checkers and ``History``'s
queries as they stood before the history grew a per-key index and the
freshness checker became a per-key sweep, moved here verbatim.  The
queries answer by scanning every record (:class:`ReferenceQueries`
wraps a live ``History`` and reads only its ``records``), and every
checker body is unchanged, so the oracle costs what the old code cost:
quadratic in the history.  The tests require the production checkers to
return exactly what these return, in the same order.
"""

from typing import Optional

from repro.chaos.history import WRITE_KINDS, History, OpRecord
from repro.chaos.invariants import Anomaly, FinalState
from repro.storage.versioned import DvvRow, ctx_covers, unwire_dvv_row


class ReferenceQueries:
    """``History``'s read side, answering from a scan of every record."""

    def __init__(self, history: History):
        self.records = history.records

    def ops(self, kind: Optional[str] = None,
            key: Optional[str] = None) -> list[OpRecord]:
        """Completed records matching the criteria, in op order."""
        out = []
        for record in self.records:
            if not record.done:
                continue
            if kind is not None and record.kind != kind:
                continue
            if key is not None and record.key != key:
                continue
            out.append(record)
        return out

    def written_keys(self) -> list[str]:
        """Keys any write (acked or not) was attempted on, sorted."""
        return sorted({r.key for r in self.records
                       if r.kind in WRITE_KINDS})

    def deleted_keys(self) -> set[str]:
        """Keys touched by any delete attempt — even a *failed* delete
        may have removed the row on a minority of replicas, so these
        keys are tainted for the durability-flavoured invariants."""
        return {r.key for r in self.records if r.kind == "delete"}

    def acked_writes(self, key: str, kind: Optional[str] = None
                     ) -> list[OpRecord]:
        """Quorum-acknowledged (status ``ok``) writes on ``key``."""
        out = []
        for record in self.records:
            if record.key != key or record.status != "ok":
                continue
            if record.kind not in WRITE_KINDS:
                continue
            if kind is not None and record.kind != kind:
                continue
            out.append(record)
        return out

    def causal_keys(self) -> list[str]:
        """Keys any causal (DVV) write was attempted on, sorted."""
        return sorted({r.key for r in self.records
                       if r.kind == "write_causal"})

    def acked_causal_writes(self, key: str) -> list[OpRecord]:
        """Quorum-acknowledged causal writes on ``key``, op order."""
        return [r for r in self.records
                if r.key == key and r.kind == "write_causal"
                and r.status == "ok"]


def _merged_elements(state: FinalState, key: str) -> dict[str, tuple]:
    """source -> (ts, value): newest-per-source across the replica set."""
    merged: dict[str, tuple] = {}
    for elements in state.holders.get(key, {}).values():
        for source, ts, value in elements:
            if source not in merged or ts > merged[source][0]:
                merged[source] = (ts, value)
    return merged


def _final_latest(state: FinalState, key: str):
    """(ts, source, value) of the freshest surviving element, or None."""
    best = None
    for source, (ts, value) in _merged_elements(state, key).items():
        if best is None or (ts, source) > (best[0], best[1]):
            best = (ts, source, value)
    return best


def check_durability(history, state: FinalState) -> list[Anomaly]:
    """Invariant 1: no quorum-acked ``write_latest`` lost."""
    anomalies = []
    tainted = history.deleted_keys()
    for key in history.written_keys():
        if key in tainted:
            continue
        acked = history.acked_writes(key, kind="write_latest")
        if not acked:
            continue
        winner = max(acked, key=lambda r: (r.ts, r.client))
        latest = _final_latest(state, key)
        if latest is None:
            anomalies.append(Anomaly(
                "durability", key,
                f"acked write ts={winner.ts} by {winner.client} vanished "
                f"(no surviving element on any replica)"))
        elif (latest[0], latest[1]) < (winner.ts, winner.client):
            anomalies.append(Anomaly(
                "durability", key,
                f"final latest (ts={latest[0]}, src={latest[1]}) older than "
                f"acked write (ts={winner.ts}, src={winner.client})"))
    return anomalies


def _ack_set_lost(write, read, crashes) -> bool:
    """True when every acker of ``write`` crashed (memory wiped)
    between the write's ack and the read's invocation."""
    if not write.acks:
        return False
    for acker in write.acks:
        if not any(node == acker and write.completed < t < read.invoked
                   for t, node in crashes):
            return False
    return True


def check_freshness(history, state: FinalState,
                    crashes: tuple = ()) -> list[Anomaly]:
    """Invariant 2: reads after acked writes return them or newer."""
    anomalies = []
    tainted = history.deleted_keys()
    for read in history.ops(kind="read_latest"):
        if read.key in tainted or read.status == "failure":
            continue
        acked = [w for w in history.acked_writes(read.key,
                                                 kind="write_latest")
                 if w.completed is not None and w.completed <= read.invoked]
        if not acked:
            continue
        winner = max(acked, key=lambda r: (r.ts, r.client))
        surviving = [w for w in acked
                     if not _ack_set_lost(w, read, crashes)]
        survivor = (max(surviving, key=lambda r: (r.ts, r.client))
                    if surviving else None)
        if read.status == "miss":
            if survivor is None:
                anomalies.append(Anomaly(
                    "durability-loss", read.key,
                    f"op#{read.op_id} ({read.client}) missed: every "
                    f"acked write's ack set crashed before the read",
                    expected=True))
                continue
            anomalies.append(Anomaly(
                "freshness", read.key,
                f"op#{read.op_id} ({read.client}) missed despite write "
                f"ts={survivor.ts} acked at t={survivor.completed:.3f} "
                f"before read at t={read.invoked:.3f}"))
        elif (read.result_ts, read.result_source) < (winner.ts,
                                                     winner.client):
            if survivor is None or (read.result_ts, read.result_source) \
                    >= (survivor.ts, survivor.client):
                # Fresh against everything that could have survived;
                # the newer acked write died with its whole ack set.
                anomalies.append(Anomaly(
                    "durability-loss", read.key,
                    f"op#{read.op_id} ({read.client}) returned "
                    f"ts={read.result_ts}; newer acked write "
                    f"ts={winner.ts} (acks={list(winner.acks)}) lost — "
                    f"all ackers crashed before the read",
                    expected=True))
            else:
                anomalies.append(Anomaly(
                    "freshness", read.key,
                    f"op#{read.op_id} ({read.client}) returned stale "
                    f"ts={read.result_ts} (src={read.result_source}); "
                    f"acked write ts={survivor.ts} "
                    f"(src={survivor.client}) completed earlier and an "
                    f"acker survived"))
    return anomalies


def check_replication(history, state: FinalState) -> list[Anomaly]:
    """Invariant 3: replication factor back to N on the final set."""
    anomalies = []
    tainted = history.deleted_keys()
    for key in history.written_keys():
        if key in tainted or not history.acked_writes(key):
            continue
        _vnode, replicas = state.replica_sets.get(key, (None, []))
        holders = state.holders.get(key, {})
        missing = [r for r in replicas if not holders.get(r)]
        if missing:
            anomalies.append(Anomaly(
                "replication", key,
                f"absent on {missing} of final replica set {replicas}"))
    return anomalies


def check_value_lists(history, state: FinalState) -> list[Anomaly]:
    """Invariant 4: no source's newest acked ``write_all`` element lost."""
    anomalies = []
    tainted = history.deleted_keys()
    keys = {r.key for r in history.records if r.kind == "write_all"}
    for key in sorted(keys):
        if key in tainted:
            continue
        merged = _merged_elements(state, key)
        per_source: dict[str, float] = {}
        for write in history.acked_writes(key, kind="write_all"):
            per_source[write.client] = max(per_source.get(write.client,
                                                          float("-inf")),
                                           write.ts)
        for source, newest_ts in sorted(per_source.items()):
            surviving = merged.get(source)
            if surviving is None:
                anomalies.append(Anomaly(
                    "value-list", key,
                    f"source {source} lost from value list (newest acked "
                    f"ts={newest_ts})"))
            elif surviving[0] < newest_ts:
                anomalies.append(Anomaly(
                    "value-list", key,
                    f"source {source} element ts={surviving[0]} older than "
                    f"newest acked ts={newest_ts}"))
    return anomalies


def check_cache_convergence(history, state: FinalState) -> list[Anomaly]:
    """Invariant 5: every mapping cache equals the ZK assignment."""
    anomalies = []
    for label, caches in (("node", state.node_caches),
                          ("client", state.client_caches)):
        for name, snapshot in sorted(caches.items()):
            diffs = [v for v, (a, b) in
                     enumerate(zip(snapshot, state.assignment)) if a != b]
            if diffs:
                shown = diffs[:5]
                anomalies.append(Anomaly(
                    "cache", name,
                    f"{label} cache diverges from ZK on vnodes {shown}"
                    + (f" (+{len(diffs) - len(shown)} more)"
                       if len(diffs) > len(shown) else "")))
    return anomalies


def check_migrations(history, state: FinalState,
                     migrations: tuple = ()) -> list[Anomaly]:
    """Invariant 6: no acked write lost or key unreachable across a
    live migration."""
    anomalies = []
    tainted = history.deleted_keys()
    done_vnodes: dict[int, dict] = {}
    for entry in migrations:
        vnode_id = entry.get("vnode")
        if entry.get("state") == "done":
            done_vnodes[vnode_id] = entry
        elif entry.get("state") != "aborted":
            anomalies.append(Anomaly(
                "migration", f"vnode-{vnode_id}",
                f"ledger entry unresolved after quiesce: state="
                f"{entry.get('state')!r} {entry.get('donor')} -> "
                f"{entry.get('receiver')} (reason={entry.get('reason')!r})"))
    if not done_vnodes:
        return anomalies
    for key in sorted(state.replica_sets):
        vnode_id, replicas = state.replica_sets[key]
        if vnode_id not in done_vnodes or key in tainted:
            continue
        if not history.acked_writes(key):
            continue
        holders = state.holders.get(key, {})
        if not any(holders.get(r) for r in replicas):
            entry = done_vnodes[vnode_id]
            anomalies.append(Anomaly(
                "migration", key,
                f"unreachable after vnode {vnode_id} migrated "
                f"{entry['donor']} -> {entry['receiver']}: no replica "
                f"of {replicas} holds it"))
    return anomalies


def _merged_dvv(state: FinalState, key: str) -> DvvRow:
    """Join every replica's causal row for ``key`` (uncapped)."""
    merged = DvvRow()
    for blob in state.dvv_holders.get(key, {}).values():
        if blob:
            merged.merge(unwire_dvv_row(blob))
    return merged


def _causal_fate(write, acked, merged_dots):
    """``preserved`` / ``superseded`` / ``lost`` for one acked causal
    write."""
    if write.dot is None:
        return "lost"
    if tuple(write.dot) in merged_dots:
        return "preserved"
    for other in acked:
        if other is write or not other.ctx:
            continue
        if ctx_covers(dict(other.ctx), tuple(write.dot)):
            return "superseded"
    return "lost"


def check_causal(history, state: FinalState,
                 crashes: tuple = ()) -> list[Anomaly]:
    """Invariant 7: no concurrent causal write silently lost."""
    anomalies = []
    tainted = history.deleted_keys()
    for key in history.causal_keys():
        if key in tainted:
            continue
        acked = history.acked_causal_writes(key)
        if not acked:
            continue
        merged = _merged_dvv(state, key)
        merged_dots = {s.dot for s in merged.siblings}
        for write in acked:
            fate = _causal_fate(write, acked, merged_dots)
            if fate != "lost":
                continue
            ack_set_wiped = write.acks and all(
                any(node == acker and t > write.completed
                    for t, node in crashes)
                for acker in write.acks)
            if ack_set_wiped:
                anomalies.append(Anomaly(
                    "causal-durability-loss", key,
                    f"op#{write.op_id} ({write.client}) dot={write.dot} "
                    f"lost after its whole ack set crashed",
                    expected=True))
            else:
                anomalies.append(Anomaly(
                    "causal", key,
                    f"concurrent write silently lost: op#{write.op_id} "
                    f"({write.client}) dot={write.dot} "
                    f"value={write.value!r} — not a sibling of the final "
                    f"row and no acked write's context covers it"))
    return anomalies


def causal_outcomes(history: History, state: FinalState) -> dict:
    """Per-fate tallies of acked causal writes (BENCH_dvv.json)."""
    history = ReferenceQueries(history)
    out = {"acked": 0, "preserved": 0, "superseded": 0, "lost": 0}
    tainted = history.deleted_keys()
    for key in history.causal_keys():
        if key in tainted:
            continue
        acked = history.acked_causal_writes(key)
        merged_dots = {s.dot for s in _merged_dvv(state, key).siblings}
        for write in acked:
            out["acked"] += 1
            out[_causal_fate(write, acked, merged_dots)] += 1
    return out


def lww_concurrent_losses(history: History, state: FinalState,
                          keys=None) -> dict[str, int]:
    """Per-key count of updates last-write-wins destroyed *blind*."""
    history = ReferenceQueries(history)
    losses: dict[str, int] = {}
    tainted = history.deleted_keys()
    for key in (sorted(keys) if keys is not None
                else history.written_keys()):
        if key in tainted:
            continue
        acked = history.acked_writes(key, kind="write_latest")
        reads = [r for r in history.ops(kind="read_latest")
                 if r.key == key and r.status == "found"]
        count = 0
        for write in acked:
            beaters = [o for o in acked
                       if (o.ts, o.client) > (write.ts, write.client)]
            if not beaters:
                continue  # the key's final survivor
            first = min(beaters, key=lambda r: (r.ts, r.client))
            if first.client == write.client:
                continue  # own later write: causally after, not blind
            seen = any(
                r.client == first.client and r.completed <= first.invoked
                and (r.result_ts, r.result_source) >= (write.ts,
                                                       write.client)
                for r in reads)
            if not seen:
                count += 1
        if count:
            losses[key] = count
    return losses


CHECKS = (check_durability, check_freshness, check_replication,
          check_value_lists, check_cache_convergence, check_migrations,
          check_causal)


def check_all(history: History, state: FinalState,
              crashes: tuple = (),
              migrations: tuple = ()) -> list[Anomaly]:
    """Run every invariant over the record-scanning queries."""
    history = ReferenceQueries(history)
    anomalies: list[Anomaly] = []
    for check in CHECKS:
        if check in (check_freshness, check_causal):
            anomalies.extend(check(history, state, crashes=crashes))
        elif check is check_migrations:
            anomalies.extend(check(history, state, migrations=migrations))
        else:
            anomalies.extend(check(history, state))
    return anomalies
