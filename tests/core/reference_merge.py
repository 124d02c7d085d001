"""The read-merge's reference: the store-backed merge, kept as oracle.

This is ``repro.core.coordinator._LwwMerge`` (with its ``_holds``) as it
stood before the merge moved onto the replies' wire tuples, moved here
verbatim under the name ``ReferenceMerge``.  It unwires every reply
into ``ValueElement`` rows of a scratch ``VersionedStore`` and merges
them with ``merge_elements``, which is what defines the merge.  The
tests require the production merge to answer exactly what this answers:
the latest element, the wire rows, the agree counts, the repairs and
their payloads, what a late responder lacks, and the reply rows.
"""

from typing import Optional

from repro.core.coordinator import unwire_elements, wire_elements
from repro.storage.versioned import ValueElement, VersionedStore


def _holds(elements: list[ValueElement], latest: ValueElement) -> bool:
    """Does a replica's answer contain the freshest version?"""
    source, timestamp = latest.source, latest.timestamp
    for e in elements:
        if e.source == source and e.timestamp == timestamp:
            return True
    return False


class ReferenceMerge:
    """Merge state of one ``latest``/``all`` read round over a group.

    Newest element per source under the full (timestamp, source) order.
    Each reply carries the row's write-mode flag so LWW rows collapse
    here too — the repair payload must not re-inflate a collapsed row
    on the replicas.  The single-key wire (``replica.read`` /
    ``replica.repair``) and the batched one (``replica.mread`` /
    ``replica.install``) differ only in :meth:`_rows` and
    :meth:`repair_args`.
    """

    repair_failed = "read-repair-failed"

    def __init__(self, keys: list[str], single: bool):
        self.keys = keys
        self.single = single
        self.store = VersionedStore()
        #: replica -> key -> the elements it answered with.
        self.responses: dict[str, dict[str, list[ValueElement]]] = {}

    def _rows(self, reply: dict) -> tuple[dict, dict]:
        """One replica reply as ({key: elements}, {key: lww flag})."""
        if self.single:
            key = self.keys[0]
            return ({key: unwire_elements(reply["elements"])},
                    {key: reply.get("lww")})
        return ({k: unwire_elements(blob)
                 for k, blob in reply["rows"].items()}, reply.get("lww", {}))

    def absorb(self, name: str, reply: dict) -> None:
        rows, flags = self._rows(reply)
        self.responses[name] = rows
        for k in self.keys:
            self.store.merge_elements(k, rows.get(k, []), lww=flags.get(k))

    def missing(self) -> bool:
        """Does some key look absent (what churn insurance re-checks)?"""
        rows = self.store.rows
        return any(not rows[k].elements for k in self.keys)

    def settle(self) -> list[str]:
        """Freeze the merged snapshot; returns the responders in reply
        order — arrival order for a single key, sorted for a batch (the
        order is part of the reply and of the repair fan-out)."""
        responders = (list(self.responses) if self.single
                      else sorted(self.responses))
        self.latest: dict[str, Optional[ValueElement]] = {}
        self.wire: dict[str, list[tuple]] = {}
        self.agree: dict[str, int] = {}
        #: stale replica -> {key: merged wire row} it has to be sent.
        self.repairs: dict[str, dict[str, list[tuple]]] = {}
        for k in self.keys:
            row = self.store.rows[k]    # absorb() made one for every key
            latest = self.latest[k] = row.latest()
            elements = row.elements
            if elements:
                self.wire[k] = wire_elements(elements)
            agree = 0
            for name in responders:
                held = self.responses[name].get(k, [])
                if latest is None:
                    agree += not held
                elif _holds(held, latest):
                    agree += 1
                elif elements:
                    self.repairs.setdefault(name, {})[k] = self.wire[k]
            self.agree[k] = agree
        return responders

    def repair_args(self, vnode_id: int, rows: dict) -> dict:
        flags = {k: self.store.rows[k].lww for k in rows}
        if self.single:
            key = self.keys[0]
            return {"vnode": vnode_id, "key": key, "elements": rows[key],
                    "lww": flags[key]}
        return {"vnode": vnode_id, "rows": rows,
                "lww": {k: lww for k, lww in flags.items()
                        if lww is not None}}

    def lacking(self, reply: dict) -> dict:
        """Merged rows a late responder turns out to be missing."""
        if not self.wire:
            return {}
        rows, _flags = self._rows(reply)
        return {k: self.wire[k] for k, latest in self.latest.items()
                if latest is not None and k in self.wire
                and not _holds(rows.get(k, []), latest)}

    def result(self, key: str, mode: str, responders: list[str]) -> dict:
        if mode == "all":
            return {"elements": self.wire.get(key, []),
                    "responders": responders}
        latest = self.latest[key]
        if latest is None:
            return {"found": False, "responders": responders}
        return {"found": True, "value": latest.value, "ts": latest.timestamp,
                "source": latest.source, "responders": responders}

