"""``Row`` and ``VersionedStore``'s reference: a row as a dataclass
holding a ``list[ValueElement]``, kept as the oracle.

``ReferenceRow`` is the row as a value list that every path rebuilds or
mutates in place; ``ReferenceStore`` carries the store's LWW write,
merge, delete, read, monitor and drain paths over it, line for line as
they ran on that representation.  ``tests/storage/test_row_layout.py``
requires :class:`~repro.storage.versioned.VersionedStore`, whose rows
hold their first element in their own slots, to give the same
outcomes, elements (order included), write modes, Monitors columns,
dirty order and counters as this reference on random operation
sequences.

The reference also keeps the vnode index the way the node kept it
before the store owned it: a set of keys per vnode, in first-entry
order, that every write path (causal ones included) adds its key to
after the write, that a delete takes the key out of and that
:meth:`ReferenceStore.forget_vnode` pops; a monitor registration
indexes nothing.  The store's per-vnode key lists, vnode order and key
counts must equal it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Optional, Union

from repro.storage.versioned import (DvvRow, ValueElement, WriteOutcome,
                                     element_order)

_NO_MONITORS: frozenset = frozenset()


def _value_size(value: Any) -> int:
    return len(value) if isinstance(value, (str, bytes)) else 8


@dataclass(slots=True)
class ReferenceRow:
    elements: list[ValueElement] = field(default_factory=list)
    monitors: Union[set[str], frozenset[str]] = _NO_MONITORS
    lww: Optional[bool] = None

    def latest(self) -> Optional[ValueElement]:
        elements = self.elements
        if len(elements) == 1:
            return elements[0]
        if not elements:
            return None
        return max(elements, key=element_order)

    def element_from(self, source: str) -> Optional[ValueElement]:
        for el in self.elements:
            if el.source == source:
                return el
        return None


class ReferenceStore:
    """The LWW half of the store over :class:`ReferenceRow`."""

    def __init__(self, vnode_of: Callable[[str], int],
                 dvv_sibling_cap: int = 16) -> None:
        self.rows: dict[str, ReferenceRow] = {}
        self.dvv_rows: dict[str, DvvRow] = {}
        self.dvv_sibling_cap = dvv_sibling_cap
        self._dirty_keys: Optional[dict[str, None]] = None
        self.vnode_of = vnode_of
        self.vnode_keys: dict[int, set[str]] = {}
        self.writes_ok = 0
        self.writes_outdated = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _index_key(self, key: str) -> None:
        self.vnode_keys.setdefault(self.vnode_of(key), set()).add(key)

    def forget_vnode(self, vnode_id: int) -> None:
        self.vnode_keys.pop(vnode_id, None)

    def keep_dirty(self) -> None:
        if self._dirty_keys is None:
            self._dirty_keys = {}

    def _mark_dirty(self, key: str) -> None:
        dirty = self._dirty_keys
        if dirty is None:
            return
        if key in dirty:
            del dirty[key]
        dirty[key] = None

    def write_latest(self, key: str, value: Any, timestamp: float,
                     source: str) -> str:
        row = self.rows.get(key)
        if row is None:
            row = ReferenceRow()
            self.rows[key] = row
        row.lww = True
        self._index_key(key)
        elements = row.elements
        if elements:
            current = (elements[0] if len(elements) == 1
                       else max(elements, key=element_order))
            if (timestamp, source) <= (current.timestamp, current.source):
                self.writes_outdated += 1
                return WriteOutcome.OUTDATED
        row.elements = [ValueElement(source, timestamp, value)]
        self._mark_dirty(key)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return WriteOutcome.OK

    def write_all(self, key: str, value: Any, timestamp: float,
                  source: str) -> str:
        row = self.rows.get(key)
        if row is None:
            row = ReferenceRow()
            self.rows[key] = row
        row.lww = False
        self._index_key(key)
        existing = row.element_from(source)
        if existing is not None and timestamp <= existing.timestamp:
            self.writes_outdated += 1
            return WriteOutcome.OUTDATED
        if existing is not None:
            row.elements.remove(existing)
        row.elements.append(ValueElement(source, timestamp, value))
        self._mark_dirty(key)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return WriteOutcome.OK

    def delete(self, key: str) -> bool:
        existed = self.rows.pop(key, None) is not None
        existed = (self.dvv_rows.pop(key, None) is not None) or existed
        if self._dirty_keys is not None:
            self._dirty_keys.pop(key, None)
        indexed = self.vnode_keys.get(self.vnode_of(key))
        if indexed is not None:
            indexed.discard(key)
        return existed

    def read_latest(self, key: str) -> Optional[ValueElement]:
        self.reads += 1
        row = self.rows.get(key)
        latest = row.latest() if row is not None else None
        if latest is not None:
            self.bytes_read += _value_size(latest.value)
        return latest

    def read_all(self, key: str) -> list[ValueElement]:
        self.reads += 1
        row = self.rows.get(key)
        if row is None:
            return []
        elements = list(row.elements)
        for el in elements:
            self.bytes_read += _value_size(el.value)
        return elements

    def register_monitor(self, key: str, monitor_id: str) -> None:
        row = self.rows.get(key)
        if row is None:
            row = ReferenceRow()
            self.rows[key] = row
        if row.monitors is _NO_MONITORS:
            row.monitors = set()
        row.monitors.add(monitor_id)

    def drain_dirty(self, limit: int = 0) -> list[tuple[str, ReferenceRow]]:
        dirty = self._dirty_keys
        if dirty is None:
            return []
        keys = list(dirty if limit <= 0 else islice(dirty, limit))
        out: list[tuple[str, ReferenceRow]] = []
        rows = self.rows
        for key in keys:
            del dirty[key]
            row = rows.get(key)
            if row is not None:
                out.append((key, row))
        return out

    def merge_elements(self, key: str, elements: list[ValueElement],
                       lww: Optional[bool] = None) -> None:
        row = self.rows.get(key)
        if row is None:
            row = ReferenceRow()
            self.rows[key] = row
        if lww is not None:
            row.lww = lww
        self._index_key(key)
        changed = False
        for el in elements:
            mine = row.element_from(el.source)
            if mine is None or element_order(el) > element_order(mine):
                if mine is not None:
                    row.elements.remove(mine)
                row.elements.append(el)
                changed = True
        if row.lww and len(row.elements) > 1:
            top = max(row.elements, key=element_order)
            row.elements = [top]
            changed = True
        if changed:
            self._mark_dirty(key)

    def causal_update(self, key: str, value: Any, timestamp: float,
                      source: str, ctx: dict[str, int],
                      replica_id: str) -> tuple[tuple[str, int], DvvRow]:
        row = self.dvv_rows.setdefault(key, DvvRow())
        dot, _pruned = row.update(ctx, source, timestamp, value,
                                  replica_id, self.dvv_sibling_cap)
        self._index_key(key)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return dot, row

    def causal_merge(self, key: str, incoming: DvvRow) -> bool:
        row = self.dvv_rows.setdefault(key, DvvRow())
        changed, _pruned = row.merge(incoming, self.dvv_sibling_cap)
        self._index_key(key)
        if changed:
            self.writes_ok += 1
        return changed
