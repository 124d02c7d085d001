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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Optional, Union

from repro.storage.versioned import ValueElement, WriteOutcome, element_order

_NO_MONITORS: frozenset = frozenset()


def _value_size(value: Any) -> int:
    return len(value) if isinstance(value, (str, bytes)) else 8


@dataclass(slots=True)
class ReferenceRow:
    elements: list[ValueElement] = field(default_factory=list)
    monitors: Union[set[str], frozenset[str]] = _NO_MONITORS
    lww: Optional[bool] = None
    wire_size: Optional[int] = field(default=None, repr=False,
                                     compare=False)

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

    def __init__(self) -> None:
        self.rows: dict[str, ReferenceRow] = {}
        self._dirty_keys: dict[str, None] = {}
        self.writes_ok = 0
        self.writes_outdated = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _mark_dirty(self, key: str) -> None:
        dirty = self._dirty_keys
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
        elements = row.elements
        if elements:
            current = (elements[0] if len(elements) == 1
                       else max(elements, key=element_order))
            if (timestamp, source) <= (current.timestamp, current.source):
                self.writes_outdated += 1
                return WriteOutcome.OUTDATED
        row.elements = [ValueElement(source, timestamp, value)]
        row.wire_size = None
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
        existing = row.element_from(source)
        if existing is not None and timestamp <= existing.timestamp:
            self.writes_outdated += 1
            return WriteOutcome.OUTDATED
        if existing is not None:
            row.elements.remove(existing)
        row.elements.append(ValueElement(source, timestamp, value))
        row.wire_size = None
        self._mark_dirty(key)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return WriteOutcome.OK

    def delete(self, key: str) -> bool:
        existed = self.rows.pop(key, None) is not None
        self._dirty_keys.pop(key, None)
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
            row.wire_size = None
            self._mark_dirty(key)
