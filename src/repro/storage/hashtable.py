"""Open-chaining hash table with incremental rehash.

Memcached's primary index is a power-of-two bucket array of chains that
is *incrementally* migrated to a doubled array when the load factor
passes 1.5 — a full stop-the-world rehash would violate the latency
target, so each subsequent operation moves a handful of buckets.  We
reproduce that structure (rather than using a plain ``dict``) because
the migration behaviour matters for tail latency.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["HashTable", "fnv1a"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a(key: bytes) -> int:
    """64-bit FNV-1a — memcached's classic default hash."""
    h = _FNV_OFFSET
    for byte in key:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class _Cell:
    __slots__ = ("hash", "key", "value", "next")

    def __init__(self, h: int, key: bytes, value: Any,
                 nxt: Optional["_Cell"]) -> None:
        self.hash = h
        self.key = key
        self.value = value
        self.next = nxt


class HashTable:
    """Chained hash table keyed by ``bytes``.

    Parameters
    ----------
    initial_power:
        Buckets start at ``2**initial_power`` (memcached default 16; we
        default lower so tests exercise growth).
    max_load:
        Expansion threshold: items / buckets.
    migrate_per_op:
        Buckets moved to the new array per subsequent operation during
        an expansion.
    """

    def __init__(self, initial_power: int = 4, max_load: float = 1.5,
                 migrate_per_op: int = 2) -> None:
        self._power = initial_power
        self._buckets: list[Optional[_Cell]] = [None] * (1 << initial_power)
        self._old: Optional[list[Optional[_Cell]]] = None
        self._migrated = 0
        self.max_load = max_load
        self.migrate_per_op = migrate_per_op
        self.count = 0

    # -- internal helpers ------------------------------------------------
    def _bucket_of(self, h: int, table: list[Optional[_Cell]]) -> int:
        return h & (len(table) - 1)

    def _step_migration(self) -> None:
        old = self._old
        if old is None:
            return
        moved = 0
        while self._migrated < len(old) and moved < self.migrate_per_op:
            cell = old[self._migrated]
            while cell is not None:
                nxt = cell.next
                idx = self._bucket_of(cell.hash, self._buckets)
                cell.next = self._buckets[idx]
                self._buckets[idx] = cell
                cell = nxt
            old[self._migrated] = None
            self._migrated += 1
            moved += 1
        if self._migrated >= len(old):
            self._old = None
            self._migrated = 0

    def _maybe_expand(self) -> None:
        if self._old is not None:
            return
        if self.count / len(self._buckets) > self.max_load:
            self._old = self._buckets
            self._migrated = 0
            self._power += 1
            self._buckets = [None] * (1 << self._power)

    def _find(self, key: bytes) -> tuple[
            Optional[list[Optional[_Cell]]], Optional[int],
            Optional[_Cell], Optional[_Cell], int]:
        """Yield the (table, index, prev, cell) chain positions to search."""
        h = fnv1a(key)
        tables = [self._buckets]
        if self._old is not None:
            tables.append(self._old)
        for table in tables:
            idx = self._bucket_of(h, table)
            prev = None
            cell = table[idx]
            while cell is not None:
                if cell.hash == h and cell.key == key:
                    return table, idx, prev, cell, h
                prev, cell = cell, cell.next
        return None, None, None, None, h

    # -- public API --------------------------------------------------------
    def get(self, key: bytes, default: Any = None) -> Any:
        """Value for ``key`` or ``default``."""
        self._step_migration()
        _t, _i, _p, cell, _h = self._find(key)
        return cell.value if cell is not None else default

    def __contains__(self, key: bytes) -> bool:
        _t, _i, _p, cell, _h = self._find(key)
        return cell is not None

    def put(self, key: bytes, value: Any) -> bool:
        """Insert or update.  Returns True when the key was new."""
        self._step_migration()
        table, idx, _prev, cell, h = self._find(key)
        if cell is not None:
            cell.value = value
            return False
        bidx = self._bucket_of(h, self._buckets)
        self._buckets[bidx] = _Cell(h, key, value, self._buckets[bidx])
        self.count += 1
        self._maybe_expand()
        return True

    def remove(self, key: bytes) -> Any:
        """Delete ``key``; returns its value or None when absent."""
        self._step_migration()
        table, idx, prev, cell, _h = self._find(key)
        if cell is None:
            return None
        assert table is not None and idx is not None
        if prev is None:
            table[idx] = cell.next
        else:
            prev.next = cell.next
        self.count -= 1
        return cell.value

    def __len__(self) -> int:
        return self.count

    def items(self) -> Iterator[tuple[bytes, Any]]:
        """Iterate all (key, value) pairs (both tables during expansion)."""
        tables = [self._buckets]
        if self._old is not None:
            tables.append(self._old)
        for table in tables:
            for cell in table:
                while cell is not None:
                    yield cell.key, cell.value
                    cell = cell.next
