"""What a stored LWW row costs in memory.

A ``write_latest`` row is one slotted object holding its element in its
own slots: 80 bytes, six slots.  Measured with ``tracemalloc`` over
10 000 fresh keys, a row costs ~101 B with its rows-dict entry in a
store nobody scans (it was ~241 when a row was a dataclass, a one-item
list and a named tuple, and ~129 while every store kept a dirty-key
entry per row and a row cached its wire size).  A store a trigger
scanner drains keeps the Dirty column too, ~21 B more per row.

``tracemalloc`` reports the size each allocation asked for, not the
block pymalloc serves it from (requests are rounded up to 16-byte size
classes): the 80 B row fills its class exactly, the 88 B row it
replaced took a 96 B block.  Key strings, values and timestamps are
built before the measurement: they belong to the caller, not to the
store.

``python -m tests.storage.test_row_bytes`` prints both figures.
"""

import gc
import sys
import tracemalloc

from repro.storage import versioned
from repro.storage.versioned import Row, VersionedStore

N = 10_000
#: Bytes per fresh LWW row in an unscanned store, rows-dict entry
#: included.
BYTES_PER_ROW_MAX = 110


def _inputs(n: int) -> tuple[list[str], list[float]]:
    return [f"key-{i:016d}" for i in range(n)], [float(i) for i in range(n)]


def _scanned() -> VersionedStore:
    store = VersionedStore()
    store.keep_dirty()
    return store


def bytes_per_row(n: int = N, make=VersionedStore) -> float:
    """Traced bytes per key after ``n`` fresh ``write_latest`` keys."""
    store = make()
    keys, stamps = _inputs(n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key, ts in zip(keys, stamps):
            store.write_latest(key, "value", ts, "node-1")
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == n
    return (after - before) / n


def test_a_row_is_80_bytes():
    assert sys.getsizeof(Row()) == 80
    assert len(Row.__slots__) == 6


def test_a_fresh_lww_row_costs_at_most_110_bytes():
    assert bytes_per_row() <= BYTES_PER_ROW_MAX


def test_rewriting_a_key_allocates_no_row():
    store = _scanned()
    keys, stamps = _inputs(N)
    for key in keys:
        store.write_latest(key, "old", -1.0, "node-1")
    rows = dict(store.rows)
    gc.collect()
    tracemalloc.start()
    try:
        for key, ts in zip(keys, stamps):
            store.write_latest(key, "new", ts, "node-1")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert all(store.rows[key] is rows[key] for key in keys)
    assert store.read_latest(keys[-1]).value == "new"
    # Blocks the store allocated during the rewrites and still holds:
    # the dirty-key dict may have resized, but no block per key survives.
    held = snapshot.filter_traces([tracemalloc.Filter(True, versioned.__file__)])
    blocks = sum(stat.count for stat in held.statistics("filename"))
    assert blocks < 10, blocks


if __name__ == "__main__":
    print(f"bytes per fresh LWW row ({N} keys, rows-dict entry included): "
          f"{bytes_per_row():.1f} unscanned, "
          f"{bytes_per_row(make=_scanned):.1f} with the Dirty column")
