"""What a stored LWW row costs in memory.

A ``write_latest`` row is one slotted object holding its element in its
own slots.  Measured with ``tracemalloc`` over 10 000 fresh keys, a row
costs ~129 B with its rows-dict and dirty-key dict entries (it was ~241
when a row was a dataclass, a one-item list and a named tuple).  Key
strings, values and timestamps are built before the measurement: they
belong to the caller, not to the store.

``python -m tests.storage.test_row_bytes`` prints the figure.
"""

import gc
import tracemalloc

from repro.storage import versioned
from repro.storage.versioned import VersionedStore

N = 10_000
#: Bytes per fresh LWW row, rows-dict and dirty-key entries included.
BYTES_PER_ROW_MAX = 140


def _inputs(n: int) -> tuple[list[str], list[float]]:
    return [f"key-{i:016d}" for i in range(n)], [float(i) for i in range(n)]


def bytes_per_row(n: int = N) -> float:
    """Traced bytes per key after ``n`` fresh ``write_latest`` keys."""
    store = VersionedStore()
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


def test_a_fresh_lww_row_costs_at_most_140_bytes():
    assert bytes_per_row() <= BYTES_PER_ROW_MAX


def test_rewriting_a_key_allocates_no_row():
    store = VersionedStore()
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
    print(f"bytes per fresh LWW row ({N} keys, rows-dict and dirty-key "
          f"entries included): {bytes_per_row():.1f}")
