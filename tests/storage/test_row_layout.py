"""A row held in its own slots behaves as the value-list row it replaced,
and the store's vnode index as the node's set index it replaced.

Random sequences of the store's row operations run against
:class:`~repro.storage.versioned.VersionedStore` and against the
list-backed oracle in ``tests/storage/reference_row.py``.  After every
step both stores must agree on the step's outcome, on every row's
elements (order included), write mode and Monitors column, on every
causal row, on the dirty order (none until ``keep_dirty``) and on every
counter, and the store's per-vnode key lists, vnode order and key
counts must equal the reference's index.  Timestamps come from a small
set and sources from a short list, so ties between writes and between
sources are common; three keys over two vnodes put two keys in one
list.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.versioned import (DvvRow, DvvSibling, Row, ValueElement,
                                     VersionedStore)

from .reference_row import ReferenceStore

KEYS = ("a", "b", "c")
VNODES = (0, 1)


def vnode_of(key: str) -> int:
    return ord(key) % 2          # a, c -> 1; b -> 0

SOURCES = ("s0", "s1", "s2")
STAMPS = (0.0, 1.0, 2.0, 3.0)
VALUES = st.one_of(st.sampled_from(("", "v", "value")),
                   st.just(b"\x00b"), st.integers(0, 9))

keys = st.sampled_from(KEYS)
elements = st.builds(ValueElement, st.sampled_from(SOURCES),
                     st.sampled_from(STAMPS), VALUES)

WRITES = st.tuples(st.sampled_from(("write_latest", "write_all")), keys,
                   VALUES, st.sampled_from(STAMPS), st.sampled_from(SOURCES))
# Writes drawn three times as often as each other kind: a row needs
# several of them before a collapse, a move or a tie can show.
OPS = st.one_of(
    WRITES, WRITES, WRITES,
    st.tuples(st.just("merge_elements"), keys,
              st.lists(elements, max_size=4),
              st.sampled_from((True, False, None))),
    st.tuples(st.just("register_monitor"), keys, st.sampled_from(("m1", "m2"))),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("drain_dirty"), st.integers(0, 3)),
    st.tuples(st.sampled_from(("read_all", "read_latest", "read_row")), keys),
    st.tuples(st.just("causal_update"), keys, VALUES, st.sampled_from(STAMPS),
              st.sampled_from(SOURCES),
              st.dictionaries(st.sampled_from(SOURCES), st.integers(0, 2),
                              max_size=2),
              st.sampled_from(SOURCES)),
    st.tuples(st.just("causal_merge"), keys,
              st.builds(lambda counter, value: DvvRow(
                  {"s9": counter}, [DvvSibling("s9", counter, "s9", 1.0,
                                               value)]),
                  st.integers(1, 2), VALUES)),
    st.tuples(st.just("forget_vnode"), st.sampled_from(VNODES)),
    st.tuples(st.just("keep_dirty")),
)

COUNTERS = ("writes_ok", "writes_outdated", "reads", "bytes_written",
            "bytes_read")


def _apply(store, op: tuple):
    name, *args = op
    if name == "drain_dirty":
        return [(key, row.elements, row.monitors, row.lww)
                for key, row in store.drain_dirty(*args)]
    if name == "read_row":
        if isinstance(store, ReferenceStore):
            return [tuple(el) for el in store.read_all(*args)]
        row = store.read_row(*args)
        return [] if row is None else row.wire()
    if name == "causal_update":
        dot, row = store.causal_update(*args)
        return dot, row.shape()
    return getattr(store, name)(*args)


def _index(store) -> dict:
    """The vnode index, as the store and the node's old set index see it."""
    if isinstance(store, ReferenceStore):
        index = store.vnode_keys
        return {"keys": {v: sorted(index.get(v, ())) for v in VNODES},
                "order": [v for v, keys in index.items() if keys],
                "counts": [len(index[v]) if v in index else None
                           for v in VNODES]}
    return {"keys": {v: store.keys_of(v) for v in VNODES},
            "order": store.indexed_vnodes(),
            "counts": [store.key_count(v) for v in VNODES]}


def _state(store) -> dict:
    dirty = store._dirty_keys
    return {"rows": {key: (row.elements, row.lww, row.monitors, row.latest())
                     for key, row in store.rows.items()},
            "dvv": {key: row.shape() for key, row in store.dvv_rows.items()},
            "dirty": None if dirty is None else list(dirty),
            "index": _index(store),
            "counters": [getattr(store, c) for c in COUNTERS]}


# The moves a value-list row makes, pinned whatever the search draws:
# write_latest collapsing a list, write_all moving the first element to
# the back, and an LWW merge collapsing what write_all built.
@example([("write_all", "a", "x", 1.0, "s0"), ("write_all", "a", "y", 1.0, "s1"),
          ("write_latest", "a", "z", 3.0, "s2"), ("read_all", "a")])
@example([("write_all", "a", "x", 1.0, "s0"), ("write_all", "a", "y", 1.0, "s1"),
          ("write_all", "a", "w", 2.0, "s2"), ("write_all", "a", "z", 2.0, "s0"),
          ("write_all", "a", "v", 3.0, "s2"), ("drain_dirty", 0)])
@example([("write_all", "a", "x", 2.0, "s0"), ("write_all", "a", "y", 1.0, "s1"),
          ("merge_elements", "a", [ValueElement("s2", 1.0, "z")], True),
          ("read_row", "a")])
# The index's edge cases: a monitor-created row enters its list when
# written; a forgotten vnode's rows stay, in no list, until written or
# deleted; a key deleted and written again before any read of the index
# is listed once; a batch of deletes in one list.
@example([("register_monitor", "a", "m1"), ("write_latest", "a", "v", 1.0, "s0"),
          ("delete", "a")])
@example([("write_latest", "a", "v", 1.0, "s0"), ("write_latest", "c", "v", 1.0, "s0"),
          ("forget_vnode", 1), ("write_all", "c", "w", 2.0, "s1"),
          ("delete", "a"), ("delete", "c")])
@example([("keep_dirty",), ("write_latest", "a", "v", 1.0, "s0"), ("delete", "a"),
          ("merge_elements", "a", [], None), ("delete", "c"),
          ("causal_update", "c", "v", 1.0, "s0", {}, "s1"),
          ("drain_dirty", 0)])
@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_slotted_rows_match_the_value_list_rows(ops):
    store = VersionedStore(vnode_of=vnode_of)
    reference = ReferenceStore(vnode_of)
    for step, op in enumerate(ops):
        got, want = _apply(store, op), _apply(reference, op)
        assert got == want, (step, op)
        assert _state(store) == _state(reference), (step, op)
        for row in store.rows.values():
            assert row.wire() == [tuple(el) for el in row.elements]
            assert all(type(el) is ValueElement for el in row.elements)


def test_row_built_from_elements_keeps_their_order():
    els = [ValueElement("s1", 2.0, "x"), ValueElement("s0", 1.0, "y"),
           ValueElement("s2", 2.0, "z")]
    row = Row(els, lww=False)
    assert row.elements == els
    assert row.latest() == els[2]
    assert row.element_from("s0") == els[1]
    assert row.element_from("s9") is None
    assert Row().elements == [] and Row().wire() == []
