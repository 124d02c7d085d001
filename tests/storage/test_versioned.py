"""Unit and property tests for the versioned row store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.versioned import (Row, ValueElement, VersionedStore,
                                     WriteOutcome)


@pytest.fixture
def store():
    return VersionedStore()


class TestWriteLatest:
    def test_first_write_ok(self, store):
        assert store.write_latest("k", "v", 1.0, "s1") == WriteOutcome.OK
        assert store.read_latest("k").value == "v"

    def test_newer_timestamp_overwrites(self, store):
        store.write_latest("k", "old", 1.0, "s1")
        assert store.write_latest("k", "new", 2.0, "s2") == WriteOutcome.OK
        el = store.read_latest("k")
        assert el.value == "new" and el.source == "s2"

    def test_older_timestamp_outdated(self, store):
        store.write_latest("k", "new", 2.0, "s1")
        assert store.write_latest("k", "old", 1.0, "s2") == WriteOutcome.OUTDATED
        assert store.read_latest("k").value == "new"

    def test_equal_timestamp_tie_broken_by_source(self, store):
        store.write_latest("k", "a", 1.0, "s1")
        # same ts, higher source wins (deterministic across replicas)
        assert store.write_latest("k", "b", 1.0, "s2") == WriteOutcome.OK
        assert store.write_latest("k", "c", 1.0, "s0") == WriteOutcome.OUTDATED
        assert store.read_latest("k").value == "b"

    def test_write_latest_collapses_value_list(self, store):
        store.write_all("k", "a", 1.0, "s1")
        store.write_all("k", "b", 1.0, "s2")
        store.write_latest("k", "only", 2.0, "s3")
        assert len(store.read_all("k")) == 1

    def test_counters(self, store):
        store.write_latest("k", "v", 1.0, "s")
        store.write_latest("k", "w", 0.5, "s")
        assert store.writes_ok == 1 and store.writes_outdated == 1


class TestWriteAll:
    def test_each_source_keeps_own_element(self, store):
        store.write_all("k", "v1", 1.0, "s1")
        store.write_all("k", "v2", 1.0, "s2")
        elements = store.read_all("k")
        assert {e.source for e in elements} == {"s1", "s2"}

    def test_same_source_newer_updates(self, store):
        store.write_all("k", "old", 1.0, "s1")
        assert store.write_all("k", "new", 2.0, "s1") == WriteOutcome.OK
        elements = store.read_all("k")
        assert len(elements) == 1 and elements[0].value == "new"

    def test_same_source_older_outdated(self, store):
        store.write_all("k", "new", 2.0, "s1")
        assert store.write_all("k", "old", 1.0, "s1") == WriteOutcome.OUTDATED

    def test_other_sources_timestamps_irrelevant(self, store):
        store.write_all("k", "v", 100.0, "s1")
        # s2's element is compared only against s2's own history (§III.F)
        assert store.write_all("k", "w", 1.0, "s2") == WriteOutcome.OK

    def test_read_latest_picks_freshest_element(self, store):
        store.write_all("k", "a", 1.0, "s1")
        store.write_all("k", "b", 3.0, "s2")
        store.write_all("k", "c", 2.0, "s3")
        assert store.read_latest("k").value == "b"


class TestReadsAndDelete:
    def test_read_missing(self, store):
        assert store.read_latest("nope") is None
        assert store.read_all("nope") == []

    def test_delete(self, store):
        store.write_latest("k", "v", 1.0, "s")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.read_latest("k") is None

    def test_len_contains_keys(self, store):
        store.write_latest("a", 1, 1.0, "s")
        store.write_latest("b", 2, 1.0, "s")
        assert len(store) == 2 and "a" in store
        assert set(store.rows) == {"a", "b"}


class TestDirtyTracking:
    @pytest.fixture
    def store(self):
        """A store a trigger scanner drains: it keeps the Dirty column."""
        store = VersionedStore()
        store.keep_dirty()
        return store

    def test_an_unscanned_store_keeps_no_dirty_column(self):
        store = VersionedStore()
        store.write_latest("k", "v", 1.0, "s")
        store.write_all("l", "v", 1.0, "s")
        store.merge_elements("m", [ValueElement("s", 1.0, "v")])
        assert store._dirty_keys is None
        assert store.drain_dirty() == []

    def test_writes_before_keep_dirty_are_not_dirty(self):
        store = VersionedStore()
        store.write_latest("before", "v", 1.0, "s")
        store.keep_dirty()
        store.write_latest("after", "v", 1.0, "s")
        assert [k for k, _ in store.drain_dirty()] == ["after"]

    def test_write_sets_dirty(self, store):
        store.write_latest("k", "v", 1.0, "s")
        assert store.drain_dirty() == [("k", store.rows["k"])]

    def test_outdated_write_does_not_set_dirty(self, store):
        store.write_latest("k", "v", 2.0, "s")
        store.drain_dirty()
        store.write_latest("k", "w", 1.0, "s")
        assert store.drain_dirty() == []

    def test_drain_clears_flags_in_order(self, store):
        store.write_latest("b", 1, 1.0, "s")
        store.write_latest("a", 2, 1.0, "s")
        drained = store.drain_dirty()
        assert [k for k, _ in drained] == ["b", "a"], "dirty order, not key order"
        assert store.drain_dirty() == []
        store.write_latest("a", 3, 2.0, "s")
        assert [k for k, _ in store.drain_dirty()] == ["a"], "clean until rewritten"

    def test_rewrite_moves_key_to_back_of_dirty_order(self, store):
        store.write_latest("a", 1, 1.0, "s")
        store.write_latest("b", 1, 1.0, "s")
        store.write_latest("a", 2, 2.0, "s")
        assert [k for k, _ in store.drain_dirty()] == ["b", "a"]

    def test_drain_limit(self, store):
        for i in range(5):
            store.write_latest(f"k{i}", i, 1.0, "s")
        assert len(store.drain_dirty(limit=2)) == 2
        assert len(store.drain_dirty()) == 3


class TestValueElement:
    """A named tuple since it stopped being a frozen dataclass: the
    repr and hash below are the dataclass's, recorded before the
    change."""

    def test_repr_is_the_dataclass_repr(self):
        assert repr(ValueElement("node-1", 1.25, "value")) == (
            "ValueElement(source='node-1', timestamp=1.25, value='value')")
        assert repr(ValueElement("s", 3, b"\x00b")) == (
            "ValueElement(source='s', timestamp=3, value=b'\\x00b')")
        assert repr(ValueElement("s", 2.0, [1, ("a", None)])) == (
            "ValueElement(source='s', timestamp=2.0, value=[1, ('a', None)])")

    @pytest.mark.parametrize("fields, want", [
        ((7, 1.5, 42), 7467552377755640006),
        ((0, -2.25, 3), -4609631991746941172),
        ((1, 0.0, 10 ** 20), -7828868150047147795),
    ])
    def test_hash_is_the_dataclass_hash(self, fields, want):
        # Fields without str: their hash does not depend on PYTHONHASHSEED.
        assert hash(ValueElement(*fields)) == want

    def test_hash_and_fields_are_the_field_tuple(self):
        el = ValueElement("s", 1.0, "v")
        assert hash(el) == hash(("s", 1.0, "v"))
        assert (el.source, el.timestamp, el.value) == tuple(el)


class TestRow:
    def test_row_has_no_instance_dict(self):
        assert not hasattr(Row(), "__dict__")

    def test_unmonitored_rows_share_one_empty_monitors(self, store):
        store.write_latest("a", "v", 1.0, "s")
        store.write_all("b", "v", 1.0, "s")
        assert store.rows["a"].monitors is store.rows["b"].monitors
        assert store.rows["a"].monitors == frozenset()
        store.register_monitor("a", "m1")
        assert store.rows["a"].monitors == {"m1"}
        assert store.rows["b"].monitors == frozenset()

    def test_latest_of_one_element_row(self):
        el = ValueElement("s", 1.0, "v")
        assert Row([el]).latest() == el
        assert Row().latest() is None


class TestMonitors:
    def test_register_on_missing_key_creates_row(self, store):
        store.register_monitor("future", "m1")
        assert store.rows["future"].monitors == {"m1"}

    def test_monitors_survive_writes(self, store):
        store.register_monitor("k", "m1")
        store.write_latest("k", "v", 1.0, "s")
        assert store.rows["k"].monitors == {"m1"}


class TestReplicationSupport:
    def test_merge_newest_wins_per_source(self, store):
        store.write_all("k", "mine", 2.0, "s1")
        store.merge_elements("k", [
            ValueElement("s1", 1.0, "stale"),
            ValueElement("s2", 3.0, "fresh"),
        ])
        elements = {e.source: e.value for e in store.read_all("k")}
        assert elements == {"s1": "mine", "s2": "fresh"}

    def test_merge_is_idempotent(self, store):
        incoming = [ValueElement("s1", 1.0, "v")]
        store.merge_elements("k", incoming)
        store.merge_elements("k", incoming)
        assert len(store.read_all("k")) == 1

    def test_merge_tie_broken_by_source(self, store):
        """Regression: merge_elements must use the same (timestamp,
        source) order as write_latest — a strict ``timestamp >`` alone
        made replicas disagree on equal-timestamp ties depending on
        whether the element arrived by write or by merge."""
        store.write_all("k", "low", 1.0, "s1")
        changed = store.merge_elements("k", [ValueElement("s1", 1.0,
                                                          "low-again")])
        assert not changed          # equal (ts, source): not newer
        store.merge_elements("k", [ValueElement("s2", 1.0, "high")])
        # Two replicas that saw the writes in opposite orders converge
        # on the same latest: (1.0, "s2") > (1.0, "s1").
        other = VersionedStore()
        other.merge_elements("k", [ValueElement("s2", 1.0, "high")])
        other.merge_elements("k", [ValueElement("s1", 1.0, "low")])
        assert (store.read_latest("k").source
                == other.read_latest("k").source == "s2")

    def test_merge_into_lww_row_stays_collapsed(self, store):
        """Regression: anti-entropy re-inflated write_latest rows.

        A write_latest row holds exactly one element; per-source merge
        append used to tack superseded sources back on, so digests
        never converged and anti-entropy churned forever.  Merging
        with ``lww=True`` (the flag replication now ships) must prune
        back to the single latest element."""
        store.write_latest("k", "new", 2.0, "s2")
        changed = store.merge_elements(
            "k", [ValueElement("s1", 1.0, "stale")], lww=True)
        elements = store.read_all("k")
        assert len(elements) == 1 and elements[0].value == "new"
        del changed

    def test_lww_merge_digests_converge(self):
        """Two replicas of a write_latest key reach identical element
        sets (hence identical anti-entropy digests) after one exchange
        in each direction — the perpetual-churn proof."""
        a, b = VersionedStore(), VersionedStore()
        a.write_latest("k", "v1", 1.0, "s1")
        a.write_latest("k", "v2", 2.0, "s2")   # collapsed to one on a
        b.write_latest("k", "v1", 1.0, "s1")   # b missed the second write
        digest = lambda s: [(e.source, e.timestamp)          # noqa: E731
                            for e in s.read_all("k")]
        # Exchange both ways, shipping the lww flag like replication.
        b.merge_elements("k", a.read_all("k"), lww=a.rows["k"].lww)
        a.merge_elements("k", b.read_all("k"), lww=b.rows["k"].lww)
        assert digest(a) == digest(b) == [("s2", 2.0)]
        # Idempotent from here: another round changes nothing.
        assert not b.merge_elements("k", a.read_all("k"),
                                    lww=a.rows["k"].lww)
        assert not a.merge_elements("k", b.read_all("k"),
                                    lww=b.rows["k"].lww)


# -- property tests -------------------------------------------------------

timestamps = st.floats(min_value=0, max_value=1e6, allow_nan=False)
sources = st.sampled_from(["s1", "s2", "s3"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(timestamps, sources, st.integers()), max_size=50))
def test_write_latest_converges_to_max_timestamp(writes):
    """Property: after any write sequence, read_latest returns the write
    with the maximal (timestamp, source) — replica-order independence."""
    store = VersionedStore()
    for ts, src, val in writes:
        store.write_latest("k", val, ts, src)
    if writes:
        best = max(writes, key=lambda w: (w[0], w[1]))
        got = store.read_latest("k")
        assert (got.timestamp, got.source) == (best[0], best[1])


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(8))))
def test_write_latest_order_independence(order):
    """Property: final state is identical for any delivery order (the
    lock-free claim of §III.F)."""
    writes = [(float(i), f"s{i % 3}", f"v{i}") for i in range(8)]
    store = VersionedStore()
    for idx in order:
        ts, src, val = writes[idx]
        store.write_latest("k", val, ts, src)
    got = store.read_latest("k")
    assert got.value == "v7"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(sources, timestamps, st.integers()), max_size=40))
def test_write_all_keeps_newest_per_source(writes):
    """Property: value list holds exactly the newest element per source."""
    store = VersionedStore()
    expected: dict = {}
    for src, ts, val in writes:
        store.write_all("k", val, ts, src)
        if src not in expected or ts > expected[src][0]:
            expected[src] = (ts, val)
    got = {e.source: (e.timestamp, e.value) for e in store.read_all("k")}
    assert got == expected
