"""Unit tests for the metrics registry and the per-vnode stats feed."""

import json

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, NOOP, MetricsRegistry,
                               SNAPSHOT_SCHEMA, VnodeStatsFeed,
                               diff_snapshots)


class TestHandles:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", node="n1")
        c.inc()
        c.inc(4)
        g = reg.gauge("depth", node="n1")
        g.set(3.0)
        g.add(-1.0)
        assert c.value == 5
        assert g.value == 2.0

    def test_handles_are_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("ops", node="n1") is reg.counter("ops", node="n1")
        assert reg.counter("ops", node="n1") is not reg.counter("ops",
                                                                node="n2")
        assert reg.counter("ops", node="n1", vnode=3) is not \
            reg.counter("ops", node="n1")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("ops", node="n1")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("ops", node="n1")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("ops", node="n1")

    def test_disabled_registry_hands_out_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("ops", node="n1")
        h = reg.histogram("lat", node="n1")
        assert c is NOOP and h is NOOP
        c.inc(100)
        h.observe(1.0)
        assert c.value == 0 and h.count == 0
        snap = reg.snapshot()
        assert snap["enabled"] is False
        assert snap["series"] == {}

    def test_cardinality_cap_degrades_to_noop(self):
        reg = MetricsRegistry(max_series=2)
        a = reg.counter("a")
        b = reg.counter("b")
        c = reg.counter("c")
        d = reg.counter("d")
        assert a is not NOOP and b is not NOOP
        assert c is NOOP and d is NOOP
        assert reg.dropped_series == 2
        assert reg.snapshot()["dropped_series"] == 2
        # Existing series still resolve to their live handles.
        assert reg.counter("a") is a


class _Source:
    def __init__(self):
        self.hits = 0


class TestCountFrom:
    """Series exported from a plain int, read at snapshot time."""

    def test_exports_the_int_as_a_counter(self):
        reg = MetricsRegistry()
        source = _Source()
        reg.count_from(source, "hits", "store.reads", node="n1")
        source.hits += 3
        assert reg.snapshot()["series"]["n1/store.reads"] == {
            "type": "counter", "value": 3}

    def test_a_new_source_continues_the_series(self):
        """A restarted node's fresh store keeps its predecessor's
        count, as a shared Counter handle did."""
        reg = MetricsRegistry()
        old, new = _Source(), _Source()
        reg.count_from(old, "hits", "store.reads", node="n1")
        old.hits = 5
        reg.count_from(new, "hits", "store.reads", node="n1")
        new.hits = 2
        assert reg.snapshot()["series"]["n1/store.reads"]["value"] == 7

    def test_disabled_and_capped_registries_export_nothing(self):
        source = _Source()
        off = MetricsRegistry(enabled=False)
        off.count_from(source, "hits", "store.reads")
        assert off.snapshot()["series"] == {}
        capped = MetricsRegistry(max_series=1)
        capped.counter("first")
        capped.count_from(source, "hits", "store.reads")
        assert capped.dropped_keys == ["-/store.reads"]

    def test_takes_its_slot_when_registered(self):
        """Registration order decides what the cap drops, as before."""
        reg = MetricsRegistry(max_series=1)
        reg.count_from(_Source(), "hits", "store.reads")
        assert reg.counter("later") is NOOP

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.gauge("store.reads")
        with pytest.raises(ValueError, match="already registered"):
            reg.count_from(_Source(), "hits", "store.reads")


class TestHistogram:
    def test_boundary_lands_in_its_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.001, 0.01, 0.1))
        h.observe(0.001)   # exactly on the first boundary
        h.observe(0.0005)  # below the first boundary
        h.observe(0.05)    # between 0.01 and 0.1
        h.observe(5.0)     # above the last boundary -> +inf
        data = h.export()
        assert data["buckets"] == {"0.001": 2, "0.01": 0, "0.1": 1}
        assert data["inf"] == 1
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(5.0515)

    def test_default_buckets_cover_latency_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.bounds == DEFAULT_BUCKETS
        for value in (0.00005, 0.003, 2.0, 30.0):
            h.observe(value)
        data = h.export()
        assert data["count"] == 4
        assert data["inf"] == 1  # only the 30 s outlier

    def test_same_name_different_buckets_reuses_first(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", buckets=(1.0,))
        h2 = reg.histogram("lat", buckets=(2.0, 3.0))
        assert h1 is h2
        assert h1.bounds == (1.0,)


class TestVnodeStatsFeed:
    def test_row_aggregates_statuses(self):
        feed = VnodeStatsFeed("n1")
        feed.record_read(3)
        feed.record_read(3)
        feed.record_write(7, n=5)
        feed.key_added(3, size=10)
        feed.key_added(7, size=4)
        feed.key_removed(7, size=4)
        assert feed.row() == {"vnodes": 2, "keys": 1, "bytes": 10,
                              "reads": 2, "writes": 5}

    def test_per_vnode_sorted_export(self):
        feed = VnodeStatsFeed("n1")
        feed.record_write(9)
        feed.record_read(2)
        assert list(feed.per_vnode()) == ["2", "9"]
        assert feed.per_vnode()["9"]["writes"] == 1

    def test_discard_drops_vnode(self):
        feed = VnodeStatsFeed("n1")
        feed.record_read(1)
        feed.discard(1)
        assert feed.row()["vnodes"] == 0

    def test_feed_replaced_on_reregister(self):
        reg = MetricsRegistry()
        old = VnodeStatsFeed("n1")
        new = VnodeStatsFeed("n1")
        reg.register_feed(old)
        reg.register_feed(new)
        assert list(reg.feeds()) == [new]


class TestSnapshot:
    def _loaded(self):
        reg = MetricsRegistry()
        reg.counter("ops", node="n1").inc(3)
        reg.counter("ops", node="n1", vnode=4).inc(1)
        reg.gauge("depth").set(2.5)
        reg.histogram("lat", node="n1", buckets=(0.1,)).observe(0.05)
        feed = VnodeStatsFeed("n1")
        feed.record_read(4)
        reg.register_feed(feed)
        return reg

    def test_schema_and_labels(self):
        snap = self._loaded().snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert set(snap["series"]) == {"n1/ops", "n1/v4/ops", "-/depth",
                                       "n1/lat"}
        assert snap["vnodes"]["n1"]["4"]["reads"] == 1

    def test_identical_runs_export_identical_json(self):
        a, b = self._loaded(), self._loaded()
        assert a.to_json() == b.to_json()

    def test_to_text_lines(self):
        text = self._loaded().to_text()
        assert "n1/ops 3" in text
        assert "n1/lat count=1" in text
        assert "n1/vnode/4 keys=0 bytes=0 reads=1 writes=0" in text

    def test_diff_snapshots(self):
        reg = self._loaded()
        before = reg.snapshot()
        reg.counter("ops", node="n1").inc(2)
        reg.counter("new", node="n2").inc()
        after = reg.snapshot()
        delta = diff_snapshots(before, after)
        assert "n2/new" in delta["added"]
        assert delta["removed"] == []
        assert delta["changed"]["n1/ops"]["before"]["value"] == 3
        assert delta["changed"]["n1/ops"]["after"]["value"] == 5

    def test_snapshot_round_trips_through_json(self):
        snap = self._loaded().snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestDroppedSeries:
    def test_distinct_dropped_keys_counted_once(self):
        reg = MetricsRegistry(max_series=1)
        reg.counter("kept", node="n1")
        for _ in range(3):  # same key re-requested: one distinct drop
            assert reg.counter("lost", node="n2") is NOOP
        reg.gauge("also-lost", node="n1")
        assert reg.dropped_series == 2
        assert reg.dropped_keys == ["n1/also-lost", "n2/lost"]

    def test_snapshot_surfaces_dropped_keys(self):
        reg = MetricsRegistry(max_series=1)
        reg.counter("kept", node="n1")
        reg.counter("lost", node="n2", vnode=4)
        snap = reg.snapshot()
        assert snap["dropped_series"] == 1
        assert snap["dropped_keys"] == ["n2/v4/lost"]

    def test_nothing_dropped_under_cap(self):
        reg = MetricsRegistry()
        reg.counter("ops", node="n1")
        assert reg.dropped_series == 0
        assert reg.dropped_keys == []


class TestFeedUnderflow:
    def test_removal_clamped_at_zero_and_counted(self):
        feed = VnodeStatsFeed("n1")
        feed.key_added(3, 100)
        feed.key_removed(3, 100)
        assert feed.underflows == 0
        feed.key_removed(3, 50)  # double-reported departure
        assert feed.underflows == 1
        status = feed.status(3)
        assert status.keys == 0
        assert status.bytes == 0
        assert feed.row()["keys"] == 0

    def test_bytes_only_underflow_also_clamped(self):
        feed = VnodeStatsFeed("n1")
        feed.key_added(1, 10)
        feed.key_added(1, 10)
        feed.key_removed(1, 30)  # keys fine (1 left), bytes negative
        assert feed.underflows == 1
        assert feed.status(1).keys == 1
        assert feed.status(1).bytes == 0

    def test_snapshot_reports_underflows_per_feed(self):
        reg = MetricsRegistry()
        feed = reg.register_feed(VnodeStatsFeed("n1"))
        feed.key_removed(0, 5)
        snap = reg.snapshot()
        assert snap["feed_underflows"] == {"n1": 1}


class TestDiffMeta:
    def test_meta_section_tracks_registry_level_changes(self):
        reg = MetricsRegistry(max_series=2)
        reg.counter("a", node="n1")
        before = reg.snapshot()
        reg.counter("b", node="n1")
        reg.counter("overflow", node="n2")  # dropped
        after = reg.snapshot()
        delta = diff_snapshots(before, after)
        assert delta["meta"]["dropped_series"] == {"before": 0, "after": 1}
        assert delta["meta"]["dropped_keys"] == {
            "before": [], "after": ["n2/overflow"]}
        assert "enabled" not in delta["meta"]

    def test_meta_empty_when_nothing_changed(self):
        reg = MetricsRegistry()
        reg.counter("a", node="n1")
        snap = reg.snapshot()
        assert diff_snapshots(snap, snap)["meta"] == {}


class TestQuantileInterpolation:
    BOUNDS = (1.0, 2.0, 4.0, 8.0)

    def _hist(self, values):
        from repro.obs.metrics import Histogram
        h = Histogram(self.BOUNDS)
        for v in values:
            h.observe(v)
        return h

    def test_quantile_matches_exact_percentiles_uniform(self):
        # 100 uniform samples in (0, 4): exact p-th percentile is
        # 4p/100; bucket interpolation must stay within a bucket width.
        values = [4.0 * (i + 0.5) / 100 for i in range(100)]
        h = self._hist(values)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            exact = 4.0 * q
            got = h.quantile(q)
            assert abs(got - exact) <= 1.0, (q, got, exact)

    def test_quantile_exact_at_bucket_boundaries(self):
        # 10 obs in (0,1], 10 in (1,2]: the median is exactly 1.0 and
        # p100 exactly 2.0 under uniform-in-bucket interpolation.
        h = self._hist([0.5] * 10 + [1.5] * 10)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(2.0)
        assert h.quantile(0.25) == pytest.approx(0.5)

    def test_quantile_overflow_clamps_to_top_bound(self):
        h = self._hist([100.0] * 5)
        assert h.quantile(0.99) == pytest.approx(8.0)

    def test_quantile_empty_and_bad_q(self):
        h = self._hist([])
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_fraction_le_interpolates_within_bucket(self):
        h = self._hist([0.5] * 10)  # all in (0, 1]
        assert h.fraction_le(1.0) == pytest.approx(1.0)
        assert h.fraction_le(0.5) == pytest.approx(0.5)
        assert h.fraction_le(0.0) == pytest.approx(0.0)

    def test_fraction_le_overflow_counts_as_bad(self):
        h = self._hist([0.5] * 9 + [100.0])
        assert h.fraction_le(8.0) == pytest.approx(0.9)

    def test_fraction_le_empty_is_vacuously_good(self):
        assert self._hist([]).fraction_le(1.0) == 1.0
