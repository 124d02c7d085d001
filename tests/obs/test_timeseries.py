"""Unit tests for the deterministic time-series recorder."""

import json

import pytest

from repro.net.simulator import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (SERIES_SCHEMA, TimeSeriesRecorder,
                                  sparkline)

BUCKETS = (0.001, 0.01, 0.1)


def _recorder(**kw):
    reg = MetricsRegistry()
    kw.setdefault("interval", 0.25)
    return reg, TimeSeriesRecorder(reg, **kw)


class TestSampling:
    def test_counter_points_are_deltas(self):
        reg, rec = _recorder()
        c = reg.counter("ops", node="n1")
        c.inc(3)
        rec.sample(0.25)
        c.inc(2)
        rec.sample(0.50)
        rec.sample(0.75)  # no movement
        assert rec.window("n1/ops") == [3, 2, 0]

    def test_gauge_points_are_levels(self):
        reg, rec = _recorder()
        g = reg.gauge("depth", node="n1")
        g.set(4.0)
        rec.sample(0.25)
        g.set(1.5)
        rec.sample(0.50)
        assert rec.window("n1/depth") == [4.0, 1.5]

    def test_histogram_points_are_delta_triples(self):
        reg, rec = _recorder()
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        h.observe(0.005)
        h.observe(0.05)
        rec.sample(0.25)
        h.observe(0.0005)
        rec.sample(0.50)
        dcount, dsum, dbuckets = rec.window("n1/lat")[0]
        assert dcount == 2
        assert dsum == pytest.approx(0.055)
        assert dbuckets == (0, 1, 1, 0)
        assert rec.window("n1/lat")[1][0] == 1
        assert rec.tracks["n1/lat"].bounds == BUCKETS

    def test_late_series_left_padded_for_alignment(self):
        reg, rec = _recorder()
        reg.counter("ops", node="n1").inc()
        rec.sample(0.25)
        rec.sample(0.50)
        late = reg.counter("late", node="n2")
        late.inc(7)
        rec.sample(0.75)
        assert rec.window("n2/late") == [0, 0, 7]
        assert len(rec.window("n2/late")) == len(rec.times)

    def test_rings_bounded_by_capacity(self):
        reg, rec = _recorder(capacity=4)
        c = reg.counter("ops", node="n1")
        for i in range(10):
            c.inc(i)
            rec.sample(0.25 * (i + 1))
        assert rec.samples_taken == 10
        assert len(rec.times) == 4
        assert rec.window("n1/ops") == [6, 7, 8, 9]

    def test_on_sample_hooks_see_every_delta(self):
        reg, rec = _recorder()
        seen = []
        rec.on_sample.append(lambda now, deltas: seen.append((now, deltas)))
        reg.counter("ops", node="n1").inc(2)
        rec.sample(0.25)
        assert seen == [(0.25, {"n1/ops": 2})]

    def test_bad_interval_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesRecorder(reg, interval=0.0)


class TestQueries:
    def test_rate_over_window(self):
        reg, rec = _recorder()
        c = reg.counter("ops", node="n1")
        for tick in range(4):
            c.inc(5)
            rec.sample(0.25 * (tick + 1))
        assert rec.rate("n1/ops") == pytest.approx(20.0)
        assert rec.rate("n1/ops", samples=2) == pytest.approx(20.0)

    def test_rate_uses_histogram_observation_count(self):
        reg, rec = _recorder()
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        h.observe(0.005)
        h.observe(0.005)
        rec.sample(0.25)
        assert rec.rate("n1/lat") == pytest.approx(8.0)

    def test_rate_of_unknown_series_is_zero(self):
        _, rec = _recorder()
        assert rec.rate("nope") == 0.0

    def test_matching_is_sorted_fnmatch(self):
        reg, rec = _recorder()
        reg.counter("ops", node="n2")
        reg.counter("ops", node="n1")
        reg.gauge("depth", node="n1")
        rec.sample(0.25)
        assert rec.matching("*/ops") == ["n1/ops", "n2/ops"]
        assert rec.matching("n1/*") == ["n1/depth", "n1/ops"]

    def test_matching_sees_a_series_registered_after_the_query(self):
        """``matching`` is memoised per pattern; a new series must
        still join every pattern asked for before it existed."""
        reg, rec = _recorder()
        reg.counter("ops", node="n1")
        rec.sample(0.25)
        assert rec.matching("*/ops") == ["n1/ops"]
        assert rec.matching("n3/*") == []
        reg.counter("ops", node="n3")
        rec.sample(0.50)
        assert rec.matching("*/ops") == ["n1/ops", "n3/ops"]
        assert rec.matching("n3/*") == ["n3/ops"]


class TestSimDriven:
    def test_recurring_sampling_on_the_sim_clock(self):
        sim = Simulator()
        reg, rec = _recorder(interval=0.5)
        c = reg.counter("ops", node="n1")

        def load():
            for _ in range(4):
                c.inc(2)
                yield sim.timeout(0.5)

        rec.start(sim)
        proc = sim.process(load())
        sim.run(until=proc)
        sim.run(until=2.6)
        assert rec.samples_taken == 5
        assert rec.times[0] == pytest.approx(0.5)
        assert sum(rec.window("n1/ops")) == 8

    def test_stop_halts_the_loop(self):
        sim = Simulator()
        _, rec = _recorder(interval=0.5)
        rec.start(sim)
        sim.run(until=1.1)
        rec.stop()
        sim.run(until=5.0)
        assert rec.samples_taken == 2


class TestExport:
    def test_export_schema_and_round_trip(self):
        reg, rec = _recorder()
        reg.counter("ops", node="n1").inc(3)
        reg.gauge("depth", node="n1").set(2.0)
        reg.histogram("lat", node="n1", buckets=BUCKETS).observe(0.05)
        rec.sample(0.25)
        export = rec.export()
        assert export["schema"] == SERIES_SCHEMA
        assert export["samples"] == 1
        assert export["series"]["n1/lat"]["bounds"] == list(BUCKETS)
        assert export["series"]["n1/lat"]["points"][0]["count"] == 1
        assert json.loads(json.dumps(export)) == export

    def test_identical_histories_export_identical_json(self):
        def build():
            reg, rec = _recorder()
            c = reg.counter("ops", node="n1")
            for tick in range(3):
                c.inc(tick)
                rec.sample(0.25 * (tick + 1))
            return json.dumps(rec.export(), sort_keys=True)
        assert build() == build()

    def test_format_series_lines(self):
        reg, rec = _recorder()
        c = reg.counter("ops", node="n1")
        for tick in range(3):
            c.inc(tick)
            rec.sample(0.25 * (tick + 1))
        text = rec.format_series("*/ops")
        assert SERIES_SCHEMA in text
        assert "n1/ops" in text
        assert "/s]" in text


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_flat_window_renders_low_blocks(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_ramp_hits_both_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_width_takes_the_tail(self):
        line = sparkline([9.0] * 10 + [0.0, 1.0], width=2)
        assert len(line) == 2
        assert line == "▁█"
