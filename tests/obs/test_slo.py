"""Unit tests for declarative SLOs and burn-rate alerting."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (BurnWindow, SloEvaluator, SloSpec, default_slos)
from repro.obs.timeseries import TimeSeriesRecorder

BUCKETS = (0.001, 0.01, 0.05, 0.2)
FAST = BurnWindow(long=1.0, short=0.5, factor=4.0, label="fast")


def _setup(specs):
    reg = MetricsRegistry()
    rec = TimeSeriesRecorder(reg, interval=0.25, capacity=64)
    return reg, rec, SloEvaluator(rec, specs)


def _latency_spec(**kw):
    kw.setdefault("name", "lat")
    kw.setdefault("kind", "latency")
    kw.setdefault("objective", 0.9)
    kw.setdefault("series", "*/lat")
    kw.setdefault("threshold", 0.05)
    kw.setdefault("windows", (FAST,))
    return SloSpec(**kw)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="wat", objective=0.9, series="*")

    def test_objective_must_be_fractional(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                SloSpec(name="x", kind="latency", objective=bad, series="*")

    def test_error_rate_needs_total_series(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", kind="error_rate", objective=0.9, series="*")

    def test_default_slos_are_valid_and_exportable(self):
        specs = default_slos()
        assert len(specs) == 3
        payload = [s.export() for s in specs]
        assert json.loads(json.dumps(payload)) == payload


class TestLatencyBurn:
    def test_healthy_traffic_never_fires(self):
        reg, rec, ev = _setup([_latency_spec()])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        for tick in range(8):
            for _ in range(10):
                h.observe(0.002)
            rec.sample(0.25 * (tick + 1))
        assert ev.alerts == []
        assert ev.firing() == []

    def test_breach_fires_then_resolves(self):
        reg, rec, ev = _setup([_latency_spec()])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        now = 0.0
        for _ in range(4):
            now += 0.25
            for _ in range(10):
                h.observe(0.15)  # far over the 50ms threshold
            rec.sample(now)
        assert ev.firing() == ["lat/fast"]
        fire = ev.alerts[0]
        assert fire.state == "fire"
        assert fire.burn_long > 4.0 and fire.burn_short > 4.0
        for _ in range(8):
            now += 0.25
            for _ in range(10):
                h.observe(0.002)
            rec.sample(now)
        assert ev.firing() == []
        assert [a.state for a in ev.alerts] == ["fire", "resolve"]
        assert ev.alerts[0].time < ev.alerts[1].time

    def test_partial_breach_respects_objective(self):
        # 5% slow with a 90% objective burns at 0.5x — never alerts.
        reg, rec, ev = _setup([_latency_spec()])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        for tick in range(8):
            for i in range(20):
                h.observe(0.15 if i == 0 and tick % 2 == 0 else 0.002)
            rec.sample(0.25 * (tick + 1))
        assert ev.alerts == []

    def test_both_windows_must_exceed(self):
        # A single bad tick spikes the short window but not the long
        # one: no alert.
        reg, rec, ev = _setup([_latency_spec(
            windows=(BurnWindow(long=2.0, short=0.25, factor=4.0,
                                label="w"),))])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        now = 0.0
        for _ in range(7):
            now += 0.25
            for _ in range(10):
                h.observe(0.002)
            rec.sample(now)
        now += 0.25
        for _ in range(10):
            h.observe(0.15)
        rec.sample(now)
        assert ev.burn_rate(ev.specs[0], 0.25) > 4.0
        assert ev.burn_rate(ev.specs[0], 2.0) < 4.0
        assert ev.alerts == []

    def test_series_summed_across_nodes(self):
        reg, rec, ev = _setup([_latency_spec()])
        a = reg.histogram("lat", node="n1", buckets=BUCKETS)
        b = reg.histogram("lat", node="n2", buckets=BUCKETS)
        for _ in range(10):
            a.observe(0.002)
            b.observe(0.15)
        rec.sample(0.25)
        totals = ev._totals(_latency_spec(), 1)
        assert totals.total == 20
        assert totals.bad == pytest.approx(10.0)


class TestErrorRateAndFreshness:
    def test_error_rate_counts_failures_against_total(self):
        spec = SloSpec(name="avail", kind="error_rate", objective=0.9,
                       series="*/failures", total_series="*/ok_seconds",
                       windows=(FAST,))
        reg, rec, ev = _setup([spec])
        fails = reg.counter("failures", node="n1")
        ok = reg.histogram("ok_seconds", node="n1", buckets=BUCKETS)
        now = 0.0
        for _ in range(4):
            now += 0.25
            fails.inc(6)
            for _ in range(4):
                ok.observe(0.001)
            rec.sample(now)
        totals = ev._totals(spec, 2)
        assert totals.bad == pytest.approx(12.0)
        assert totals.total == pytest.approx(20.0)  # 8 ok + 12 failed
        assert ev.firing() == ["avail/fast"]

    def test_freshness_counts_samples_over_threshold(self):
        spec = SloSpec(name="fresh", kind="freshness", objective=0.5,
                       series="*/lag", threshold=2.0, windows=(FAST,))
        reg, rec, ev = _setup([spec])
        lag = reg.gauge("lag", node="n1")
        now = 0.0
        for level in (0.0, 1.0, 3.0, 5.0):
            now += 0.25
            lag.set(level)
            rec.sample(now)
        totals = ev._totals(spec, 4)
        assert totals.total == 4
        assert totals.bad == 2


class TestReporting:
    def test_status_attainment_and_percentile(self):
        reg, rec, ev = _setup([_latency_spec()])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        for _ in range(9):
            h.observe(0.002)
        h.observe(0.15)
        rec.sample(0.25)
        status = ev.status()
        entry = status["lat"]
        assert entry["events"] == 10
        assert entry["attainment"] == pytest.approx(0.9)
        assert entry["met"] is True
        assert entry["percentile"] is not None

    def test_export_deterministic_and_json_safe(self):
        def build():
            reg, rec, ev = _setup([_latency_spec()])
            h = reg.histogram("lat", node="n1", buckets=BUCKETS)
            for tick in range(4):
                for _ in range(5):
                    h.observe(0.15)
                rec.sample(0.25 * (tick + 1))
            return json.dumps(ev.export(), sort_keys=True)
        assert build() == build()
        payload = json.loads(build())
        assert payload["schema"] == "repro.obs.slo/1"
        assert payload["alerts"]
        assert payload["firing"] == ["lat/fast"]

    def test_format_slo_verdicts(self):
        reg, rec, ev = _setup([_latency_spec()])
        h = reg.histogram("lat", node="n1", buckets=BUCKETS)
        for _ in range(10):
            h.observe(0.15)
        rec.sample(0.25)
        text = ev.format_slo()
        assert "MISS lat" in text
        assert "alerts:" in text


class TestObservedChaosRun:
    def test_seed3_alerts_and_status_are_pinned(self):
        """The stock SLOs over a real observed run: seed 3 (default
        RunSpec) burns the read-latency budget fast for half a second."""
        from repro.chaos import ChaosRunner
        report = ChaosRunner(seed=3, obs=True).run()
        assert report.slo_alerts == [
            {"time": 8.772223873, "slo": "coord-read-50ms",
             "window": "fast", "state": "fire",
             "burn_long": 8.0, "burn_short": 20.0},
            {"time": 9.272223873, "slo": "coord-read-50ms",
             "window": "fast", "state": "resolve",
             "burn_long": 8.0, "burn_short": 0.0},
        ]
        assert report.slo_status == {
            "coord-read-50ms": {
                "kind": "latency", "objective": 0.95, "events": 59.0,
                "attainment": 0.966102, "met": True,
                "percentile": 0.000525},
            "coord-write-50ms": {
                "kind": "latency", "objective": 0.95, "events": 64.0,
                "attainment": 0.984375, "met": True,
                "percentile": 0.00048254},
            "client-availability": {
                "kind": "error_rate", "objective": 0.9, "events": 175.0,
                "attainment": 0.988571, "met": True},
        }
