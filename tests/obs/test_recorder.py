"""Flight-recorder tests: ring feeds, dumps, and the end-to-end
auto-dump a chaos run produces when an invariant genuinely fails."""

import json

import pytest

from repro.chaos.invariants import Anomaly
from repro.chaos.runner import ChaosRunner
from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FLIGHT_SCHEMA, FlightRecorder
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import SpanTracer


class TestFeeds:
    def test_span_ring_holds_recent_finished_spans(self):
        tracer = SpanTracer()
        rec = FlightRecorder(max_spans=2).observe_tracer(tracer)
        for i in range(4):
            span = tracer.start_trace(f"op{i}")
            tracer.finish(span)
        names = [s.name for s in rec.spans]
        assert names == ["op2", "op3"]

    def test_sample_ring_keeps_only_nonzero_deltas(self):
        reg = MetricsRegistry()
        series = TimeSeriesRecorder(reg, interval=0.25)
        rec = FlightRecorder(max_samples=8).observe_timeseries(series)
        moving = reg.counter("busy", node="n1")
        reg.counter("idle", node="n1")  # never incremented
        moving.inc(3)
        series.sample(0.25)
        series.sample(0.50)
        assert len(rec.samples) == 2
        assert rec.samples[0][1] == {"n1/busy": 3}
        assert rec.samples[1][1] == {}

    def test_packet_ring_bounded_and_pass_through(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        rec = FlightRecorder(max_packets=3).observe_network(net)
        client = RpcNode(net, "c")
        server = RpcNode(net, "s")
        server.register("echo", lambda src, args: args)

        def go():
            for i in range(4):
                yield from client.call("s", "echo", i, timeout=1.0)

        proc = sim.process(go())
        sim.run(until=proc)
        assert len(rec.packets) == 3  # 8 transmissions, ring keeps 3
        rec.detach()
        sim.process(go())
        sim.run()
        assert len(rec.packets) == 3  # detached: feed stopped

    def test_detach_removes_tracer_hook(self):
        tracer = SpanTracer()
        rec = FlightRecorder().observe_tracer(tracer)
        rec.detach()
        span = tracer.start_trace("op")
        tracer.finish(span)
        assert len(rec.spans) == 0


class TestDump:
    def _recorder_with_trace(self, key="k1"):
        tracer = SpanTracer()
        rec = FlightRecorder().observe_tracer(tracer)
        root = tracer.start_trace("chaos.write_latest")
        root.tags["key"] = key
        child = tracer.begin("coord.write")
        tracer.finish(child)
        tracer.finish(root)
        return tracer, rec

    def test_schema_and_json_round_trip(self):
        _, rec = self._recorder_with_trace()
        dump = rec.dump(time=4.5)
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["time"] == 4.5
        assert json.loads(json.dumps(dump)) == dump

    def test_violating_trace_cross_reference(self):
        tracer, rec = self._recorder_with_trace(key="bad-key")
        anomaly = Anomaly(invariant="durability", key="bad-key",
                          detail="gone")
        dump = rec.dump(anomalies=[anomaly])
        assert dump["anomalies"][0]["key"] == "bad-key"
        assert dump["violating_traces"] == {"bad-key": [1]}
        spans = dump["traces"]["1"]["spans"]
        assert [s["name"] for s in spans] == ["chaos.write_latest",
                                              "coord.write"]

    def test_multi_key_roots_match_by_member(self):
        tracer, rec = self._recorder_with_trace(key="a,b,c")
        dump = rec.dump(anomalies=[Anomaly(invariant="x", key="b",
                                           detail="d")])
        assert dump["violating_traces"] == {"b": [1]}

    def test_unrelated_anomaly_matches_nothing(self):
        _, rec = self._recorder_with_trace(key="k1")
        dump = rec.dump(anomalies=[Anomaly(invariant="x", key="other",
                                           detail="d")])
        assert dump["violating_traces"] == {}
        assert dump["traces"] == {}


class _SabotagedRunner(ChaosRunner):
    """Chaos runner that corrupts the final state after quiesce: every
    replica of one written key is emptied, so the durability invariant
    must fire — exercising the automatic flight-recorder dump."""

    sabotaged_key = None

    def _collect(self):
        state = super()._collect()
        tainted = self.history.deleted_keys()
        for key in sorted(state.holders):
            if key in tainted:
                continue
            if not self.history.acked_writes(key, kind="write_latest"):
                continue
            for name in state.holders[key]:
                state.holders[key][name] = []
            self.sabotaged_key = key
            break
        return state


@pytest.mark.slow
class TestChaosAutoDump:
    def test_forced_violation_dumps_flight_data(self):
        runner = _SabotagedRunner(seed=3, duration=3.0, obs=True)
        report = runner.run()
        assert runner.sabotaged_key is not None
        assert not report.ok
        assert report.flight_dump, "hard anomaly must trigger a dump"
        dump = report.flight_dump
        assert dump["schema"] == FLIGHT_SCHEMA
        assert any(a["key"] == runner.sabotaged_key
                   for a in dump["anomalies"])
        # The violating op's spans are embedded in full.
        assert runner.sabotaged_key in dump["violating_traces"]
        tids = dump["violating_traces"][runner.sabotaged_key]
        assert tids
        for tid in tids:
            spans = dump["traces"][str(tid)]["spans"]
            assert spans[0]["parent"] is None
            assert runner.sabotaged_key in \
                str(spans[0]["tags"]["key"]).split(",")
        # Surrounding context made it into the rings.
        assert dump["samples"], "metric deltas around the failure"
        assert dump["packets"], "recent wire traffic"
        assert json.loads(json.dumps(dump)) == dump

    def test_clean_observed_run_dumps_no_anomalies(self):
        report = ChaosRunner(seed=3, duration=3.0, obs=True).run()
        assert report.ok
        dump = report.flight_dump
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["anomalies"] == []
        assert dump["violating_traces"] == {} and dump["traces"] == {}
        assert dump["recent_spans"] and dump["samples"] and dump["packets"]
