"""Unit tests for the span tracer: span trees, kernel inheritance,
propagation across RPCs (beside the envelope), caps, and rendering."""

import pytest

from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.obs.trace import SpanTracer, format_timeline


class TestSpanTree:
    def test_root_and_children(self):
        tracer = SpanTracer()
        root = tracer.start_trace("op", node="client")
        child = tracer.begin("hop", node="server")
        tracer.finish(child, status="ok")
        tracer.finish(root)
        spans = tracer.spans(root.trace_id)
        assert [s.name for s in spans] == ["op", "hop"]
        assert spans[0].parent_id is None
        assert spans[1].parent_id == root.span_id
        assert spans[1].tags == {"status": "ok"}

    def test_begin_without_trace_returns_none(self):
        tracer = SpanTracer()
        assert tracer.begin("orphan") is None
        tracer.finish(None)  # None-safe
        assert tracer.span_count == 0

    def test_sequential_traces_get_fresh_ids(self):
        tracer = SpanTracer()
        a = tracer.start_trace("a")
        b = tracer.start_trace("b")
        assert a.trace_id != b.trace_id
        assert tracer.trace_names == {a.trace_id: "a", b.trace_id: "b"}

    def test_max_spans_cap(self):
        tracer = SpanTracer(max_spans=2)
        root = tracer.start_trace("op")
        tracer.begin("kept")
        dropped = tracer.begin("dropped")
        assert tracer.span_count == 2
        assert tracer.dropped_spans == 1
        assert len(tracer.spans(root.trace_id)) == 2
        tracer.finish(dropped)  # dropped spans can still be finished
        assert dropped.end is not None

    def test_single_tracer_slot(self):
        sim = Simulator()
        SpanTracer().attach(sim)
        with pytest.raises(ValueError, match="already has a tracer"):
            SpanTracer().attach(sim)

    def test_detach_frees_the_slot(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)
        tracer.detach()
        assert sim.tracer is None
        SpanTracer().attach(sim)  # slot is reusable


class TestKernelInheritance:
    def test_events_inherit_context_across_yields(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)
        seen = []

        def op():
            root = tracer.start_trace("op", node="a")
            yield sim.timeout(0.5)
            # Resumed inside an event scheduled during the traced
            # window -> the context survived the yield.
            seen.append(tracer.current_ctx())
            child = tracer.begin("late", node="a")
            tracer.finish(child)
            tracer.finish(root)
            return root.trace_id

        proc = sim.process(op())
        trace_id = sim.run(until=proc)
        assert seen == [(trace_id, 1)]
        spans = tracer.spans(trace_id)
        assert [s.name for s in spans] == ["op", "late"]
        assert spans[1].start == pytest.approx(0.5)

    def test_untraced_events_carry_no_context(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)
        seen = []

        def plain():
            yield sim.timeout(0.1)
            seen.append(tracer.current_ctx())

        sim.process(plain())
        sim.run()
        assert seen == [None]

    def test_concurrent_traces_do_not_bleed(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)
        out = {}

        def op(name, delay):
            root = tracer.start_trace(name, node=name)
            yield sim.timeout(delay)
            out[name] = tracer.current_ctx()
            tracer.finish(root)

        sim.process(op("left", 0.3))
        sim.process(op("right", 0.2))
        sim.run()
        assert out["left"] != out["right"]
        assert out["left"][0] != out["right"][0]


class TestEnvelopePropagation:
    """Context crosses an RPC beside the envelope (``Message.trace``),
    never in it; ``network.tracer`` is the one wiring point."""

    def _world(self, service_time=0.0):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tracer = SpanTracer().attach(sim)
        net.tracer = tracer
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=service_time)
        return sim, net, tracer, client, server

    def test_serve_span_joins_the_callers_trace(self):
        sim, net, tracer, client, server = self._world()
        server.register("echo", lambda src, args: args)

        def go():
            root = tracer.start_trace("op", node="c")
            yield from client.call("s", "echo", 42, timeout=1.0)
            tracer.finish(root)
            return root.trace_id

        proc = sim.process(go())
        trace_id = sim.run(until=proc)
        spans = tracer.spans(trace_id)
        names = [(s.name, s.node) for s in spans]
        assert ("rpc.echo", "s") in names
        serve = next(s for s in spans if s.name == "rpc.echo")
        assert serve.parent_id == spans[0].span_id
        assert serve.tags["status"] == "ok"
        assert serve.end is not None

    def test_untraced_calls_have_clean_envelopes(self):
        sim, net, tracer, client, server = self._world()
        payloads = []
        server.register("echo", lambda src, args: args)
        net.add_filter(
            lambda src, dst, p: payloads.append(p) or True)

        def go():
            yield from client.call("s", "echo", 1, timeout=1.0)
            return True

        sim.process(go())
        sim.run()
        requests = [p for p in payloads
                    if isinstance(p, dict) and p.get("kind") == "req"]
        assert requests and all("tr" not in p for p in requests)

    def test_traced_calls_have_the_same_envelope(self):
        sim, net, tracer, client, server = self._world()
        payloads, contexts = [], []
        server.register("echo", lambda src, args: args)
        net.add_filter(
            lambda src, dst, p: payloads.append(p) or True)
        deliver = server.endpoint._handler
        server.endpoint._handler = (
            lambda msg: contexts.append(msg.trace) or deliver(msg))

        def go():
            root = tracer.start_trace("op", node="c")
            yield from client.call("s", "echo", 1, timeout=1.0)
            tracer.finish(root)
            return root

        proc = sim.process(go())
        root = sim.run(until=proc)
        assert [sorted(p) for p in payloads if p["kind"] == "req"] == \
            [["args", "id", "kind", "method"]]
        assert contexts == [(root.trace_id, root.span_id)]

    def test_serve_span_survives_the_service_queue(self):
        """Two requests hit a busy server at once: the one that waits
        in the service queue is still served under its own caller's
        span, and the wait is tagged."""
        sim, net, tracer, client, server = self._world(service_time=0.01)
        server.register("echo", lambda src, args: args)
        roots = {}

        def go(name):
            roots[name] = root = tracer.start_trace(name, node="c")
            yield from client.call("s", "echo", name, timeout=1.0)
            tracer.finish(root)

        sim.process(go("first"))
        sim.process(go("second"))
        sim.run()
        serves = {}
        for name, root in roots.items():
            (serve,) = [s for s in tracer.spans(root.trace_id)
                        if s.name == "rpc.echo"]
            assert serve.parent_id == root.span_id
            assert serve.node == "s" and serve.tags["status"] == "ok"
            serves[name] = serve
        assert serves["first"].tags["queue"] == pytest.approx(0.01)
        assert serves["second"].tags["queue"] == pytest.approx(0.02)
        assert serves["second"].start == pytest.approx(0.02)


class TestTimeline:
    def test_format_timeline_renders_tree(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)

        def op():
            root = tracer.start_trace("op", node="c")
            child = tracer.begin("hop", node="s")
            yield sim.timeout(0.25)
            tracer.finish(child, status="ok")
            tracer.finish(root)
            return root.trace_id

        proc = sim.process(op())
        trace_id = sim.run(until=proc)
        text = format_timeline(tracer, trace_id)
        assert "trace 1 'op'" in text
        assert "total=250.000ms" in text
        assert "hop @s status=ok" in text

    def test_format_timeline_empty_trace(self):
        assert "no spans" in format_timeline(SpanTracer(), 99)


class TestTimelineEdgeCases:
    def test_open_spans_render_as_open(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)
        root = tracer.start_trace("op", node="c")
        tracer.begin("stuck", node="s")  # never finished
        tracer.finish(root)
        text = format_timeline(tracer, root.trace_id)
        assert "open" in text
        assert "stuck @s" in text

    def test_dropped_parent_renders_at_root_depth(self):
        from repro.obs.trace import Span
        tracer = SpanTracer()
        root = tracer.start_trace("op")
        # A span whose parent the tracer's cap dropped: its parent id
        # resolves to nothing in the recorded list.
        orphan = Span(root.trace_id, 999, 998, "orphan", "s", 0.1)
        orphan.end = 0.2
        tracer.traces[root.trace_id].append(orphan)
        tracer.finish(root)
        text = format_timeline(tracer, root.trace_id)
        lines = text.splitlines()
        assert any("orphan" in line for line in lines)
        # Unknown parent -> depth 1 (rendered under the root, not lost).
        orphan_line = next(line for line in lines if "orphan" in line)
        assert orphan_line.startswith("    [+") or \
            orphan_line.startswith("  [+")

    def test_all_open_trace_total_falls_back_to_start(self):
        tracer = SpanTracer()
        root = tracer.start_trace("op")
        text = format_timeline(tracer, root.trace_id)
        assert "total=0.000ms" in text
        assert "open" in text

    def test_timeline_lists_spans_in_creation_order(self):
        sim = Simulator()
        tracer = SpanTracer().attach(sim)

        def op():
            root = tracer.start_trace("op")
            a = tracer.begin("first")
            tracer.finish(a)
            b = tracer.begin("second")
            yield sim.timeout(0.1)
            tracer.finish(b)
            tracer.finish(root)
            return root.trace_id

        proc = sim.process(op())
        tid = sim.run(until=proc)
        lines = format_timeline(tracer, tid).splitlines()
        first = next(i for i, l in enumerate(lines) if "first" in l)
        second = next(i for i, l in enumerate(lines) if "second" in l)
        assert first < second
