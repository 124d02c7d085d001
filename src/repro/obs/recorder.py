"""Flight recorder: always-cheap rings of recent diagnostic context.

A chaos run that trips an invariant is only debuggable if the moments
*before* the violation were captured — but capturing everything for a
whole run is exactly what the bounded tracer/tap caps exist to avoid.
The flight recorder squares that: it continuously feeds three small
ring buffers (recent finished spans, recent non-zero metric deltas,
recent tap packets) at O(1) memory, and the chaos runner calls
:meth:`dump` at the end of every observed run — producing a
deterministic JSON artifact with the crash-adjacent context, like an
aircraft recorder surviving the incident it recorded.

The dump additionally cross-references the failure: every hard
anomaly's key is matched against the root-span ``key`` tags the chaos
runner stamps on workload traces, and the matching traces are embedded
*in full* (pulled from the live tracer, not the ring) under
``traces`` — so the artifact alone shows the violating operation's
span tree, the cluster-wide metric movement around it, and the raw
message flow.  A clean run's dump lists no anomalies and no traces.

Feeds are hook-based: ``SpanTracer.on_finish`` appends the finished
:class:`~repro.obs.trace.Span` itself (exported only by :meth:`dump`),
``TimeSeriesRecorder.on_sample`` feeds deltas, and the packet ring is
the ``max_records`` ring of a pass-through
:class:`~repro.net.tap.NetworkTap`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..net.tap import NetworkTap
from .timeseries import TimeSeriesRecorder
from .trace import SpanTracer

__all__ = ["FlightRecorder", "FLIGHT_SCHEMA"]

FLIGHT_SCHEMA = "repro.obs.flightrec/1"


class FlightRecorder:
    """Bounded rings of recent spans / metric deltas / packets.

    Ring depths are per-feed: ``max_spans`` finished spans,
    ``max_samples`` time-series ticks (non-zero deltas only),
    ``max_packets`` tap records.
    """

    def __init__(self, max_spans: int = 512, max_samples: int = 64,
                 max_packets: int = 512) -> None:
        self.spans: deque = deque(maxlen=max_spans)
        self.samples: deque = deque(maxlen=max_samples)
        #: The packet tap's own ring once :meth:`observe_network` ran.
        self.packets: deque = deque(maxlen=max_packets)
        self._tracer: Optional[SpanTracer] = None
        self._tap: Optional[NetworkTap] = None

    # -- feeds -----------------------------------------------------------
    def observe_tracer(self, tracer: SpanTracer) -> "FlightRecorder":
        self._tracer = tracer
        tracer.on_finish.append(self.spans.append)
        return self

    def observe_timeseries(self,
                           recorder: TimeSeriesRecorder) -> "FlightRecorder":
        recorder.on_sample.append(self._on_sample)
        return self

    def observe_network(self, network: Any) -> "FlightRecorder":
        """Attach the packet feed (a pass-through bounded tap)."""
        if self._tap is None:
            self._tap = NetworkTap(network,
                                   max_records=self.packets.maxlen)
            self.packets = self._tap.records
        return self

    def detach(self) -> None:
        if self._tap is not None:
            self._tap.detach()
            self._tap = None
        if self._tracer is not None and self.spans.append in \
                self._tracer.on_finish:
            self._tracer.on_finish.remove(self.spans.append)

    def _on_sample(self, now: float, deltas: dict) -> None:
        moved = {label: point for label, point in deltas.items()
                 if self._nonzero(point)}
        self.samples.append((now, moved))

    @staticmethod
    def _nonzero(point: Any) -> bool:
        if isinstance(point, tuple):  # histogram (dcount, dsum, dbuckets)
            return point[0] != 0
        return point != 0

    # -- dump ------------------------------------------------------------
    def _violating_traces(self, anomalies: list) -> dict[str, list[int]]:
        """Trace ids whose root-span ``key`` tag covers an anomaly key.

        Multi-op roots carry comma-joined key lists, hence the split.
        """
        out: dict[str, list[int]] = {}
        if self._tracer is None:
            return out
        for anomaly in anomalies:
            hits = []
            for tid in sorted(self._tracer.traces):
                spans = self._tracer.traces[tid]
                if not spans or spans[0].parent_id is not None:
                    continue
                tagged = str(spans[0].tags.get("key", ""))
                if anomaly.key in tagged.split(","):
                    hits.append(tid)
            if hits:
                out[anomaly.key] = hits
        return out

    def dump(self, anomalies: list = (), time: float = 0.0) -> dict:
        """Deterministic JSON artifact of the rings plus cross-refs.

        ``anomalies`` are :class:`~repro.chaos.invariants.Anomaly`
        rows; the full span trees of the traces that touched a
        violating key are embedded under ``traces``.
        """
        violating = self._violating_traces(list(anomalies))
        traces: dict[str, dict] = {}
        if self._tracer is not None:
            for hits in violating.values():
                for tid in hits:
                    traces[str(tid)] = {
                        "name": self._tracer.trace_names.get(tid, ""),
                        "spans": [s.export()
                                  for s in self._tracer.traces[tid]],
                    }
        return {
            "schema": FLIGHT_SCHEMA,
            "time": round(time, 9),
            "anomalies": [{"invariant": a.invariant, "key": a.key,
                           "detail": a.detail, "expected": a.expected}
                          for a in anomalies],
            "violating_traces": {k: violating[k] for k in sorted(violating)},
            "traces": {k: traces[k] for k in sorted(traces, key=int)},
            "recent_spans": [span.export() for span in self.spans],
            "samples": [{"time": round(now, 9),
                         "deltas": {label: self._export_point(point)
                                    for label, point in sorted(
                                        moved.items())}}
                        for now, moved in self.samples],
            "packets": [{"time": round(r.time, 9), "src": r.src,
                         "dst": r.dst, "kind": r.kind, "method": r.method,
                         "trace": r.trace}
                        for r in self.packets],
        }

    @staticmethod
    def _export_point(point: Any) -> Any:
        if isinstance(point, tuple):
            return {"count": point[0], "sum": round(point[1], 9),
                    "buckets": list(point[2])}
        if isinstance(point, float):
            return round(point, 9)
        return point
