"""Observability subsystem: metrics, tracing, and the diagnosis pipeline.

The paper's load balancer runs on measured per-vnode read/write
frequency (§V); this package makes that measurement — and the rest of
the data plane — first-class and inspectable:

* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed
  ``(node, vnode, name)`` with deterministic JSON/text snapshots, and
  the always-on :class:`VnodeStatsFeed` behind the imbalance table.
* :mod:`repro.obs.trace` — request-scoped span trees propagated
  through the kernel event graph and ``Message.trace``, never a payload.
* :mod:`repro.obs.timeseries` — sim-clock sampling of registry
  snapshots into bounded per-series rings (rates, sparklines).
* :mod:`repro.obs.critical` — critical-path/phase attribution and
  folded-stack flame output over exported traces.
* :mod:`repro.obs.slo` — declarative SLOs with multi-window burn-rate
  alerts evaluated over the time-series rings.
* :mod:`repro.obs.recorder` — the flight recorder the chaos runner
  dumps automatically when an invariant fails.
* ``python -m repro.obs`` — run a chaos schedule with observability
  on; dump, verify, and diff snapshots, timelines, series, critical
  paths, flames and SLO reports.

:class:`Observability` is the bundle components thread around: build
one, pass it to :class:`~repro.core.cluster.SednaCluster` (and through
it to nodes, clients, stores, caches, and ZK sessions).  ``None``
everywhere means "off" and costs a single ``is None`` check (tracing)
or a shared no-op handle (metrics).  The diagnosis-pipeline stages are
opt-in on top: ``timeseries=True`` samples, ``slos=[...]`` evaluates,
``flight=True`` records — each implies what it needs (SLOs and the
flight recorder both ride the sampler).
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import (DISABLED, MetricsRegistry, VnodeStatsFeed,
                      diff_snapshots)
from .trace import Span, SpanTracer, format_timeline

__all__ = ["Observability", "MetricsRegistry", "VnodeStatsFeed",
           "SpanTracer", "Span", "format_timeline", "diff_snapshots",
           "DISABLED"]


class Observability:
    """Shared metrics registry + optional tracer + diagnosis pipeline.

    Parameters beyond the PR-4 surface (all default-off, so existing
    callers are unchanged):

    timeseries:
        Sample the registry into bounded rings every ``ts_interval``
        simulated seconds once :meth:`start` is called.
    slos:
        A list of :class:`~repro.obs.slo.SloSpec` to evaluate on every
        sample (implies ``timeseries``).
    flight:
        Keep a :class:`~repro.obs.recorder.FlightRecorder` fed with
        recent spans, metric deltas and packets (implies
        ``timeseries``; the span feed needs ``tracing``).
    """

    def __init__(self, metrics: bool = True, tracing: bool = False,
                 max_series: int = 4096, max_spans: int = 200_000,
                 timeseries: bool = False, ts_interval: float = 0.25,
                 ts_capacity: int = 240,
                 slos: Optional[list] = None,
                 flight: bool = False):
        self.metrics = MetricsRegistry(enabled=metrics,
                                       max_series=max_series)
        self.tracer: Optional[SpanTracer] = (
            SpanTracer(max_spans=max_spans) if tracing else None)
        self.timeseries: Optional[Any] = None
        self.slo: Optional[Any] = None
        self.flight: Optional[Any] = None
        if timeseries or slos is not None or flight:
            # Local imports: the base bundle stays importable without
            # paying for pipeline modules it does not use.
            from .timeseries import TimeSeriesRecorder
            self.timeseries = TimeSeriesRecorder(
                self.metrics, interval=ts_interval, capacity=ts_capacity)
        if slos is not None:
            from .slo import SloEvaluator
            self.slo = SloEvaluator(self.timeseries, list(slos))
        if flight:
            from .recorder import FlightRecorder
            self.flight = FlightRecorder()
            self.flight.observe_timeseries(self.timeseries)
            if self.tracer is not None:
                self.flight.observe_tracer(self.tracer)

    def attach(self, sim: Any) -> "Observability":
        """Install the tracer (if any) on ``sim``; idempotent."""
        if self.tracer is not None and sim.tracer is not self.tracer:
            self.tracer.attach(sim)
        return self

    def start(self, sim: Any, network: Any = None) -> "Observability":
        """Start the sampling loop and the flight recorder's tap.

        Call once the cluster exists (the sampler rides the event
        queue; the packet feed needs the network).  A bundle without
        pipeline stages is a no-op here.
        """
        if self.timeseries is not None:
            self.timeseries.start(sim)
        if self.flight is not None and network is not None:
            self.flight.observe_network(network)
        return self

    def detach(self) -> None:
        if self.tracer is not None:
            self.tracer.detach()
        if self.timeseries is not None:
            self.timeseries.stop()
        if self.flight is not None:
            self.flight.detach()

    def snapshot(self) -> dict:
        """Metrics snapshot plus pipeline summaries (when present)."""
        snap = self.metrics.snapshot()
        if self.tracer is not None:
            snap["tracing"] = {
                "traces": len(self.tracer.traces),
                "spans": self.tracer.span_count,
                "dropped_spans": self.tracer.dropped_spans,
            }
        if self.timeseries is not None:
            snap["timeseries"] = {
                "samples": self.timeseries.samples_taken,
                "series": len(self.timeseries.tracks),
                "interval": self.timeseries.interval,
            }
        if self.slo is not None:
            snap["slo"] = {
                "specs": len(self.slo.specs),
                "alerts": len(self.slo.alerts),
                "firing": self.slo.firing(),
            }
        return snap
