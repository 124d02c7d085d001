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
* :mod:`repro.obs.recorder` — the flight recorder every observed
  chaos run dumps, with the violating traces when an invariant fails.
* ``python -m repro.obs`` — run a chaos schedule with observability
  on; dump, verify, and diff snapshots, timelines, series, critical
  paths, flames and SLO reports.

One observed run is one :class:`Observability` — ``Observability()``
builds all of it: the live registry, the span tracer, the time-series
sampler, the SLO evaluator on :func:`~repro.obs.slo.default_slos` and
the flight recorder.  Pass it to
:class:`~repro.core.cluster.SednaCluster` (and through it to nodes,
clients, stores, caches, and ZK sessions); :meth:`Observability.start`
runs the sampler and hooks the flight recorder.  "Off" is the shared
:data:`OFF` bundle, the default of every ``obs=`` parameter: the
:data:`~repro.obs.metrics.DISABLED` registry (shared no-op handles,
nothing kept) and no tracer, so tracing costs one ``is None`` check per
site and no component ever branches on a missing bundle.
"""

from __future__ import annotations

from typing import Any

from .metrics import (DISABLED, MetricsRegistry, VnodeStatsFeed,
                      diff_snapshots)
from .trace import Span, SpanTracer, format_timeline

__all__ = ["Observability", "OFF", "MetricsRegistry", "VnodeStatsFeed",
           "SpanTracer", "Span", "format_timeline", "diff_snapshots",
           "DISABLED"]


class Observability:
    """The whole diagnosis pipeline of one observed run.

    Built, it records metrics and spans; the sampler, the SLO evaluator
    and the flight recorder are wired but idle, so a bundle that is
    never started costs nothing per event beyond metrics and tracing.
    """

    def __init__(self) -> None:
        # Local imports: every core module imports this package for
        # ``OFF``, and an unobserved process never loads the stages.
        from .recorder import FlightRecorder
        from .slo import SloEvaluator, default_slos
        from .timeseries import TimeSeriesRecorder
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        self.timeseries = TimeSeriesRecorder(self.metrics)
        self.slo = SloEvaluator(self.timeseries, default_slos())
        self.flight = FlightRecorder().observe_timeseries(self.timeseries)

    def attach(self, sim: Any) -> "Observability":
        """Install the tracer on ``sim``; idempotent."""
        if sim.tracer is not self.tracer:
            self.tracer.attach(sim)
        return self

    def start(self, sim: Any, network: Any) -> "Observability":
        """Start sampling and hook the flight recorder onto the tracer
        and the network.

        Call once the cluster exists: the sampler rides the event
        queue, the packet feed taps the network.
        """
        self.timeseries.start(sim)
        self.flight.observe_tracer(self.tracer)
        self.flight.observe_network(network)
        return self

    def snapshot(self) -> dict:
        """Metrics snapshot plus the tracer's totals."""
        snap = self.metrics.snapshot()
        snap["tracing"] = {
            "traces": len(self.tracer.traces),
            "spans": self.tracer.span_count,
            "dropped_spans": self.tracer.dropped_spans,
        }
        return snap


class _Off:
    """The unobserved bundle: the disabled registry and no tracer.

    One instance (:data:`OFF`) is shared by every component of every
    cluster in a process, so it holds no per-run state — the
    ``DISABLED`` registry keeps neither series nor feeds.
    """

    metrics = DISABLED
    tracer = None

    def attach(self, sim: Any) -> "_Off":
        return self


#: The default of every ``obs=`` parameter: observation off.
OFF = _Off()
