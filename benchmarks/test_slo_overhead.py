"""Diagnosis-pipeline overhead: disabled and fully-enabled vs plain obs.

The diagnosis pipeline (ISSUE 9) stacks on top of the PR-4 obs bundle:
a time-series sampler riding the event queue, an SLO evaluator firing
on every sample, and a flight recorder hooked into span finishes and
sample deltas.  This bench pins two bounds against the **plain obs**
baseline (live metrics registry + attached span tracer, no pipeline):

* **disabled** — every stage constructed (sampler, evaluator and
  flight recorder subscribed to the sampler) but never started: what a
  built, unstarted ``Observability()`` costs.  Must stay within
  **1.15x** of plain.
* **enabled** — sampler running every 0.25 simulated seconds, three
  SLO specs (one per kind) evaluated per sample, and a flight recorder
  exporting every finished span plus filtering every sample's deltas.
  Must stay within **3x** of plain.

The three configurations are built from the stage classes, so the
bench can evaluate its own three SLO specs (``Observability()`` always
evaluates ``default_slos()``).

Workload: four staggered workers doing the obs-heavy inner loop real
components run — one trace per iteration, a counter bump, a histogram
observation, plus occasional failure counts and a staleness gauge so
all three SLO kinds have live series.  All modes run the identical
workload to a fixed simulated horizon; trials are interleaved
(round-robin) and the best-of rate per mode is used, as in
``test_obs_overhead.py``, to discard shared-CI scheduler noise.

Results land in ``benchmarks/results/BENCH_slo.json``.
"""

import json
import statistics
import time
from pathlib import Path

from repro.net.simulator import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SloEvaluator, SloSpec
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import SpanTracer

RESULTS_DIR = Path(__file__).parent / "results"

MAX_DISABLED_SLOWDOWN = 1.15
MAX_ENABLED_SLOWDOWN = 3.0
N_TICKS = 4_000      # per worker; horizon sized so all four finish
SIM_HORIZON = 8.0    # simulated seconds; ~32 sampler ticks when enabled
TRIALS = 7


def _bench_slos() -> list[SloSpec]:
    """One spec per kind, matched to the workload's series."""
    return [
        SloSpec(name="bench-lat-5ms", kind="latency", objective=0.95,
                series="*/bench.lat", threshold=0.005),
        SloSpec(name="bench-avail", kind="error_rate", objective=0.90,
                series="*/bench.fail", total_series="*/bench.lat"),
        SloSpec(name="bench-lag", kind="freshness", objective=0.50,
                series="*/bench.lag", threshold=2.0),
    ]


class _Bundle:
    """One configuration's stages: registry + tracer, plus (unless
    ``plain``) the sampler, the evaluator and the flight recorder."""

    def __init__(self, mode: str) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        self.timeseries = self.flight = None
        if mode != "plain":
            # Constructed and subscribed; only start() hooks the tracer
            # and runs the sampler.
            self.timeseries = TimeSeriesRecorder(self.metrics)
            SloEvaluator(self.timeseries, _bench_slos())
            self.flight = FlightRecorder().observe_timeseries(
                self.timeseries)

    def start(self, sim: Simulator) -> None:
        self.timeseries.start(sim)
        self.flight.observe_tracer(self.tracer)

    def detach(self) -> None:
        self.tracer.detach()
        if self.timeseries is not None:
            self.timeseries.stop()
            self.flight.detach()


def _build_workload(sim: Simulator, obs: _Bundle) -> None:
    """Obs-heavy inner loop: a span + metric bumps per iteration."""
    counter = obs.metrics.counter("bench.ops", node="w")
    histogram = obs.metrics.histogram("bench.lat", node="w")
    failures = obs.metrics.counter("bench.fail", node="w")
    lag = obs.metrics.gauge("bench.lag", node="w")
    tracer = obs.tracer

    def worker(wid: int):
        for i in range(N_TICKS):
            span = tracer.start_trace("bench.op", node=f"w{wid}")
            yield sim.timeout(0.001 + wid * 0.0003)
            counter.inc()
            histogram.observe(0.001 * (i % 7))
            if i % 50 == 0:
                failures.inc()
            if i % 20 == 0:
                lag.set(float(i % 5))
            tracer.finish(span)

    for wid in range(4):
        sim.process(worker(wid), name=f"w{wid}")


def _run(mode: str) -> tuple[float, int]:
    """One measured run; returns (wallclock seconds, kernel events)."""
    sim = Simulator()
    obs = _Bundle(mode)
    obs.tracer.attach(sim)
    if mode == "enabled":
        obs.start(sim)
    _build_workload(sim, obs)
    t0 = time.perf_counter()
    sim.run(until=SIM_HORIZON)
    elapsed = time.perf_counter() - t0
    obs.detach()
    if mode == "enabled":
        assert obs.timeseries.samples_taken > 0
        assert len(obs.flight.spans) > 0
    return elapsed, sim.events_scheduled


def _measure() -> dict:
    """Interleaved best-of rates for plain/disabled/enabled."""
    rates: dict[str, list[float]] = {"plain": [], "disabled": [],
                                     "enabled": []}
    for _ in range(TRIALS):
        for mode in rates:
            elapsed, events = _run(mode)
            rates[mode].append(events / elapsed)
    best = {mode: max(vals) for mode, vals in rates.items()}
    return {
        "events_per_sec": {m: round(r) for m, r in best.items()},
        "median_events_per_sec": {
            m: round(statistics.median(v)) for m, v in rates.items()},
        "slowdown": {m: round(best["plain"] / r, 3)
                     for m, r in best.items()},
    }


class TestSloOverhead:
    def test_pipeline_overhead_bounds(self):
        workload = _measure()

        report = {
            "bound_disabled_max_slowdown": MAX_DISABLED_SLOWDOWN,
            "bound_enabled_max_slowdown": MAX_ENABLED_SLOWDOWN,
            "workload": workload,
            "trials": TRIALS,
            "notes": (
                "plain = live registry + attached tracer, no pipeline; "
                "disabled = sampler/evaluator/flight recorder "
                "constructed but never started (a built, unstarted "
                "Observability()); enabled = sampler every 0.25 "
                "sim-seconds + 3 SLO specs per sample + flight recorder "
                "on every span finish.  Workload = 4 workers, one trace "
                "+ counter/histogram bump per iteration, to a fixed "
                "8-simulated-second horizon; interleaved best-of "
                f"{TRIALS} trials."),
        }
        text = json.dumps(report, indent=2, sort_keys=True)
        print("\n" + text)
        (RESULTS_DIR / "BENCH_slo.json").write_text(text + "\n")

        slow = workload["slowdown"]
        assert slow["disabled"] < MAX_DISABLED_SLOWDOWN, report
        assert slow["enabled"] < MAX_ENABLED_SLOWDOWN, report
