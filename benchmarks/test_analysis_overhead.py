"""Hazard-detector overhead: instrumented kernel vs plain kernel.

The tie-hazard detector hooks every schedule and every step
of the DES kernel and records tracked-state accesses, so its cost is
paid on the hot path of every simulation that opts in.  This bench
pins that cost: the hazard-instrumented kernel must stay **within 3x
of the plain kernel's events/sec** on a kernel-shaped workload.

Workload: four staggered processes mixing the event types the kernel
actually executes under chaos — timeouts at varying delays (heap
depth), event chains resolved via ``succeed``, deferred callbacks, and
tracked-store writes at roughly one write per three events.  A bare
``yield timeout`` spin would overstate the ratio (it is the cheapest
event the kernel can execute, so fixed per-event instrumentation looks
maximally expensive against it); that adversarial number is still
measured and recorded as ``microbench_*`` for the record, but the
acceptance bound is asserted on the representative mix.

Two instrumented configurations are measured:

* **report** (the default, ``HazardDetector()``): full instrumentation
  including scheduling-site capture, so flagged hazards name the exact
  ``file:line`` of both racing schedule calls.  This is the mode the
  chaos runner's ``--hazards`` flag uses and the one the 3x bound
  applies to.
* **detect** (``capture_sites=False``): identical hazard *detection*,
  sites elided from reports — the cheap configuration for long soak
  sweeps where only the pass/fail bit matters.

Trials are interleaved (plain/detect/report round-robin) and the
best-of rate per mode is used: best-of discards scheduler noise, which
on shared CI boxes dwarfs the differences under test.

Results land in ``benchmarks/results/BENCH_analysis.json``.
"""

import json
import statistics
import time
from pathlib import Path

from repro.analysis.hazards import HazardDetector
from repro.net.simulator import Simulator

RESULTS_DIR = Path(__file__).parent / "results"

MAX_SLOWDOWN = 3.0
N_TICKS = 6_000      # per worker; ~34k kernel events per run
MICRO_EVENTS = 30_000
TRIALS = 7


def _events_executed(sim: Simulator) -> int:
    """Scheduling sequence counter ~ events pushed through the kernel."""
    return sim.events_scheduled


def _build_mixed_workload(sim: Simulator, store) -> None:
    """Kernel-shaped mix: timeouts, succeed-chains, callbacks, writes."""

    def worker(wid: int):
        for i in range(N_TICKS):
            yield sim.timeout(0.001 + wid * 0.0003)
            if i % 3 == 0:
                store[f"k{(wid * 7 + i) % 32}"] = i
            if i % 5 == 0:
                ev = sim.event()
                sim.schedule_callback(0.0005, lambda e=ev: e.succeed())
                yield ev

    for wid in range(4):
        sim.process(worker(wid), name=f"w{wid}")


def _build_microbench(sim: Simulator, store) -> None:
    """Adversarial spin: cheapest possible event + one write each."""

    def ticker():
        for i in range(MICRO_EVENTS):
            yield sim.timeout(0.001)
            store[f"k{i % 8}"] = i

    sim.process(ticker(), name="ticker")


def _run(build, mode: str) -> tuple[float, int]:
    """One measured run; returns (wallclock seconds, kernel events)."""
    sim = Simulator()
    detector = None
    store: dict = {}
    if mode != "plain":
        detector = HazardDetector(
            capture_sites=(mode != "detect")).attach(sim)
        store = detector.tracked_dict("bench")
    build(sim, store)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    if detector is not None:
        detector.detach()
    return elapsed, _events_executed(sim)


def _measure(build) -> dict:
    """Interleaved best-of rates for plain/detect/report on a workload."""
    rates: dict[str, list[float]] = {"plain": [], "detect": [], "report": []}
    for _ in range(TRIALS):
        for mode in rates:
            elapsed, events = _run(build, mode)
            rates[mode].append(events / elapsed)
    best = {mode: max(vals) for mode, vals in rates.items()}
    return {
        "events_per_sec": {m: round(r) for m, r in best.items()},
        "median_events_per_sec": {
            m: round(statistics.median(v)) for m, v in rates.items()},
        "slowdown": {m: round(best["plain"] / r, 3)
                     for m, r in best.items()},
    }


class TestAnalysisOverhead:
    def test_instrumented_kernel_within_3x_of_plain(self):
        mixed = _measure(_build_mixed_workload)
        micro = _measure(_build_microbench)

        report = {
            "bound_max_slowdown": MAX_SLOWDOWN,
            "workload": mixed,
            "microbench_worst_case": micro,
            "trials": TRIALS,
            "notes": (
                "workload = 4-process mix of timeouts/succeed-chains/"
                "callbacks/tracked writes (the asserted bound); "
                "microbench = timeout spin with one tracked write per "
                "event (informational worst case, cheapest possible "
                "baseline event)."),
        }
        text = json.dumps(report, indent=2, sort_keys=True)
        print("\n" + text)
        (RESULTS_DIR / "BENCH_analysis.json").write_text(text + "\n")

        # The default, fully-instrumented mode (what `--hazards` runs)
        # must hold the bound; the cheap detect mode must trivially
        # beat it as well.
        assert mixed["slowdown"]["report"] < MAX_SLOWDOWN, report
        assert mixed["slowdown"]["detect"] < MAX_SLOWDOWN, report
