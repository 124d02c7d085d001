"""Declarative SLOs with multi-window burn-rate alerting.

An SLO here is the standard error-budget formulation: over a
compliance window, at least ``objective`` of events must be *good*.
Three spec kinds cover the registry's series vocabulary:

* ``latency`` — good events are observations at or below
  ``threshold`` seconds in a histogram series; the good fraction in a
  window is interpolated from the windowed bucket deltas
  (:func:`~repro.obs.metrics.bucket_fraction_le`), so percentile
  targets work without storing raw samples.
* ``error_rate`` — good events are ``total_series`` increments that
  did not also increment ``series`` (the bad-event counter).
* ``freshness`` — good samples are those where the gauge stays at or
  below ``threshold`` (staleness lag, heat spread, queue depth …).

Alerting follows the multi-window burn-rate recipe (Google SRE
workbook ch. 5): the burn rate is ``bad_fraction / (1 - objective)``
— 1.0 means exactly spending the budget over the window — and an
alert fires only when **both** a long and a short window exceed the
window's ``factor``.  The long window gives significance, the short
window makes the alert resolve promptly once the burn stops; two
window pairs (fast/slow) catch cliffs and slow bleeds respectively.

Evaluation is driven by :class:`~repro.obs.timeseries.
TimeSeriesRecorder` samples — the evaluator subscribes to
``on_sample`` and re-evaluates every spec each tick.  Alerts are
recorded as deterministic sim-timestamped :class:`SloAlert` events
(fire and resolve transitions only, no re-firing spam); byte-identical
across runs of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .metrics import bucket_fraction_le, bucket_quantile
from .timeseries import TimeSeriesRecorder

__all__ = ["BurnWindow", "SloSpec", "SloAlert", "SloEvaluator",
           "DEFAULT_WINDOWS", "default_slos", "SLO_SCHEMA"]

SLO_SCHEMA = "repro.obs.slo/1"


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) window pair with its burn-rate threshold.

    Both windows are simulated seconds; ``factor`` is the burn rate
    both must exceed for the alert to fire.
    """

    long: float
    short: float
    factor: float
    label: str

    def export(self) -> dict:
        return {"long_s": self.long, "short_s": self.short,
                "factor": self.factor, "label": self.label}


#: Default window pairs, scaled for chaos-run durations (seconds of
#: simulated time, not hours of wall clock): "fast" catches cliffs
#: within a couple of samples, "slow" catches sustained bleeds.
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(long=2.0, short=0.5, factor=6.0, label="fast"),
    BurnWindow(long=6.0, short=1.5, factor=2.0, label="slow"),
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over registry series.

    ``series`` (and ``total_series`` for ``error_rate``) are fnmatch
    patterns over flat snapshot labels (``node0/coord.write.latency``);
    matching series are summed, so a cluster-wide SLO is one pattern
    with a ``*`` node part.
    """

    name: str
    kind: str                 # "latency" | "error_rate" | "freshness"
    objective: float          # target good fraction, e.g. 0.99
    series: str               # histogram / bad-counter / gauge pattern
    threshold: float = 0.0    # latency or freshness bound
    total_series: str = ""    # error_rate: total-event counter pattern
    windows: tuple = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate", "freshness"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1): {self.objective}")
        if self.kind == "error_rate" and not self.total_series:
            raise ValueError("error_rate SLO needs total_series")

    def export(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "objective": self.objective, "series": self.series,
                "threshold": self.threshold,
                "total_series": self.total_series,
                "windows": [w.export() for w in self.windows]}


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert transition (sim-timestamped, deterministic)."""

    time: float
    slo: str
    window: str          # BurnWindow label
    state: str           # "fire" | "resolve"
    burn_long: float
    burn_short: float

    def export(self) -> dict:
        return {"time": round(self.time, 9), "slo": self.slo,
                "window": self.window, "state": self.state,
                "burn_long": round(self.burn_long, 6),
                "burn_short": round(self.burn_short, 6)}

    def __str__(self) -> str:
        return (f"[{self.time:9.3f}s] {self.state.upper():7} {self.slo} "
                f"({self.window}: long={self.burn_long:.1f}x "
                f"short={self.burn_short:.1f}x)")


def default_slos() -> list[SloSpec]:
    """The stock objectives every :class:`~repro.obs.Observability`
    evaluates.

    Latency targets ride the coordinator histograms; availability
    rides the client failure counter against the end-to-end latency
    histograms (every completed op observes exactly one of those).
    """
    return [
        SloSpec(name="coord-read-50ms", kind="latency", objective=0.95,
                series="*/coord.read.latency", threshold=0.05),
        SloSpec(name="coord-write-50ms", kind="latency", objective=0.95,
                series="*/coord.write.latency", threshold=0.05),
        SloSpec(name="client-availability", kind="error_rate",
                objective=0.90, series="*/client.failures",
                total_series="*/client.*_seconds"),
    ]


class _WindowTotals:
    """bad/total accumulated over one window of samples."""

    __slots__ = ("bad", "total")

    def __init__(self) -> None:
        self.bad = 0.0
        self.total = 0.0

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total > 0 else 0.0


class SloEvaluator:
    """Evaluates specs on every time-series sample; records alerts.

    ``evaluator = SloEvaluator(recorder, specs)`` subscribes itself;
    after the run, ``alerts`` holds the fire/resolve transitions in
    sim-time order and :meth:`export` produces the JSON artifact.
    """

    def __init__(self, recorder: TimeSeriesRecorder,
                 specs: list[SloSpec]) -> None:
        self.recorder = recorder
        self.specs = list(specs)
        self.alerts: list[SloAlert] = []
        self._firing: dict[tuple[str, str], bool] = {}
        recorder.on_sample.append(self._on_sample)

    # -- windowed accounting ---------------------------------------------
    def _samples_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.recorder.interval))

    def _totals(self, spec: SloSpec, samples: int) -> _WindowTotals:
        """bad/total events for ``spec`` over the last ``samples``."""
        rec = self.recorder
        out = _WindowTotals()
        if spec.kind == "latency":
            for label in rec.matching(spec.series):
                track = rec.tracks[label]
                if track.kind != "histogram":
                    continue
                counts = [sum(column) for column in zip(
                    *(p[2] for p in rec.window(label, samples)))]
                total = sum(counts)
                if total == 0:
                    continue
                good = bucket_fraction_le(track.bounds, counts,
                                          spec.threshold) * total
                out.total += total
                out.bad += total - good
        elif spec.kind == "error_rate":
            for label in rec.matching(spec.series):
                for point in rec.window(label, samples):
                    out.bad += point[0] if isinstance(point, tuple) \
                        else point
            for label in rec.matching(spec.total_series):
                for point in rec.window(label, samples):
                    out.total += point[0] if isinstance(point, tuple) \
                        else point
            out.total += out.bad  # failures don't observe the histograms
        else:  # freshness
            for label in rec.matching(spec.series):
                for level in rec.window(label, samples):
                    out.total += 1
                    if level > spec.threshold:
                        out.bad += 1
        return out

    def burn_rate(self, spec: SloSpec, seconds: float) -> float:
        """Error-budget burn over the trailing ``seconds`` window."""
        totals = self._totals(spec, self._samples_for(seconds))
        return totals.bad_fraction / (1.0 - spec.objective)

    # -- sampling hook ---------------------------------------------------
    def _on_sample(self, now: float, deltas: dict) -> None:
        for spec in self.specs:
            for window in spec.windows:
                burn_long = self.burn_rate(spec, window.long)
                burn_short = self.burn_rate(spec, window.short)
                firing = (burn_long > window.factor
                          and burn_short > window.factor)
                key = (spec.name, window.label)
                was = self._firing.get(key, False)
                if firing != was:
                    self._firing[key] = firing
                    self.alerts.append(SloAlert(
                        time=now, slo=spec.name, window=window.label,
                        state="fire" if firing else "resolve",
                        burn_long=burn_long, burn_short=burn_short))

    # -- reporting -------------------------------------------------------
    def firing(self) -> list[str]:
        """Sorted ``slo/window`` keys currently in the firing state."""
        return sorted(f"{name}/{window}"
                      for (name, window), on in self._firing.items()
                      if on)

    def status(self) -> dict:
        """Per-spec compliance over the last 60 s (the ring: the last
        ``capacity × interval`` simulated seconds), not the whole run.
        Deterministic."""
        out = {}
        for spec in self.specs:
            totals = self._totals(spec, self.recorder.capacity)
            entry = {
                "kind": spec.kind,
                "objective": spec.objective,
                "events": round(totals.total, 6),
                "attainment": round(1.0 - totals.bad_fraction, 6),
                # Epsilon absorbs float error when attainment lands
                # exactly on the objective (0.9 vs 1 - 0.9).
                "met": totals.bad_fraction <= 1.0 - spec.objective + 1e-9,
            }
            if spec.kind == "latency":
                entry["percentile"] = self._percentile(spec)
            out[spec.name] = entry
        return out

    def _percentile(self, spec: SloSpec) -> Optional[float]:
        """Whole-buffer interpolated p(objective) for a latency spec."""
        rec = self.recorder
        counts: Optional[list[int]] = None
        bounds: tuple[float, ...] = ()
        for label in rec.matching(spec.series):
            track = rec.tracks[label]
            if track.kind != "histogram":
                continue
            window = rec.window(label)
            if counts is None:
                bounds = track.bounds
                counts = [0] * (len(bounds) + 1)
            if track.bounds != bounds:
                continue  # mismatched layouts cannot be merged
            for point in window:
                for i, d in enumerate(point[2]):
                    counts[i] += d
        if counts is None or sum(counts) == 0:
            return None
        return round(bucket_quantile(bounds, counts, spec.objective), 9)

    def export(self) -> dict:
        """JSON artifact: specs, alert log, final status."""
        return {
            "schema": SLO_SCHEMA,
            "specs": [spec.export() for spec in self.specs],
            "alerts": [alert.export() for alert in self.alerts],
            "firing": self.firing(),
            "status": self.status(),
        }

    def format_slo(self) -> str:
        """Text report (CLI ``slo`` subcommand)."""
        lines = [f"# {SLO_SCHEMA} specs={len(self.specs)} "
                 f"alerts={len(self.alerts)}"]
        status = self.status()
        for name, entry in status.items():
            verdict = "MET " if entry["met"] else "MISS"
            pct = ""
            if entry.get("percentile") is not None:
                pct = f" p{100 * entry['objective']:g}=" \
                      f"{1000 * entry['percentile']:.2f}ms"
            lines.append(
                f"{verdict} {name:<24} {entry['kind']:<10} "
                f"attainment={entry['attainment']:.4f} "
                f"target={entry['objective']:.4f} "
                f"events={entry['events']:g}{pct}")
        if self.alerts:
            lines.append("alerts:")
            lines.extend(f"  {alert}" for alert in self.alerts)
        else:
            lines.append("alerts: none")
        return "\n".join(lines)
