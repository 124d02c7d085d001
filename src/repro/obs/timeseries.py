"""Deterministic time-series over registry snapshots.

A :class:`MetricsRegistry` snapshot is a point-in-time export; an
operator (or the SLO evaluator, or the flight recorder) wants the
*shape over time* — rates, levels and latency distributions per
sampling window.  :class:`TimeSeriesRecorder` samples the registry on
the simulated clock (one ``sim.watch_timeout`` per interval), turns
each sample into per-series **deltas** (counters and histograms) or
**levels** (gauges), and keeps them in bounded per-series ring
buffers.

Everything is sim-clock deterministic: sampling rides the kernel's
event queue like any other daemon, points are plain ints/floats, and
:meth:`export` emits sorted labels — two runs of one seed produce
byte-identical JSON.  Sampling reads the registry and schedules only
its own timer, a watch timeout that no tie key counts, so an observed
run keeps the plain run's digest, under a tie seed too.

Point shapes per series kind:

* counter — the delta since the previous sample (an int); rate over a
  window is ``sum(deltas) / (n * interval)``.
* gauge — the level at sample time (a float).
* histogram — ``(dcount, dsum, dbuckets)``: observation count delta,
  sum delta and the per-bucket count deltas; the SLO evaluator sums
  ``dbuckets`` over a window to interpolate windowed percentiles.

Series that appear mid-run are left-padded with zero points so every
ring stays index-aligned with the shared sample-time ring.
"""

from __future__ import annotations

from collections import deque
from fnmatch import fnmatchcase
from itertools import islice
from typing import Any, Callable, Optional

from .metrics import MetricsRegistry, series_label

__all__ = ["TimeSeriesRecorder", "sparkline", "SERIES_SCHEMA"]

SERIES_SCHEMA = "repro.obs.timeseries/1"

#: Eight-level block ramp used by the CLI sparklines.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 60) -> str:
    """Render ``values`` as a fixed-alphabet ASCII/Unicode sparkline.

    The last ``width`` values are scaled against the window's own
    min/max (a flat window renders as all-low blocks); empty input
    renders as an empty string.  Deterministic: pure arithmetic over
    the inputs.
    """
    if not values:
        return ""
    window = values[-width:]
    lo = min(window)
    hi = max(window)
    span = hi - lo
    if span <= 0:
        return SPARK_BLOCKS[0] * len(window)
    top = len(SPARK_BLOCKS) - 1
    return "".join(SPARK_BLOCKS[int((v - lo) / span * top)] for v in window)


class _Track:
    """One series' bounded point ring."""

    __slots__ = ("kind", "points", "bounds")

    def __init__(self, kind: str, capacity: int,
                 bounds: tuple[float, ...] = ()) -> None:
        self.kind = kind
        self.points: deque = deque(maxlen=capacity)
        #: Histogram bucket boundaries (empty for counters/gauges) —
        #: exported so windowed percentiles can be interpolated from
        #: the recorded ``dbuckets`` alone.
        self.bounds = bounds

    def zero_point(self) -> Any:
        if self.kind == "histogram":
            return (0, 0.0, (0,) * (len(self.bounds) + 1))
        if self.kind == "gauge":
            return 0.0
        return 0


class TimeSeriesRecorder:
    """Periodic snapshot-delta sampler with bounded rings.

    Parameters
    ----------
    registry:
        The live :class:`MetricsRegistry` to sample.
    interval:
        Simulated seconds between samples.
    capacity:
        Ring depth per series (and for the shared sample-time ring);
        memory is ``O(series × capacity)`` regardless of run length.

    ``on_sample`` hooks (the SLO evaluator, the flight recorder) are
    called after every sample as ``hook(now, deltas)`` where ``deltas``
    maps every tracked label to the point just recorded.
    """

    def __init__(self, registry: MetricsRegistry, interval: float = 0.25,
                 capacity: int = 240) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.times: deque = deque(maxlen=capacity)
        self.tracks: dict[str, _Track] = {}
        self.samples_taken = 0
        self.on_sample: list[Callable[[float, dict], None]] = []
        self._last: dict[str, Any] = {}
        #: ``(label, handle)`` in sample order, rebuilt when the
        #: registry grows (series are never removed).
        self._order: list[tuple[str, Any]] = []
        #: pattern -> :meth:`matching` result; cleared on a new track.
        self._matches: dict[str, list[str]] = {}
        self._running = False
        self._sim: Optional[Any] = None

    # -- sampling loop ---------------------------------------------------
    def start(self, sim: Any) -> "TimeSeriesRecorder":
        """Sample on ``sim`` every ``interval``; returns self."""
        if self._running:
            return self
        self._running = True
        self._sim = sim
        sim.watch_timeout(self.interval).callbacks.append(self._tick)
        return self

    def stop(self) -> None:
        self._running = False

    def _tick(self, _ev: Any) -> None:
        if not self._running:
            return
        sim = self._sim
        self.sample(sim.now)
        sim.watch_timeout(self.interval).callbacks.append(self._tick)

    # -- one sample ------------------------------------------------------
    def sample(self, now: float) -> dict:
        """Record one sample at time ``now``; returns the delta map."""
        self.times.append(now)
        self.samples_taken += 1
        deltas: dict[str, Any] = {}
        seen = len(self.times)
        series = self.registry._series
        if len(self._order) != len(series):
            self._order = [
                (series_label(*key), series[key]) for key in sorted(
                    series, key=lambda k: (k[0],
                                           -1 if k[1] is None else k[1],
                                           k[2]))]
        for label, handle in self._order:
            track = self.tracks.get(label)
            if track is None:
                bounds = (tuple(handle.bounds)
                          if handle.kind == "histogram" else ())
                track = self.tracks[label] = _Track(
                    handle.kind, self.capacity, bounds)
                self._matches.clear()
                # Left-pad so this ring stays index-aligned with the
                # shared time ring (the series carried zero before it
                # was registered).
                for _ in range(seen - 1):
                    track.points.append(track.zero_point())
            if handle.kind == "counter":
                value = handle.value
                point = value - self._last.get(label, 0)
                self._last[label] = value
            elif handle.kind == "gauge":
                point = handle.value
            else:  # histogram
                raw = (handle.count, handle.total, tuple(handle.counts))
                prev = self._last.get(label)
                if prev is None:
                    prev = (0, 0.0, (0,) * len(raw[2]))
                point = (raw[0] - prev[0], raw[1] - prev[1],
                         tuple(c - p for c, p in zip(raw[2], prev[2])))
                self._last[label] = raw
            track.points.append(point)
            deltas[label] = point
        for hook in self.on_sample:
            hook(now, deltas)
        return deltas

    # -- windowed queries ------------------------------------------------
    def window(self, label: str, samples: Optional[int] = None) -> list:
        """The last ``samples`` points of one series (all when None)."""
        track = self.tracks.get(label)
        if track is None:
            return []
        points = track.points
        if not samples or samples >= len(points):
            return list(points)
        return list(islice(points, len(points) - samples, None))

    def rate(self, label: str, samples: Optional[int] = None) -> float:
        """Windowed per-second rate of a counter (or histogram count).

        ``sum(deltas) / (n × interval)`` over the last ``samples``
        deltas — the elapsed time is exact because sampling is
        fixed-interval on the simulated clock.
        """
        track = self.tracks.get(label)
        points = self.window(label, samples)
        if not points:
            return 0.0
        if track is not None and track.kind == "histogram":
            total = sum(p[0] for p in points)
        else:
            total = sum(points)
        return total / (len(points) * self.interval)

    def matching(self, pattern: str) -> list[str]:
        """Sorted labels matching a ``fnmatch`` pattern (memoised until
        the next new series; do not mutate the result)."""
        labels = self._matches.get(pattern)
        if labels is None:
            labels = self._matches[pattern] = sorted(
                label for label in self.tracks
                if fnmatchcase(label, pattern))
        return labels

    # -- export ----------------------------------------------------------
    def export(self) -> dict:
        """Deterministic JSON-ready dump of every ring."""
        series = {}
        for label in sorted(self.tracks):
            track = self.tracks[label]
            if track.kind == "histogram":
                points: list = [
                    {"count": dc, "sum": round(ds, 9), "buckets": list(db)}
                    for dc, ds, db in track.points]
            elif track.kind == "gauge":
                points = [round(p, 9) for p in track.points]
            else:
                points = list(track.points)
            entry: dict[str, Any] = {"kind": track.kind, "points": points}
            if track.bounds:
                entry["bounds"] = list(track.bounds)
            series[label] = entry
        return {
            "schema": SERIES_SCHEMA,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples_taken,
            "times": [round(t, 9) for t in self.times],
            "series": series,
        }

    def format_series(self, pattern: str = "*", width: int = 60) -> str:
        """Sparkline-per-series text view (CLI ``series`` subcommand).

        Counters and histograms render their per-sample deltas, gauges
        their levels; each line carries the windowed rate (counters /
        histogram observation counts) or the last level (gauges).
        """
        lines = [f"# {SERIES_SCHEMA} interval={self.interval:g}s "
                 f"samples={self.samples_taken}"]
        for label in self.matching(pattern):
            track = self.tracks[label]
            points = list(track.points)
            if track.kind == "histogram":
                values = [float(p[0]) for p in points]
                tail = f"{self.rate(label):.1f} obs/s"
            elif track.kind == "gauge":
                values = [float(p) for p in points]
                tail = f"last={points[-1]:g}" if points else "last=-"
            else:
                values = [float(p) for p in points]
                tail = f"{self.rate(label):.1f}/s"
            lines.append(f"{label:<44} {sparkline(values, width)}  "
                         f"[{track.kind} {tail}]")
        return "\n".join(lines)
