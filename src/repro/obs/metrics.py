"""Metrics registry: counters, gauges, fixed-bucket histograms.

Series are keyed ``(node, vnode, name)`` — ``vnode`` is ``None`` for
node- or process-level series.  Handles are cached, so instrumented
code asks the registry once (usually at construction) and then pays a
single attribute bump per event.  A registry built with
``enabled=False`` hands out one shared no-op handle, so instrumented
components never branch on "is observability on" at call sites.  A
per-key path that already counts in a plain int registers that int
instead (:meth:`MetricsRegistry.count_from`) and makes no call at all.

Everything here is sim-clock friendly: no wall-clock reads, no
randomness, no id()-keyed exports.  ``snapshot()`` is deterministic —
keys are emitted sorted, values are plain ints/floats — so two runs of
the same seed produce byte-identical JSON.

The per-vnode read/write/keys/bytes accounting that feeds the paper's
imbalance table (§V) lives in :class:`VnodeStatsFeed`.  The feed is
*always on* (rebalancing needs it whether or not observability is
enabled) and is the single source of those numbers: the node's
imbalance pusher calls :meth:`VnodeStatsFeed.row` and the registry
snapshot walks the very same status objects, so the frequencies an
operator sees in a snapshot are definitionally the ones pushed to
ZooKeeper.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterable, Optional

__all__ = [
    "Counter", "CountView", "Gauge", "Histogram", "MetricsRegistry",
    "VnodeStatsFeed",
    "DEFAULT_BUCKETS", "NOOP", "DISABLED", "SNAPSHOT_SCHEMA",
    "diff_snapshots", "bucket_quantile", "bucket_fraction_le",
    "series_label",
]

SNAPSHOT_SCHEMA = "repro.obs/1"

#: Default histogram boundaries (seconds) — tuned for simulated LAN
#: request latencies: sub-millisecond store ops up to multi-second
#: timeout/recovery tails.  Observations above the last boundary land
#: in the implicit +inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class _Noop:
    """Shared do-nothing handle returned by disabled registries."""

    __slots__ = ()
    kind = "noop"

    def inc(self, n: int = 1) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0

    @property
    def count(self) -> int:
        return 0


NOOP = _Noop()


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def export(self) -> dict:
        return {"type": "counter", "value": self.value}


class CountView:
    """A counter series whose count is a plain int attribute of another
    object, read at export time (see :meth:`MetricsRegistry.count_from`).

    Binding a new source keeps what the old one counted: a restarted
    node's fresh store continues its predecessor's series, exactly as a
    shared :class:`Counter` handle would.
    """

    __slots__ = ("_source", "_attr", "_base")
    kind = "counter"

    def __init__(self) -> None:
        self._source: Any = None
        self._attr = ""
        self._base = 0

    def bind(self, source: Any, attr: str) -> None:
        if self._source is not None:
            self._base += getattr(self._source, self._attr)
        self._source = source
        self._attr = attr

    @property
    def value(self) -> int:
        if self._source is None:
            return self._base
        return self._base + getattr(self._source, self._attr)

    def export(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set level (queue depth, cache size, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def export(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary histogram with cumulative-``le`` semantics.

    ``counts[i]`` counts observations ``v <= bounds[i]`` that did not
    fit an earlier bucket (i.e. per-bucket, not pre-summed); the final
    slot is the implicit +inf bucket.  An observation exactly on a
    boundary lands in that boundary's bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def export(self) -> dict:
        return {"type": "histogram", "count": self.count,
                "sum": round(self.total, 9),
                "buckets": {_bucket_label(b): c
                            for b, c in zip(self.bounds, self.counts)},
                "inf": self.counts[-1]}

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile (0..1); see :func:`bucket_quantile`."""
        return bucket_quantile(self.bounds, self.counts, q)

    def fraction_le(self, threshold: float) -> float:
        """Interpolated fraction of observations ``<= threshold``."""
        return bucket_fraction_le(self.bounds, self.counts, threshold)


def _bucket_label(bound: float) -> str:
    return format(bound, "g")


def bucket_quantile(bounds: tuple[float, ...], counts: list[int],
                    q: float) -> float:
    """Interpolated quantile from per-bucket counts.

    The estimator is the Prometheus ``histogram_quantile`` one:
    observations are assumed uniformly spread inside their bucket, the
    rank is located in the cumulative distribution and interpolated
    linearly between the bucket's boundaries.  The first bucket's lower
    edge is 0 (latencies are non-negative) and a rank landing in the
    implicit +inf bucket is clamped to the highest finite boundary —
    both also Prometheus conventions.  Returns 0.0 on an empty
    histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cum = 0
    lo = 0.0
    for bound, count in zip(bounds, counts):
        if cum + count >= rank and count > 0:
            return lo + (bound - lo) * ((rank - cum) / count)
        cum += count
        lo = bound
    return bounds[-1]


def bucket_fraction_le(bounds: tuple[float, ...], counts: list[int],
                       threshold: float) -> float:
    """Interpolated fraction of observations ``<= threshold``.

    The SLO evaluator's "good events" estimator: buckets entirely at or
    below the threshold count in full, the bucket straddling it
    contributes linearly (uniform-in-bucket assumption), buckets above
    contribute nothing.  Observations in the +inf bucket are always
    above any finite threshold.  Returns 1.0 on an empty histogram
    (no observations → nothing violated the target).
    """
    total = sum(counts)
    if total == 0:
        return 1.0
    good = 0.0
    lo = 0.0
    for bound, count in zip(bounds, counts):
        if bound <= threshold:
            good += count
        elif lo < threshold:
            good += count * ((threshold - lo) / (bound - lo))
        lo = bound
    return good / total


def series_label(node: str, vnode: Optional[int], name: str) -> str:
    """Canonical flat label for one ``(node, vnode, name)`` series key —
    the form snapshots, diffs and the time-series recorder all use."""
    if vnode is None:
        return f"{node or '-'}/{name}"
    return f"{node or '-'}/v{vnode}/{name}"


class VnodeStatsFeed:
    """Always-on per-vnode accounting for one real node.

    Owns the vnode-id -> status mapping (the record type is injected —
    the node passes :class:`~repro.core.hashring.VnodeStatus` — so this
    module stays import-free of ``core``).  Replica handlers report
    reads and writes here, the imbalance pusher aggregates with
    :meth:`row`, and a :class:`MetricsRegistry` snapshot walks the same
    objects via :meth:`per_vnode`.
    """

    __slots__ = ("node", "_factory", "statuses", "underflows")

    def __init__(self, node: str, status_factory: Any = None) -> None:
        self.node = node
        self._factory = status_factory or _PlainStatus
        self.statuses: dict[int, Any] = {}
        #: Always 0: the node sets ``keys`` from its index instead of
        #: counting arrivals and departures.  Snapshots still carry it
        #: (``feed_underflows``).
        self.underflows = 0

    def status(self, vnode_id: int) -> Any:
        """Get-or-create the live status record for a vnode."""
        status = self.statuses.get(vnode_id)
        if status is None:
            status = self.statuses[vnode_id] = self._factory()
        return status

    def record_read(self, vnode_id: int, n: int = 1) -> None:
        self.status(vnode_id).reads += n

    def record_write(self, vnode_id: int, n: int = 1) -> None:
        self.status(vnode_id).writes += n

    def discard(self, vnode_id: int) -> None:
        self.statuses.pop(vnode_id, None)

    def row(self) -> dict:
        """The per-node imbalance-table row (same shape the node pushes
        to ``/sedna/imbalance/<name>``)."""
        statuses = self.statuses.values()
        return {
            "vnodes": len(self.statuses),
            "keys": sum(s.keys for s in statuses),
            "bytes": sum(s.bytes for s in statuses),
            "reads": sum(s.reads for s in statuses),
            "writes": sum(s.writes for s in statuses),
        }

    def per_vnode(self) -> dict:
        """Sorted per-vnode export used by registry snapshots."""
        return {str(vid): {"keys": s.keys, "bytes": s.bytes,
                           "reads": s.reads, "writes": s.writes}
                for vid, s in sorted(self.statuses.items())}


class _PlainStatus:
    """Default status record when no factory is injected (tests)."""

    __slots__ = ("keys", "bytes", "reads", "writes", "warming")

    def __init__(self) -> None:
        self.keys = 0
        self.bytes = 0
        self.reads = 0
        self.writes = 0
        self.warming = False


class MetricsRegistry:
    """Series registry with cached handles and deterministic export.

    ``max_series`` caps label cardinality: once the cap is hit, new
    series degrade to the shared no-op handle and their keys are
    remembered in ``dropped_keys`` — ``dropped_series`` counts
    *distinct* dropped series (repeated ``_handle`` calls for the same
    over-cap key are one drop, not one per call), and the snapshot
    lists the sorted dropped labels so a cardinality blowup is
    diagnosable from the export alone.  A runaway label (per-key
    metrics, say) degrades observability instead of memory.
    """

    def __init__(self, enabled: bool = True, max_series: int = 4096) -> None:
        self.enabled = enabled
        self.max_series = max_series
        self._dropped: set[tuple] = set()
        self._series: dict[tuple, Any] = {}
        self._feeds: dict[str, VnodeStatsFeed] = {}

    @property
    def dropped_series(self) -> int:
        """Distinct series keys lost to the cardinality cap."""
        return len(self._dropped)

    @property
    def dropped_keys(self) -> list[str]:
        """Sorted labels of the capped-out series."""
        ordered = sorted(self._dropped,
                         key=lambda k: (k[0], -1 if k[1] is None else k[1],
                                        k[2]))
        return sorted(series_label(node, vnode, name)
                      for (node, vnode, name) in ordered)

    # -- handle creation -------------------------------------------------
    def counter(self, name: str, node: str = "",
                vnode: Optional[int] = None) -> Any:
        return self._handle(Counter, name, node, vnode)

    def gauge(self, name: str, node: str = "",
              vnode: Optional[int] = None) -> Any:
        return self._handle(Gauge, name, node, vnode)

    def histogram(self, name: str, node: str = "",
                  vnode: Optional[int] = None,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Any:
        return self._handle(Histogram, name, node, vnode, buckets)

    def count_from(self, source: Any, attr: str, name: str, node: str = "",
                   vnode: Optional[int] = None) -> None:
        """Export the int ``source.<attr>`` as the counter series
        ``name``, read at snapshot time.

        For per-key paths that already count in plain ints: they make
        no handle call at all, enabled or not.  The series takes its
        slot (and its place under the cardinality cap) now, like any
        other handle."""
        handle = self._handle(CountView, name, node, vnode)
        if handle is not NOOP:
            handle.bind(source, attr)

    def _handle(self, cls: type, name: str, node: str,
                vnode: Optional[int], *args: Any) -> Any:
        if not self.enabled:
            return NOOP
        key = (node, vnode, name)
        handle = self._series.get(key)
        if handle is not None:
            if not isinstance(handle, cls):
                raise ValueError(
                    f"series {key} already registered as {handle.kind}, "
                    f"requested {cls.kind}")
            return handle
        if len(self._series) >= self.max_series:
            self._dropped.add(key)
            return NOOP
        handle = cls(*args)
        self._series[key] = handle
        return handle

    # -- vnode feeds -----------------------------------------------------
    def register_feed(self, feed: VnodeStatsFeed) -> VnodeStatsFeed:
        """Expose a node's live per-vnode feed in snapshots.

        Re-registering under the same node name replaces the old feed
        (nodes rebuild their feed on restart).  A disabled registry
        keeps nothing: ``DISABLED`` is shared by every unobserved
        cluster in the process."""
        if self.enabled:
            self._feeds[feed.node] = feed
        return feed

    def feeds(self) -> Iterable[VnodeStatsFeed]:
        return [self._feeds[name] for name in sorted(self._feeds)]

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic point-in-time export of every series + feed."""
        series = {}
        for (node, vnode, name) in sorted(
                self._series,
                key=lambda k: (k[0], -1 if k[1] is None else k[1], k[2])):
            series[series_label(node, vnode, name)] = \
                self._series[(node, vnode, name)].export()
        vnodes = {name: self._feeds[name].per_vnode()
                  for name in sorted(self._feeds)}
        return {
            "schema": SNAPSHOT_SCHEMA,
            "enabled": self.enabled,
            "dropped_series": self.dropped_series,
            "dropped_keys": self.dropped_keys,
            "feed_underflows": {name: self._feeds[name].underflows
                                for name in sorted(self._feeds)},
            "series": series,
            "vnodes": vnodes,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Flat ``name value`` lines for terminal diffing."""
        snap = self.snapshot()
        lines = [f"# {snap['schema']} enabled={snap['enabled']} "
                 f"dropped={snap['dropped_series']}"]
        for label, data in snap["series"].items():
            if data["type"] == "histogram":
                lines.append(f"{label} count={data['count']} "
                             f"sum={data['sum']}")
            else:
                lines.append(f"{label} {data['value']}")
        for node, per_vnode in snap["vnodes"].items():
            for vid, s in per_vnode.items():
                lines.append(
                    f"{node}/vnode/{vid} keys={s['keys']} "
                    f"bytes={s['bytes']} reads={s['reads']} "
                    f"writes={s['writes']}")
        return "\n".join(lines)


#: Top-level snapshot fields diffed into the ``meta`` section — series
#: and feed rows aside, these are the bits whose drift matters
#: (``enabled`` flips, cardinality-cap blowups, feed underflows).
_META_FIELDS = ("enabled", "dropped_series", "dropped_keys",
                "feed_underflows")


def diff_snapshots(before: dict, after: dict) -> dict:
    """Series-level diff of two snapshots (CLI ``diff`` subcommand).

    Returns ``{"added": [...], "removed": [...], "changed": {label:
    {"before": ..., "after": ...}}, "meta": {field: {"before": ...,
    "after": ...}}}`` over flat series, per-vnode feed rows and the
    top-level metadata fields (``enabled``, ``dropped_series``,
    ``dropped_keys``, ``feed_underflows``)."""

    def flatten(snap: dict) -> dict:
        flat: dict[str, Any] = dict(snap.get("series", {}))
        for node, per_vnode in snap.get("vnodes", {}).items():
            for vid, stats in per_vnode.items():
                flat[f"{node}/vnode/{vid}"] = stats
        return flat

    a, b = flatten(before), flatten(after)
    return {
        "added": sorted(set(b) - set(a)),
        "removed": sorted(set(a) - set(b)),
        "changed": {label: {"before": a[label], "after": b[label]}
                    for label in sorted(set(a) & set(b))
                    if a[label] != b[label]},
        "meta": {field: {"before": before.get(field),
                         "after": after.get(field)}
                 for field in _META_FIELDS
                 if before.get(field) != after.get(field)},
    }


#: Shared disabled registry — components built without observability
#: default to this and hand out :data:`NOOP` everywhere.
DISABLED = MetricsRegistry(enabled=False)
