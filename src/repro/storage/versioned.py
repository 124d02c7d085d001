"""Sedna's local storage extensions over MemStore.

The paper stores every datum with a timestamp and keeps, for
``write_all`` keys, a *value list* with one element per source server
(§III.F).  Each row additionally carries two extra columns, **Dirty**
and **Monitors** (§IV.C, Fig. 5): Dirty is set automatically on every
write; Monitors lists the trigger monitors registered on the row.
Scanner threads sweep the Dirty flags and feed changed rows to the
trigger runtime.

:class:`VersionedStore` provides exactly those semantics:

* ``write_latest(key, value, ts, source)`` — overwrite if the request's
  timestamp is newer than the stored one, replying ``ok``; otherwise
  reply ``outdated`` (lock-free last-write-wins).
* ``write_all(key, value, ts, source)`` — compare only against the
  element *from the same source* in the value list; update that element
  if newer.
* ``read_latest`` / ``read_all`` — freshest element vs. the whole list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    NamedTuple, Optional, Union)

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["ValueElement", "Row", "WriteOutcome", "VersionedStore",
           "element_order", "DvvSibling", "DvvRow", "ctx_covers",
           "wire_dvv_row", "unwire_dvv_row", "wire_context",
           "unwire_context"]


def element_order(el: "ValueElement") -> tuple[float, str]:
    """Total order over value-list elements: ``(timestamp, source)``.

    Every version comparison in the system — ``write_latest``,
    ``Row.latest``, merges, read repair — must use this same key, or
    equal-timestamp writes resolve differently on different replicas.
    """
    return (el.timestamp, el.source)


class WriteOutcome:
    """Reply vocabulary of the write APIs (§III.F)."""

    OK = "ok"
    OUTDATED = "outdated"
    FAILURE = "failure"


class ValueElement(NamedTuple):
    """One element of a value list: (source server, timestamp, value).

    A named tuple, so building one is a single allocation; its ``repr``
    and ``hash`` are those of the frozen dataclass it replaced.  It is a
    storage type and never rides the wire: the size model charges an
    opaque object 32 bytes whatever it holds, so replies carry elements
    as plain tuples (``wire_elements``).
    """

    source: str
    timestamp: float
    value: Any


def _value_size(value: Any) -> int:
    """Rough payload size for the byte-volume series."""
    return len(value) if isinstance(value, (str, bytes)) else 8


#: The Monitors column of every row nobody monitors: shared, and
#: replaced by a real set on the row's first registration.
_NO_MONITORS: frozenset = frozenset()


@dataclass(slots=True)
class Row:
    """A stored row: value list plus the Dirty/Monitors columns.

    ``lww`` records the row's write discipline: True once the row has
    been written through ``write_latest`` (it then holds at most one
    element), False for ``write_all`` value lists, None when the row
    has only ever been populated by merges and the mode is unknown.
    Merges into an LWW row prune superseded sources so re-duplication
    and anti-entropy cannot re-inflate a collapsed row.

    ``wire_size`` is a cache the replica plane may fill: the row's
    elements as a ``replica.mread`` row, sized where that row sits in
    its reply.  Every write to the row resets it to None.
    """

    elements: list[ValueElement] = field(default_factory=list)
    dirty: bool = False
    dirty_seq: int = 0
    monitors: Union[set[str], frozenset[str]] = _NO_MONITORS
    lww: Optional[bool] = None
    wire_size: Optional[int] = field(default=None, repr=False,
                                     compare=False)

    def latest(self) -> Optional[ValueElement]:
        """The element with the newest timestamp (ties: lexicographically
        greatest source, so replicas resolve ties identically)."""
        elements = self.elements
        if len(elements) == 1:
            return elements[0]
        if not elements:
            return None
        return max(elements, key=element_order)

    def element_from(self, source: str) -> Optional[ValueElement]:
        """The element written by ``source``, if any."""
        for el in self.elements:
            if el.source == source:
                return el
        return None


@dataclass(frozen=True)
class DvvSibling:
    """One concurrent version of a causal-mode row.

    ``(replica, counter)`` is the *dot* — the globally unique event id
    minted by the coordinating replica; ``source``/``timestamp``/
    ``value`` carry the client write itself.  Metadata is bounded: dot
    ids are server names, so a row's version vector never grows beyond
    the cluster size (the Dotted Version Vectors guarantee).
    """

    replica: str
    counter: int
    source: str
    timestamp: float
    value: Any

    @property
    def dot(self) -> tuple[str, int]:
        return (self.replica, self.counter)


def ctx_covers(ctx: dict[str, int], dot: tuple[str, int]) -> bool:
    """True when causal context ``ctx`` has seen event ``dot``."""
    return ctx.get(dot[0], 0) >= dot[1]


def _sibling_order(s: DvvSibling) -> tuple[float, str, str, int]:
    """Deterministic storage order: oldest first, dot-unique."""
    return (s.timestamp, s.source, s.replica, s.counter)


class DvvRow:
    """A causal-mode row: version vector plus concurrent siblings.

    The compact server-side form of the Dotted Version Vectors paper
    (PAPERS.md, Preguiça/Baquero/Almeida): one version vector ``vv``
    summarising every event this replica has *seen*, and a sibling list
    holding the events not yet causally superseded.  Invariant: every
    sibling's dot is covered by ``vv``.

    ``update`` applies a client write with its causal context at the
    dot-minting replica; ``merge`` joins two replicas' rows such that a
    sibling survives iff it is present on both sides or present on one
    side and *not yet seen* (dot above the vv entry) by the other.
    Both are deterministic, and ``merge`` is associative, commutative
    and idempotent, so anti-entropy and read repair can apply rows in
    any order.
    """

    __slots__ = ("vv", "siblings")

    def __init__(self, vv: Optional[dict[str, int]] = None,
                 siblings: Optional[list[DvvSibling]] = None) -> None:
        self.vv: dict[str, int] = dict(vv or {})
        self.siblings: list[DvvSibling] = sorted(siblings or [],
                                                 key=_sibling_order)

    def context(self) -> dict[str, int]:
        """The causal context handed to clients on read."""
        return dict(self.vv)

    def values(self) -> list[Any]:
        """Current sibling values, oldest first."""
        return [s.value for s in self.siblings]

    def shape(self) -> tuple:
        """Canonical comparable form: (vv items, sibling dots)."""
        return (tuple(sorted(self.vv.items())),
                tuple(sorted(s.dot for s in self.siblings)))

    def _cap(self, cap: Optional[int]) -> int:
        """Drop the oldest siblings beyond ``cap``; returns count pruned.

        Merge-safe: pruned dots stay covered by ``vv``, so a pruned
        sibling can never resurrect through a later merge, and replicas
        applying the same cap to the same merged set prune identically.
        """
        if cap is None or cap <= 0 or len(self.siblings) <= cap:
            return 0
        pruned = len(self.siblings) - cap
        self.siblings = self.siblings[pruned:]
        return pruned

    def update(self, ctx: dict[str, int], source: str, timestamp: float,
               value: Any, replica_id: str,
               cap: Optional[int] = None) -> tuple[tuple[str, int], int]:
        """Apply a client write at the dot-minting replica.

        Siblings whose dot the client's context covers are causally
        superseded and discarded; the write itself gets a fresh dot
        ``(replica_id, counter)``.  Returns ``(dot, siblings_pruned)``.
        """
        counter = self.vv.get(replica_id, 0) + 1
        for rep, cnt in ctx.items():
            if cnt > self.vv.get(rep, 0):
                self.vv[rep] = cnt
        self.vv[replica_id] = counter
        self.siblings = [s for s in self.siblings
                         if not ctx_covers(ctx, s.dot)]
        self.siblings.append(
            DvvSibling(replica_id, counter, source, timestamp, value))
        self.siblings.sort(key=_sibling_order)
        pruned = self._cap(cap)
        return (replica_id, counter), pruned

    def merge(self, other: "DvvRow",
              cap: Optional[int] = None) -> tuple[bool, int]:
        """Join another replica's row into this one.

        A sibling survives iff both sides hold it, or one side holds it
        and the other has not seen its dot.  Returns ``(changed,
        siblings_pruned)``.
        """
        before = self.shape()
        mine = {s.dot: s for s in self.siblings}
        theirs = {s.dot: s for s in other.siblings}
        keep: dict[tuple[str, int], DvvSibling] = {}
        for dot, sib in mine.items():
            if dot in theirs or dot[1] > other.vv.get(dot[0], 0):
                keep[dot] = sib
        for dot, sib in theirs.items():
            if dot in mine or dot[1] > self.vv.get(dot[0], 0):
                keep[dot] = sib
        for rep, cnt in other.vv.items():
            if cnt > self.vv.get(rep, 0):
                self.vv[rep] = cnt
        self.siblings = sorted(keep.values(), key=_sibling_order)
        pruned = self._cap(cap)
        return self.shape() != before, pruned


def wire_context(ctx: dict[str, int]) -> list[list]:
    """Causal context in wire form: sorted ``[replica, counter]`` pairs."""
    return [[rep, cnt] for rep, cnt in sorted(ctx.items())]


def unwire_context(blob: Optional[Iterable[Any]]) -> dict[str, int]:
    """Inverse of :func:`wire_context` (tolerates tuples)."""
    return {rep: cnt for rep, cnt in (blob or [])}


def wire_dvv_row(row: DvvRow) -> dict:
    """A causal row in wire form (deterministically ordered)."""
    return {"vv": wire_context(row.vv),
            "siblings": [[s.replica, s.counter, s.source, s.timestamp,
                          s.value] for s in row.siblings]}


def unwire_dvv_row(blob: dict) -> DvvRow:
    """Inverse of :func:`wire_dvv_row`."""
    return DvvRow(unwire_context(blob.get("vv")),
                  [DvvSibling(rep, cnt, src, ts, val)
                   for rep, cnt, src, ts, val in blob.get("siblings", [])])


class VersionedStore:
    """Timestamped multi-version row store with dirty tracking.

    Rows are held in a plain, unbounded dict keyed by the (string) full
    key.  This is the whole of a Sedna node's store: the byte-level
    engine with memory accounting
    (:class:`~repro.storage.memstore.MemStore`) is the Fig. 7 baseline
    only and no node embeds it — the node borrows just its ``fnv1a``,
    via ``core/hashring.py``.

    Parameters
    ----------
    clock:
        Simulated-time source used for bookkeeping (not for versioning
        — versions come from client-supplied timestamps, as the paper
        specifies writes carry their own timestamps).
    metrics / node:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` plus the
        owning node's name; when given, op counts and rough byte sizes
        are exported as ``store.*`` series.  The per-key paths count in
        plain ints (``writes_ok``, ``reads``, ``bytes_read``, ...) and
        the registry reads them at snapshot time, so a store makes no
        metric call per key, observed or not.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 node: str = "", dvv_sibling_cap: int = 16) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.rows: dict[str, Row] = {}
        # Causal-mode (DVV) rows live beside the timestamped rows; a
        # key is one or the other, never both, by API discipline.
        self.dvv_rows: dict[str, DvvRow] = {}
        self.dvv_sibling_cap = dvv_sibling_cap
        self.dvv_context_misses = 0
        self.dvv_sibling_prunes = 0
        self._dirty_seq = 0
        self._dirty_keys: dict[str, int] = {}
        # Observers called as fn(key, old_latest, new_latest) on change;
        # the trigger scanner hooks here *in addition to* polling the
        # Dirty column, mirroring the paper's scan threads without
        # forcing benchmarks to pay a scan on every write.
        self.writes_ok = 0
        self.writes_outdated = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0
        if metrics is None:
            from ..obs.metrics import DISABLED
            metrics = DISABLED
        for attr in ("writes_ok", "writes_outdated", "reads",
                     "bytes_written", "bytes_read"):
            metrics.count_from(self, attr, f"store.{attr}", node=node)
        self._m_dvv_siblings = metrics.histogram(
            "dvv.siblings", node=node, buckets=(1, 2, 3, 5, 8, 13))
        self._m_dvv_ctx_miss = metrics.counter(
            "dvv.context_misses", node=node)
        self._m_dvv_prunes = metrics.counter(
            "dvv.sibling_prunes", node=node)

    # -- write paths -------------------------------------------------------
    def _mark_dirty(self, key: str, row: Row) -> None:
        self._dirty_seq += 1
        row.dirty = True
        row.dirty_seq = self._dirty_seq
        self._dirty_keys[key] = self._dirty_seq

    def write_latest(self, key: str, value: Any, timestamp: float,
                     source: str) -> str:
        """Overwrite the whole row iff ``timestamp`` is newest.

        Returns ``"ok"`` or ``"outdated"`` (§III.F: "writes with newer
        timestamp will successfully overwrite data with older
        timestamp").
        """
        row = self.rows.get(key)
        if row is None:
            row = Row()
            self.rows[key] = row
        row.lww = True
        current = row.latest()
        if current is not None and (timestamp, source) <= (
                current.timestamp, current.source):
            self.writes_outdated += 1
            return WriteOutcome.OUTDATED
        row.elements = [ValueElement(source, timestamp, value)]
        row.wire_size = None
        self._mark_dirty(key, row)
        self.writes_ok += 1
        # _value_size, inlined on the per-key paths.
        self.bytes_written += (len(value) if isinstance(value, (str, bytes))
                               else 8)
        return WriteOutcome.OK

    def write_all(self, key: str, value: Any, timestamp: float,
                  source: str) -> str:
        """Update only this source's element iff ``timestamp`` is newer.

        §III.F: "it will only compare the request's timestamp with the
        element that came from the same source server in value list."
        """
        row = self.rows.get(key)
        if row is None:
            row = Row()
            self.rows[key] = row
        row.lww = False
        existing = row.element_from(source)
        if existing is not None and timestamp <= existing.timestamp:
            self.writes_outdated += 1
            return WriteOutcome.OUTDATED
        if existing is not None:
            row.elements.remove(existing)
        row.elements.append(ValueElement(source, timestamp, value))
        row.wire_size = None
        self._mark_dirty(key, row)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return WriteOutcome.OK

    def write_multi(
            self,
            entries: Iterable[tuple[str, Any, float, str, str]],
    ) -> dict[str, str]:
        """Apply a batch of writes in order; one outcome per key.

        ``entries`` yields ``(key, value, timestamp, source, mode)``
        tuples where ``mode`` is ``"latest"`` or ``"all"``.  The store
        side of the batched replication round (``replica.mwrite``):
        the whole group is applied under one handler dispatch.  With
        duplicate keys the last entry's outcome wins.
        """
        out: dict[str, str] = {}
        for key, value, timestamp, source, mode in entries:
            if mode == "latest":
                out[key] = self.write_latest(key, value, timestamp, source)
            else:
                out[key] = self.write_all(key, value, timestamp, source)
        return out

    def delete(self, key: str) -> bool:
        """Remove a row entirely; True when it existed."""
        existed = self.rows.pop(key, None) is not None
        existed = (self.dvv_rows.pop(key, None) is not None) or existed
        self._dirty_keys.pop(key, None)
        return existed

    # -- read paths -----------------------------------------------------------
    def read_latest(self, key: str) -> Optional[ValueElement]:
        """The freshest element regardless of which node wrote it."""
        self.reads += 1
        row = self.rows.get(key)
        latest = row.latest() if row is not None else None
        if latest is not None:
            self.bytes_read += _value_size(latest.value)
        return latest

    def read_all(self, key: str) -> list[ValueElement]:
        """Every element of the value list (empty when absent)."""
        self.reads += 1
        row = self.rows.get(key)
        if row is None:
            return []
        elements = list(row.elements)
        for el in elements:
            value = el.value
            self.bytes_read += (len(value) if isinstance(value, (str, bytes))
                                else 8)
        return elements

    def read_multi(
            self, keys: Iterable[str]) -> dict[str, list[ValueElement]]:
        """Batch :meth:`read_all`; absent keys map to empty lists.

        The store side of the batched quorum read
        (``replica.mread``): one dict per group instead of one lookup
        round per key.
        """
        return {key: self.read_all(key) for key in keys}

    def row(self, key: str) -> Optional[Row]:
        """The raw row (monitors/dirty included); None when absent."""
        return self.rows.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> Iterator[str]:
        """All stored keys."""
        return iter(self.rows)

    # -- dirty / monitor support (trigger substrate) -----------------------
    def register_monitor(self, key: str, monitor_id: str) -> None:
        """Add ``monitor_id`` to the row's Monitors column.

        Registering on a missing key creates an empty row, so triggers
        can watch keys that do not exist yet (the realtime-search use
        case watches the crawl output table before the first tweet).
        """
        row = self.rows.get(key)
        if row is None:
            row = Row()
            self.rows[key] = row
        if row.monitors is _NO_MONITORS:
            row.monitors = set()
        row.monitors.add(monitor_id)

    def unregister_monitor(self, key: str, monitor_id: str) -> None:
        """Remove a monitor registration (no-op when absent)."""
        row = self.rows.get(key)
        if row is not None and row.monitors is not _NO_MONITORS:
            row.monitors.discard(monitor_id)

    def drain_dirty(self, limit: int = 0) -> list[tuple[str, Row]]:
        """Take up to ``limit`` dirty rows (0 = all), clearing their flags.

        Rows are returned in dirty order (oldest first), which is what
        the sequential scanner threads of §IV.C observe.
        """
        keys = sorted(self._dirty_keys, key=self._dirty_keys.__getitem__)
        if limit > 0:
            keys = keys[:limit]
        out: list[tuple[str, Row]] = []
        for key in keys:
            del self._dirty_keys[key]
            row = self.rows.get(key)
            if row is None:
                continue
            row.dirty = False
            out.append((key, row))
        return out

    @property
    def dirty_count(self) -> int:
        """Rows currently flagged dirty."""
        return len(self._dirty_keys)

    # -- replication support -------------------------------------------------
    def snapshot_range(self, predicate: Callable[[str], bool]) -> dict[str, list[ValueElement]]:
        """Dump rows whose key satisfies ``predicate``.

        Used by replica re-duplication (§III.C) and rebalancing to copy
        a virtual node's contents to a new owner.
        """
        return {key: list(row.elements)
                for key, row in self.rows.items() if predicate(key)}

    def merge_elements(self, key: str, elements: list[ValueElement],
                       lww: Optional[bool] = None) -> None:
        """Merge foreign elements into a row (idempotent, newest wins).

        The receiving side of re-duplication and anti-entropy: for each
        source keep the newer of (local, incoming) under the full
        ``(timestamp, source)`` order — a bare timestamp comparison
        resolves equal-timestamp merges differently on different
        replicas.

        ``lww`` is the sender's knowledge of the row's write mode.  For
        LWW rows (``write_latest`` collapses the value list to a single
        element) the merge additionally prunes every element superseded
        by the row maximum; without that, merging per-source elements
        re-inflates collapsed rows, so replicas converge on reads yet
        diverge on digests and memory — perpetual anti-entropy churn.
        """
        row = self.rows.get(key)
        if row is None:
            row = Row()
            self.rows[key] = row
        if lww is not None:
            row.lww = lww
        changed = False
        for el in elements:
            mine = row.element_from(el.source)
            if mine is None or element_order(el) > element_order(mine):
                if mine is not None:
                    row.elements.remove(mine)
                row.elements.append(el)
                changed = True
        if row.lww and len(row.elements) > 1:
            top = max(row.elements, key=element_order)
            row.elements = [top]
            changed = True
        if changed:
            row.wire_size = None
            self._mark_dirty(key, row)

    # -- causal mode (DVV) -----------------------------------------------
    def causal_update(self, key: str, value: Any, timestamp: float,
                      source: str, ctx: dict[str, int],
                      replica_id: str) -> tuple[tuple[str, int], DvvRow]:
        """Apply a client's causal write at the dot-minting replica.

        Returns the freshly minted dot and the resulting row, which the
        coordinator replicates to the remaining replicas via
        :meth:`causal_merge`.  Causal rows bypass the Dirty/Monitors
        trigger substrate — triggers stay an LWW-mode feature.
        """
        row = self.dvv_rows.get(key)
        if row is None:
            row = DvvRow()
            self.dvv_rows[key] = row
        if any(cnt > row.vv.get(rep, 0) for rep, cnt in ctx.items()):
            # Client context references events we have not seen yet
            # (stale replica, or read served elsewhere): the update is
            # still safe — ctx only widens vv — but worth counting.
            self.dvv_context_misses += 1
            self._m_dvv_ctx_miss.inc()
        dot, pruned = row.update(ctx, source, timestamp, value,
                                 replica_id, self.dvv_sibling_cap)
        if pruned:
            self.dvv_sibling_prunes += pruned
            self._m_dvv_prunes.inc(pruned)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        self._m_dvv_siblings.observe(len(row.siblings))
        return dot, row

    def causal_merge(self, key: str, incoming: DvvRow) -> bool:
        """Join a replicated causal row into the local one.

        The receiving side of causal replication, read repair and
        anti-entropy.  Idempotent; returns True when the local row
        changed.
        """
        row = self.dvv_rows.get(key)
        if row is None:
            row = DvvRow()
            self.dvv_rows[key] = row
        changed, pruned = row.merge(incoming, self.dvv_sibling_cap)
        if pruned:
            self.dvv_sibling_prunes += pruned
            self._m_dvv_prunes.inc(pruned)
        if changed:
            self.writes_ok += 1
            self._m_dvv_siblings.observe(len(row.siblings))
        return changed

    def causal_read(self, key: str) -> Optional[DvvRow]:
        """The causal row (siblings + context); None when absent."""
        self.reads += 1
        row = self.dvv_rows.get(key)
        if row is not None:
            for sib in row.siblings:
                self.bytes_read += _value_size(sib.value)
        return row
