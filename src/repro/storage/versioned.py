"""Sedna's local store: timestamped value lists with Dirty/Monitors columns.

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

from dataclasses import dataclass
from itertools import islice
from typing import (Any, Callable, Iterable, NamedTuple, Optional, Sequence,
                    Union)

from ..obs.metrics import DISABLED, MetricsRegistry

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


class Row:
    """A stored row: value list plus the Monitors column.  Whether the
    row is dirty (written since the trigger scanners last drained it)
    is the store's to know: :meth:`VersionedStore.drain_dirty`.

    A row is one object.  The value list's first element lives in the
    row's own ``source``, ``timestamp`` and ``value`` slots (``source``
    None: the row holds no element), and any further elements, in
    order, in the ``more`` tuple, which is empty for an LWW row.  So a
    ``write_latest`` row costs one allocation when its key is new and
    none when it is rewritten.  :attr:`elements` is the read-side view:
    a fresh ``list[ValueElement]`` in value-list order.

    ``lww`` records the row's write discipline: True once the row has
    been written through ``write_latest`` (it then holds at most one
    element), False for ``write_all`` value lists, None when the row
    has only ever been populated by merges and the mode is unknown.
    Merges into an LWW row prune superseded sources so re-duplication
    and anti-entropy cannot re-inflate a collapsed row.

    Six slots make 80 bytes, one pymalloc size class below the 88 a
    seventh would ask for.
    """

    __slots__ = ("source", "timestamp", "value", "more", "monitors", "lww")

    def __init__(self, elements: Sequence[ValueElement] = (),
                 monitors: Union[set[str], frozenset[str]] = _NO_MONITORS,
                 lww: Optional[bool] = None) -> None:
        self.source: Any = None
        self.timestamp: Any = None
        self.value: Any = None
        self.more: tuple[ValueElement, ...] = ()
        if elements:
            first, *rest = elements
            self.source, self.timestamp, self.value = first
            self.more = tuple(ValueElement._make(el) for el in rest)
        self.monitors = monitors
        self.lww = lww

    @property
    def elements(self) -> list[ValueElement]:
        """The value list as a fresh list, in order: a source's element
        moves to the back when that source writes it again."""
        if self.source is None:
            return []
        return [ValueElement(self.source, self.timestamp, self.value),
                *self.more]

    def wire(self) -> list[tuple]:
        """The value list as plain ``(source, timestamp, value)`` tuples,
        the form replies carry (``core.coordinator.wire_elements``)."""
        if self.source is None:
            return []
        return [(self.source, self.timestamp, self.value),
                *map(tuple, self.more)]

    def latest(self) -> Optional[ValueElement]:
        """The element with the newest timestamp (ties: lexicographically
        greatest source, so replicas resolve ties identically)."""
        if self.source is None:
            return None
        if not self.more:
            return ValueElement(self.source, self.timestamp, self.value)
        return max(self.elements, key=element_order)

    def element_from(self, source: str) -> Optional[ValueElement]:
        """The element written by ``source``, if any."""
        if self.source is None:
            return None
        if self.source == source:
            return ValueElement(self.source, self.timestamp, self.value)
        for el in self.more:
            if el.source == source:
                return el
        return None

    def _put(self, source: str, timestamp: float, value: Any) -> None:
        """Drop ``source``'s element, if any, and append the new one."""
        more = self.more
        if self.source is None or (self.source == source and not more):
            self.source, self.timestamp, self.value = source, timestamp, value
            return
        if self.source == source:
            self.source, self.timestamp, self.value = more[0]
            more = more[1:]
        else:
            for i, el in enumerate(more):
                if el.source == source:
                    more = more[:i] + more[i + 1:]
                    break
        self.more = more + (ValueElement(source, timestamp, value),)

    def __repr__(self) -> str:
        return (f"Row(elements={self.elements!r}, "
                f"monitors={self.monitors!r}, lww={self.lww!r})")


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

    A stored key costs its row and its rows-dict entry, plus, in a
    node's store, its place in the vnode index: given ``vnode_of`` (the
    node's ring), the store keeps one key list per vnode, entered when
    a key gets its first row and left when it is deleted.  The lists
    are what the node's bulk paths walk (:meth:`keys_of`).  Deletes
    leave their keys in the lists until the next index read or entry,
    which filters each touched list once, so a batch of deletes costs
    one pass per vnode rather than one per key.  Two kinds of row are
    in no list: a row :meth:`register_monitor` created for a key never
    written, and the rows of a vnode whose list :meth:`forget_vnode`
    dropped; a write to one of them enters it.

    The Dirty column exists only on a store a trigger scanner drains:
    :meth:`keep_dirty` starts it, and only rows written from then on
    are dirty.

    Parameters
    ----------
    metrics / node:
        The :class:`~repro.obs.metrics.MetricsRegistry` (``DISABLED``
        when unobserved) plus the owning node's name; op counts and
        rough byte sizes are exported as ``store.*`` series.  The per-key paths count in
        plain ints (``writes_ok``, ``reads``, ``bytes_read``, ...) and
        the registry reads them at snapshot time, so a store makes no
        metric call per key, observed or not.
    vnode_of:
        Key -> vnode id, from the owning node's ring; None (a store
        outside a node) keeps no vnode index.
    """

    def __init__(self, metrics: MetricsRegistry = DISABLED,
                 node: str = "", dvv_sibling_cap: int = 16,
                 vnode_of: Optional[Callable[[str], int]] = None) -> None:
        self.rows: dict[str, Row] = {}
        # Causal-mode (DVV) rows live beside the timestamped rows; a
        # key is one or the other, never both, by API discipline.
        self.dvv_rows: dict[str, DvvRow] = {}
        self.dvv_sibling_cap = dvv_sibling_cap
        self.dvv_context_misses = 0
        self.dvv_sibling_prunes = 0
        # Keys written since the last drain, in last-mark order: a
        # re-marked key is re-inserted at the end.  None: nobody scans.
        self._dirty_keys: Optional[dict[str, None]] = None
        # The vnode index: per vnode, its keys in entry order (vnodes
        # in first-entry order); deleted keys still listed; keys with a
        # row in no list.
        self._vnode_of = vnode_of
        self._vnode_keys: dict[int, list[str]] = {}
        self._stale: dict[str, None] = {}
        self._unlisted: set[str] = set()
        self.writes_ok = 0
        self.writes_outdated = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0
        for attr in ("writes_ok", "writes_outdated", "reads",
                     "bytes_written", "bytes_read"):
            metrics.count_from(self, attr, f"store.{attr}", node=node)
        self._m_dvv_siblings = metrics.histogram(
            "dvv.siblings", node=node, buckets=(1, 2, 3, 5, 8, 13))
        metrics.count_from(self, "dvv_context_misses",
                           "dvv.context_misses", node=node)
        metrics.count_from(self, "dvv_sibling_prunes",
                           "dvv.sibling_prunes", node=node)

    # -- the vnode index ---------------------------------------------------
    def _list(self, key: str, had_row: bool) -> None:
        """Enter ``key``, which now has a row, in its vnode's key list
        unless it is listed already, as a key that ``had_row`` is
        unless it was left out (:meth:`register_monitor`,
        :meth:`forget_vnode`)."""
        vnode_of = self._vnode_of
        if vnode_of is None:
            return
        if had_row:
            if key not in self._unlisted:
                return
            self._unlisted.remove(key)
        if self._stale:
            self._prune()
        vnode_id = vnode_of(key)
        keys = self._vnode_keys.get(vnode_id)
        if keys is None:
            self._vnode_keys[vnode_id] = [key]
        else:
            keys.append(key)

    def _prune(self) -> None:
        """Take the keys deleted since the last prune out of their
        lists: one pass over each list they were in."""
        stale = self._stale
        lists = self._vnode_keys
        vnode_of = self._vnode_of
        assert vnode_of is not None, "only a store with an index lists"
        for vnode_id in dict.fromkeys(map(vnode_of, stale)):
            keys = lists[vnode_id]
            keys[:] = [key for key in keys if key not in stale]
        stale.clear()

    def keys_of(self, vnode_id: int) -> list[str]:
        """The vnode's listed keys, sorted: the order every bulk path
        (transfer, digest, migration snapshot, re-duplication, GC)
        walks, since it reaches the wire."""
        if self._stale:
            self._prune()
        return sorted(self._vnode_keys.get(vnode_id, ()))

    def key_count(self, vnode_id: int) -> Optional[int]:
        """How many keys the vnode's list holds; None when the store
        keeps no list for it."""
        if self._stale:
            self._prune()
        keys = self._vnode_keys.get(vnode_id)
        return None if keys is None else len(keys)

    def indexed_vnodes(self) -> list[int]:
        """The vnodes whose lists hold a key, in first-entry order; a
        vnode whose keys were all deleted keeps its place."""
        if self._stale:
            self._prune()
        return [vnode_id for vnode_id, keys in self._vnode_keys.items()
                if keys]

    def forget_vnode(self, vnode_id: int) -> None:
        """Drop the vnode's key list.  Its rows stay, in no list, until
        a write enters them again or a delete removes them."""
        if self._stale:
            self._prune()
        self._unlisted.update(self._vnode_keys.pop(vnode_id, ()))

    # -- write paths -------------------------------------------------------
    def _mark_dirty(self, key: str) -> None:
        dirty = self._dirty_keys
        if dirty is not None:
            if key in dirty:
                del dirty[key]
            dirty[key] = None

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
            self._list(key, key in self.dvv_rows)
        elif self._unlisted:
            self._list(key, True)
        row.lww = True
        if row.source is not None:
            # The newest of a write_all row's list, else the row's slots.
            current: Any = row.latest() if row.more else row
            if (timestamp, source) <= (current.timestamp, current.source):
                self.writes_outdated += 1
                return WriteOutcome.OUTDATED
            row.more = ()
        row.source = source
        row.timestamp = timestamp
        row.value = value
        # _mark_dirty, inlined on the per-key path.
        dirty = self._dirty_keys
        if dirty is not None:
            if key in dirty:
                del dirty[key]
            dirty[key] = None
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
            self._list(key, key in self.dvv_rows)
        elif self._unlisted:
            self._list(key, True)
        row.lww = False
        existing = row.element_from(source)
        if existing is not None and timestamp <= existing.timestamp:
            self.writes_outdated += 1
            return WriteOutcome.OUTDATED
        row._put(source, timestamp, value)
        self._mark_dirty(key)
        self.writes_ok += 1
        self.bytes_written += _value_size(value)
        return WriteOutcome.OK

    def delete(self, key: str) -> bool:
        """Remove a row entirely; True when it existed."""
        existed = self.rows.pop(key, None) is not None
        existed = (self.dvv_rows.pop(key, None) is not None) or existed
        if self._dirty_keys is not None:
            self._dirty_keys.pop(key, None)
        if existed and self._vnode_of is not None:
            if key in self._unlisted:
                self._unlisted.remove(key)
            else:
                self._stale[key] = None
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

    def read_row(self, key: str) -> Optional[Row]:
        """The stored row, counted as a :meth:`read_all` of it (the
        replica read handlers build their wire tuples from its slots)."""
        self.reads += 1
        row = self.rows.get(key)
        if row is None or row.source is None:
            return row
        # _value_size, inlined on the per-key paths.
        value = row.value
        size = len(value) if isinstance(value, (str, bytes)) else 8
        for el in row.more:
            value = el.value
            size += len(value) if isinstance(value, (str, bytes)) else 8
        self.bytes_read += size
        return row

    def read_all(self, key: str) -> list[ValueElement]:
        """Every element of the value list (empty when absent)."""
        self.reads += 1
        row = self.rows.get(key)
        if row is None:
            return []
        elements = row.elements
        for el in elements:
            value = el.value
            self.bytes_read += (len(value) if isinstance(value, (str, bytes))
                                else 8)
        return elements

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    # -- dirty / monitor support (trigger substrate) -----------------------
    def register_monitor(self, key: str, monitor_id: str) -> None:
        """Add ``monitor_id`` to the row's Monitors column.

        Registering on a missing key creates an empty row, so triggers
        can watch keys that do not exist yet (the realtime-search use
        case watches the crawl output table before the first tweet).
        Such a row holds no element and is in no vnode list until its
        key is written.
        """
        row = self.rows.get(key)
        if row is None:
            row = Row()
            self.rows[key] = row
            if self._vnode_of is not None and key not in self.dvv_rows:
                self._unlisted.add(key)
        if row.monitors is _NO_MONITORS:
            row.monitors = set()
        row.monitors.add(monitor_id)

    def keep_dirty(self) -> None:
        """Start keeping the Dirty column that :meth:`drain_dirty`
        drains.  A store nobody scans keeps none, so a row written
        before this call is not dirty."""
        if self._dirty_keys is None:
            self._dirty_keys = {}

    def drain_dirty(self, limit: int = 0) -> list[tuple[str, Row]]:
        """Take up to ``limit`` dirty rows (0 = all); they are clean
        until written again.

        Rows are returned in dirty order (least recently marked first),
        which is what the sequential scanner threads of §IV.C observe.
        Nothing is dirty on a store that does not :meth:`keep_dirty`.
        """
        dirty = self._dirty_keys
        if dirty is None:
            return []
        keys = list(dirty if limit <= 0 else islice(dirty, limit))
        out: list[tuple[str, Row]] = []
        rows = self.rows
        for key in keys:
            del dirty[key]
            row = rows.get(key)
            if row is not None:
                out.append((key, row))
        if not dirty:
            # A dict never shrinks its table: an emptied map is
            # replaced, so a drained column gives its memory back.
            self._dirty_keys = {}
        return out

    # -- replication support -------------------------------------------------
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
            self._list(key, key in self.dvv_rows)
        elif self._unlisted:
            self._list(key, True)
        if lww is not None:
            row.lww = lww
        changed = False
        for el in elements:
            mine = row.element_from(el.source)
            if mine is None or element_order(el) > element_order(mine):
                row._put(el.source, el.timestamp, el.value)
                changed = True
        if row.lww and row.more:
            row.source, row.timestamp, row.value = max(row.elements,
                                                       key=element_order)
            row.more = ()
            changed = True
        if changed:
            self._mark_dirty(key)

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
            self._list(key, key in self.rows)
        elif self._unlisted:
            self._list(key, True)
        if any(cnt > row.vv.get(rep, 0) for rep, cnt in ctx.items()):
            # Client context references events we have not seen yet
            # (stale replica, or read served elsewhere): the update is
            # still safe — ctx only widens vv — but worth counting.
            self.dvv_context_misses += 1
        dot, pruned = row.update(ctx, source, timestamp, value,
                                 replica_id, self.dvv_sibling_cap)
        if pruned:
            self.dvv_sibling_prunes += pruned
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
            self._list(key, key in self.rows)
        elif self._unlisted:
            self._list(key, True)
        changed, pruned = row.merge(incoming, self.dvv_sibling_cap)
        if pruned:
            self.dvv_sibling_prunes += pruned
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
