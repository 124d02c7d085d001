"""Consistent-hash ring with virtual nodes and the imbalance table.

§III.B: the ring "was equally divided into millions of slices, so every
slice represents a sub-range of INTEGER ... each sub-range is called a
virtual node".  A key hashes to an integer and mods into a virtual
node; the virtual node maps to a *real node* (its primary, r1) and its
data is replicated on the next distinct real nodes along the ring
(r2, r3).

The vnode → real-node *placement* used at bootstrap is pluggable
(:func:`build_assignment`):

* ``modulo`` — round-robin striping (``vnode % n``), the historical
  default.  Perfectly even, but growing the cluster by one node
  reshuffles almost every vnode.
* ``jump`` — jump consistent hash (Lamping & Veach, 2014): an O(1)
  memory, ~5-line function whose placement is a pure function of
  ``(vnode id, node count)``.  Growing from n to n+1 nodes moves
  exactly the ~1/(n+1) of vnodes that land on the new node and no
  others — minimal, monotonic remapping, which is what makes the
  100–1000 node north star tractable (rebalances proportional to the
  change, not to the cluster).

The ring also records per-virtual-node status (capacity, read/write
frequency) from which each real node computes an *imbalance table* row
that is periodically pushed to ZooKeeper — "it is only necessary to
update the imbalance table, which is quite small comparing with the
virtual nodes number".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from ..storage.hashtable import fnv1a

__all__ = ["VnodeStatus", "Ring", "ImbalanceTable", "HEAT_WEIGHTS",
           "row_heat", "vnode_heat", "jump_hash", "build_assignment",
           "PLACEMENTS"]

_MASK64 = (1 << 64) - 1
_JUMP_LCG = 2862933555777941757


@lru_cache(maxsize=4096)
def _key_hash(encoded_key: str) -> int:
    """64-bit hash of a key, remembered: a write hashes its key on the
    coordinator and again on every replica that indexes it.  Keyed on
    the key alone (the ``mod`` is the ring's), so rings of different
    ``num_vnodes`` share it; bounded, so it cannot grow with the key
    space."""
    return fnv1a(encoded_key.encode("utf-8"))


def _mix64(h: int) -> int:
    """splitmix64 finalizer: small sequential ints (vnode ids) need an
    avalanche pass before feeding the jump LCG, whose low bits are weak
    for clustered keys."""
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def jump_hash(key: int, num_buckets: int) -> int:
    """Jump consistent hash (Lamping & Veach): key → [0, num_buckets).

    O(ln n) time, O(1) memory, and *monotone*: growing to n+1 buckets
    only ever moves keys into bucket n.  ``key`` should be well-mixed
    64-bit (see :func:`_mix64`).
    """
    if num_buckets < 1:
        raise ValueError("need at least one bucket")
    key &= _MASK64
    b, j = -1, 0
    while j < num_buckets:
        b = j
        key = (key * _JUMP_LCG + 1) & _MASK64
        j = int((b + 1) * ((1 << 31) / ((key >> 33) + 1)))
    return b


def _modulo_assignment(num_vnodes: int, nodes: Sequence[str]) -> list[str]:
    n = len(nodes)
    return [nodes[v % n] for v in range(num_vnodes)]


def _jump_assignment(num_vnodes: int, nodes: Sequence[str]) -> list[str]:
    n = len(nodes)
    return [nodes[jump_hash(_mix64(v), n)] for v in range(num_vnodes)]


PLACEMENTS = {
    "modulo": _modulo_assignment,
    "jump": _jump_assignment,
}


def build_assignment(num_vnodes: int, nodes: Sequence[str],
                     placement: str = "modulo") -> list[str]:
    """Initial vnode → owner assignment under the named placement.

    The result is a pure function of its arguments — every node and
    client bootstrapping from the same config derives the same map,
    which is why the placement name can live in SednaConfig instead of
    ZooKeeper.
    """
    if not nodes:
        raise ValueError("need at least one node")
    try:
        fn = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(
            f"unknown placement {placement!r}; "
            f"expected one of {sorted(PLACEMENTS)}") from None
    return fn(num_vnodes, nodes)

#: Default heat-metric weights (§III.B: capacity *and* read/write
#: frequency).  One owned vnode carries a base weight so an idle
#: cluster still balances by counts; writes weigh double reads (every
#: write costs N replica applies plus persistence), and keys stand in
#: for resident capacity.
HEAT_WEIGHTS: dict[str, float] = {
    "vnodes": 4.0,
    "keys": 0.05,
    "reads": 1.0,
    "writes": 2.0,
}


def row_heat(row: Mapping[str, float],
             weights: Optional[Mapping[str, float]] = None) -> float:
    """Weighted heat of one imbalance-table row.

    ``row`` carries the per-node aggregates (vnodes/keys/reads/writes);
    missing fields count as zero, so partial rows (old publishers,
    tests) still score.
    """
    w = weights if weights is not None else HEAT_WEIGHTS
    return sum(row.get(field, 0) * weight
               for field, weight in sorted(w.items()))


def vnode_heat(stats: Mapping[str, float],
               weights: Optional[Mapping[str, float]] = None) -> float:
    """Weighted heat of one vnode's activity row.

    A vnode always contributes the per-vnode base weight (it is one
    unit of ownership) plus its weighted keys/reads/writes.
    """
    w = weights if weights is not None else HEAT_WEIGHTS
    heat = w.get("vnodes", 0.0)
    for field, weight in sorted(w.items()):
        if field != "vnodes":
            heat += stats.get(field, 0) * weight
    return heat


@dataclass
class VnodeStatus:
    """Per-virtual-node bookkeeping (§III.B)."""

    keys: int = 0
    bytes: int = 0
    reads: int = 0
    writes: int = 0
    # True while a freshly claimed vnode is still catching up on writes
    # that raced the handoff through stale mapping caches; reads are
    # refused until the catch-up pull completes (writes are accepted —
    # they only add newer data).
    warming: bool = False


class Ring:
    """The vnode → real-node assignment plus hashing.

    The assignment is the replicated truth held in ZooKeeper; this
    class is the in-memory working copy every node and client caches.
    """

    UNASSIGNED = ""

    def __init__(self, num_vnodes: int) -> None:
        if num_vnodes < 1:
            raise ValueError("need at least one virtual node")
        self.num_vnodes = num_vnodes
        self.assignment: list[str] = [self.UNASSIGNED] * num_vnodes
        # n -> vnode -> replica set, for replicas_for without exclude.
        # Valid for one state of ``assignment``: assign() and load(),
        # its only writers, clear it.
        self._replica_memo: dict[int, dict[int, list[str]]] = {}

    # -- hashing ---------------------------------------------------------
    def vnode_of(self, encoded_key: str) -> int:
        """Hash a key into its virtual node (hash then mod, §III.B)."""
        return _key_hash(encoded_key) % self.num_vnodes

    # -- assignment -------------------------------------------------------
    def assign(self, vnode: int, owner: str) -> None:
        """Set the primary owner of ``vnode``."""
        self.assignment[vnode] = owner
        self._replica_memo.clear()

    def owner(self, vnode: int) -> str:
        """Primary owner name ('' when unassigned)."""
        return self.assignment[vnode]

    def vnodes_of(self, owner: str) -> list[int]:
        """All vnodes whose primary is ``owner``."""
        return [v for v, o in enumerate(self.assignment) if o == owner]

    def unassigned(self) -> list[int]:
        """Vnodes with no primary yet."""
        return [v for v, o in enumerate(self.assignment)
                if o == self.UNASSIGNED]

    def real_nodes(self) -> list[str]:
        """Distinct owners in the assignment (sorted)."""
        return sorted({o for o in self.assignment if o != self.UNASSIGNED})

    def load_counts(self) -> dict[str, int]:
        """Owner -> primary-vnode count."""
        counts: dict[str, int] = {}
        for o in self.assignment:
            if o != self.UNASSIGNED:
                counts[o] = counts.get(o, 0) + 1
        return counts

    # -- replica placement ------------------------------------------------
    def replicas_for(self, vnode: int, n: int,
                     exclude: Iterable[str] = ()) -> list[str]:
        """The replica set [r1, r2, ... rn] for ``vnode``.

        r1 is the vnode's primary; r2.. are the owners of the following
        vnodes walking clockwise, skipping duplicates — the classic
        successor-list placement of consistent hashing (§III.B, Fig. 3).
        Fewer than ``n`` names are returned when the cluster is smaller
        than the replication factor.  The list is the caller's own.
        """
        by_vnode = None
        if not exclude:
            by_vnode = self._replica_memo.get(n)
            if by_vnode is None:
                by_vnode = self._replica_memo[n] = {}
            memo = by_vnode.get(vnode)
            if memo is not None:
                return list(memo)
        excluded = set(exclude)
        out: list[str] = []
        primary = self.assignment[vnode]
        if primary != self.UNASSIGNED and primary not in excluded:
            out.append(primary)
        idx = vnode
        for _ in range(self.num_vnodes):
            if len(out) >= n:
                break
            idx = (idx + 1) % self.num_vnodes
            candidate = self.assignment[idx]
            if (candidate != self.UNASSIGNED and candidate not in out
                    and candidate not in excluded):
                out.append(candidate)
        if by_vnode is not None:
            by_vnode[vnode] = list(out)
        return out

    def replicas_for_key(self, encoded_key: str, n: int) -> tuple[int, list[str]]:
        """(vnode, replica set) for a key."""
        vnode = self.vnode_of(encoded_key)
        return vnode, self.replicas_for(vnode, n)

    def walk_positions(self, vnode: int, n: int) -> list[tuple[int, str]]:
        """The (vnode index, owner) pairs contributing the replica set.

        First occurrence per distinct owner along the clockwise walk —
        the assignment entries recovery must rewrite when one of those
        owners is found dead (§III.C read recovery).
        """
        out: list[tuple[int, str]] = []
        seen: set[str] = set()
        idx = vnode
        for step in range(self.num_vnodes):
            candidate = self.assignment[idx]
            if candidate != self.UNASSIGNED and candidate not in seen:
                seen.add(candidate)
                out.append((idx, candidate))
                if len(out) >= n:
                    break
            idx = (idx + 1) % self.num_vnodes
        return out

    # -- bulk import/export -----------------------------------------------
    def snapshot(self) -> list[str]:
        """Copy of the assignment array."""
        return list(self.assignment)

    def load(self, assignment: list[str]) -> None:
        """Replace the assignment array."""
        if len(assignment) != self.num_vnodes:
            raise ValueError("assignment length mismatch")
        self.assignment = list(assignment)
        self._replica_memo.clear()


class ImbalanceTable:
    """Per-real-node load rows computed from vnode statuses (§III.B).

    Each Sedna service keeps vnode statistics locally and periodically
    publishes one small row; the rebalancer and join protocol consume
    the whole table to decide which vnodes should move.
    """

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}

    @staticmethod
    def row_from_statuses(statuses: dict[int, VnodeStatus]) -> dict:
        """Aggregate one node's vnode statuses into its table row."""
        return {
            "vnodes": len(statuses),
            "keys": sum(s.keys for s in statuses.values()),
            "bytes": sum(s.bytes for s in statuses.values()),
            "reads": sum(s.reads for s in statuses.values()),
            "writes": sum(s.writes for s in statuses.values()),
        }

    def update(self, node: str, row: dict) -> None:
        """Install/refresh a node's row."""
        self.rows[node] = dict(row)

    def remove(self, node: str) -> None:
        """Drop a departed node's row."""
        self.rows.pop(node, None)

    def most_loaded(self, metric: str = "vnodes") -> Optional[str]:
        """Node with the max of ``metric`` (None when empty)."""
        if not self.rows:
            return None
        return max(self.rows, key=lambda n: (self.rows[n].get(metric, 0), n))

    def least_loaded(self, metric: str = "vnodes") -> Optional[str]:
        """Node with the min of ``metric`` (None when empty)."""
        if not self.rows:
            return None
        return min(self.rows, key=lambda n: (self.rows[n].get(metric, 0), n))

    def spread(self, metric: str = "vnodes") -> float:
        """max - min of ``metric`` across rows (0 when < 2 rows)."""
        if len(self.rows) < 2:
            return 0.0
        values = [row.get(metric, 0) for row in self.rows.values()]
        return float(max(values) - min(values))

    # -- heat metric (load-aware rebalancing) ---------------------------
    def heat(self, node: str, weights: Optional[dict] = None) -> float:
        """Weighted heat of one node's row (0.0 for unknown nodes)."""
        row = self.rows.get(node)
        return 0.0 if row is None else row_heat(row, weights)

    def hottest(self, weights: Optional[dict] = None) -> Optional[str]:
        """Node with the max heat; ties break on the larger name so the
        choice is deterministic regardless of row insertion order."""
        if not self.rows:
            return None
        return max(self.rows, key=lambda n: (row_heat(self.rows[n],
                                                      weights), n))

    def coldest(self, weights: Optional[dict] = None) -> Optional[str]:
        """Node with the min heat (deterministic tiebreak, see
        :meth:`hottest`)."""
        if not self.rows:
            return None
        return min(self.rows, key=lambda n: (row_heat(self.rows[n],
                                                      weights), n))

    def heat_spread(self, weights: Optional[dict] = None) -> float:
        """max - min heat across rows (0 when < 2 rows)."""
        if len(self.rows) < 2:
            return 0.0
        values = [row_heat(row, weights) for row in self.rows.values()]
        return max(values) - min(values)

    def mean_heat(self, weights: Optional[dict] = None) -> float:
        """Average heat across rows (0 when empty)."""
        if not self.rows:
            return 0.0
        return sum(row_heat(row, weights)
                   for row in self.rows.values()) / len(self.rows)
