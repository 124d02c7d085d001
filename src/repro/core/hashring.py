"""Consistent-hash ring with virtual nodes and the imbalance table.

§III.B: the ring "was equally divided into millions of slices, so every
slice represents a sub-range of INTEGER ... each sub-range is called a
virtual node".  A key hashes to an integer and mods into a virtual
node; the virtual node maps to a *real node* (its primary, r1) and its
data is replicated on the next distinct real nodes along the ring
(r2, r3).

At bootstrap the vnodes are striped round-robin over the real nodes
(:func:`build_assignment`); joins and the rebalancer move them from
there.

The ring also records per-virtual-node status (capacity, read/write
frequency) from which each real node computes an *imbalance table* row
that is periodically pushed to ZooKeeper — "it is only necessary to
update the imbalance table, which is quite small comparing with the
virtual nodes number".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from ..storage.hashtable import fnv1a

__all__ = ["VnodeStatus", "Ring", "ImbalanceTable", "HEAT_WEIGHTS",
           "row_heat", "vnode_heat", "build_assignment"]


@lru_cache(maxsize=4096)
def _key_hash(encoded_key: str) -> int:
    """64-bit hash of a key, remembered: a write hashes its key on the
    coordinator and again on every replica that indexes it.  Keyed on
    the key alone (the ``mod`` is the ring's), so rings of different
    ``num_vnodes`` share it; bounded, so it cannot grow with the key
    space."""
    return fnv1a(encoded_key.encode("utf-8"))


def build_assignment(num_vnodes: int, nodes: Sequence[str]) -> list[str]:
    """Initial vnode → owner assignment: modulo striping (``vnode % n``).

    A pure function of its arguments, so every node and client
    bootstrapping from the same config derives the same map.
    """
    if not nodes:
        raise ValueError("need at least one node")
    n = len(nodes)
    return [nodes[v % n] for v in range(num_vnodes)]


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
        # n -> vnode -> replica set, for replicas_for.
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

    def load_of(self, owner: str) -> int:
        """How many vnodes have ``owner`` as their primary."""
        return self.assignment.count(owner)

    def load_counts(self) -> dict[str, int]:
        """Owner -> primary-vnode count."""
        counts: dict[str, int] = {}
        for o in self.assignment:
            if o != self.UNASSIGNED:
                counts[o] = counts.get(o, 0) + 1
        return counts

    # -- replica placement ------------------------------------------------
    def replicas_for(self, vnode: int, n: int) -> list[str]:
        """The replica set [r1, r2, ... rn] for ``vnode``: the owners
        :meth:`walk_positions` finds, memoised.

        r1 is the vnode's primary; r2.. are the owners of the following
        vnodes walking clockwise, skipping duplicates — the classic
        successor-list placement of consistent hashing (§III.B, Fig. 3).
        Fewer than ``n`` names are returned when the cluster is smaller
        than the replication factor.  The list is the caller's own.
        """
        by_vnode = self._replica_memo.get(n)
        if by_vnode is None:
            by_vnode = self._replica_memo[n] = {}
        memo = by_vnode.get(vnode)
        if memo is None:
            memo = by_vnode[vnode] = [
                owner for _idx, owner in self.walk_positions(vnode, n)]
        return list(memo)

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

