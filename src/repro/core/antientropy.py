"""Anti-entropy: background replica convergence.

The paper guarantees *eventual* consistency through quorum overlap and
read repair (§III.C); replicas that diverge on keys nobody reads stay
divergent.  Dynamo-family systems close that gap with an anti-entropy
protocol, and Sedna's related-work section cites exactly that lineage —
so the reproduction ships one as the optional background half of
"Replica Management" (one of the §III.A pluggable cluster-status
modules).

:class:`AntiEntropyManager` runs on a node and, each pass, picks a few
vnodes this node replicates and reconciles them with the other replica
holders:

1. exchange per-key version digests (cheap: (source, timestamp) pairs);
2. *pull* keys where the peer has versions we lack;
3. *push* keys where we have versions the peer lacks.

Merging is the newest-per-source rule of
:meth:`~repro.storage.versioned.VersionedStore.merge_elements`, so
reconciliation is idempotent and order-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .node import SednaNode

__all__ = ["AntiEntropyManager"]


def digest_diff(mine: dict, theirs: dict) -> tuple[list[str], list[str]]:
    """Keys to pull (peer newer/extra) and to push (we are newer/extra).

    A key needs sync in a direction when that side has a (source, ts)
    pair the other side does not dominate.

    Ordering audit note: the strict per-source ``ts >`` comparisons are
    tie-safe *without* the (timestamp, source) tie-break used
    elsewhere, because both sides of each comparison carry the same
    source — and one client's timestamps never collide (the client
    clock is strictly increasing per source), so equal (source, ts)
    pairs denote the same write.
    """
    pull: list[str] = []
    push: list[str] = []
    for key in sorted(set(mine) | set(theirs)):
        my_versions = {src: ts for src, ts in mine.get(key, [])}
        their_versions = {src: ts for src, ts in theirs.get(key, [])}
        if any(ts > my_versions.get(src, float("-inf"))
               for src, ts in their_versions.items()):
            pull.append(key)
        if any(ts > their_versions.get(src, float("-inf"))
               for src, ts in my_versions.items()):
            push.append(key)
    return sorted(pull), sorted(push)


def dvv_digest_diff(mine: dict, theirs: dict) -> tuple[list[str], list[str]]:
    """Causal-row keys to pull and to push.

    Digest entries are ``[sorted vv pairs, sorted sibling dots]``
    (:meth:`~repro.core.node.SednaNode.vnode_dvv_digest`).  The DVV
    merge is idempotent and commutative, so whenever the entries differ
    at all the row is exchanged in both directions — one reconcile
    round leaves both replicas with the joined row and equal digests.
    """
    pull: list[str] = []
    push: list[str] = []
    for key in sorted(set(mine) | set(theirs)):
        if mine.get(key) == theirs.get(key):
            continue
        if key in theirs:
            pull.append(key)
        if key in mine:
            push.append(key)
    return pull, push


def dvv_covered(mine: dict, theirs: dict) -> list[str]:
    """Causal-row keys of ``mine`` whose events ``theirs`` has not seen.

    Coverage is version-vector dominance: every counter in my entry's
    vv must be <= the peer's.  A sibling I hold that the peer's vv
    covers but its sibling list lacks was *knowingly* superseded there,
    so vv dominance alone is the safe hand-off criterion (GC, migration
    cutover verify).
    """
    missing: list[str] = []
    for key in sorted(mine):
        my_vv = dict(tuple(pair) for pair in mine[key][0])
        their_entry = theirs.get(key)
        their_vv = (dict(tuple(pair) for pair in their_entry[0])
                    if their_entry else {})
        if any(cnt > their_vv.get(rep, 0) for rep, cnt in my_vv.items()):
            missing.append(key)
    return missing


class AntiEntropyManager:
    """Periodic digest-based reconciliation hosted on one node.

    Parameters
    ----------
    node:
        Host node.
    interval:
        Seconds between passes.
    vnodes_per_pass:
        How many of this node's vnodes to reconcile per pass (bounded
        so the background traffic stays negligible next to foreground
        requests).
    """

    def __init__(self, node: SednaNode, interval: float = 10.0,
                 vnodes_per_pass: int = 4):
        self.node = node
        self.sim = node.sim
        self.interval = interval
        self.vnodes_per_pass = vnodes_per_pass
        self.running = False
        self._cursor = 0
        # Stats.
        self.passes = 0
        self.keys_pulled = 0
        self.keys_pushed = 0

    def start(self) -> None:
        """Spawn the reconciliation loop."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._loop(), name=f"{self.node.name}-antientropy")

    def stop(self) -> None:
        """Stop at the next wakeup."""
        self.running = False

    def _my_vnodes(self) -> list[int]:
        """Vnodes whose replica set includes this node."""
        ring = self.node.cache.ring
        n = self.node.config.replicas
        return [v for v in range(ring.num_vnodes)
                if self.node.name in ring.replicas_for(v, n)]

    def _loop(self):
        interval = self.interval
        while self.running and self.node.running:
            yield self.sim.timeout(interval)
            if not (self.running and self.node.running):
                return
            yield from self.run_pass()

    def run_pass(self):
        """Reconcile the next ``vnodes_per_pass`` vnodes; returns the
        number of keys transferred either way."""
        self.passes += 1
        owned = self._my_vnodes()
        if not owned:
            return 0
        moved = 0
        for offset in range(min(self.vnodes_per_pass, len(owned))):
            vnode_id = owned[(self._cursor + offset) % len(owned)]
            moved += yield from self._reconcile(vnode_id)
        self._cursor = (self._cursor + self.vnodes_per_pass) % max(1, len(owned))
        return moved

    def _reconcile(self, vnode_id: int):
        pulled, pushed, _failed = yield from self.node.reconcile_vnode(
            vnode_id)
        self.keys_pulled += pulled
        self.keys_pushed += pushed
        return pulled + pushed
