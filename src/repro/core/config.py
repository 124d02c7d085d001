"""Sedna cluster configuration.

One dataclass gathering the values a deployment sets: virtual-node
count (fixed for the cluster's lifetime, §III.D), quorum parameters
with the paper's two constraints (R + W > N, W > N/2, §III.C), the
initial ZooKeeper lease (§III.E), trigger flow-control intervals
(§IV.B) and the persistence strategy.  A value the paper implies but no
deployment varies is a named constant at the code that reads it (the
lease bounds in ``core.cache``, the retrieval-thread count in
``core.node``, the scanner count in ``triggers.runtime``, the client
deadline in ``core.client``); :data:`REQUEST_TIMEOUT` lives here
because four modules read it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SednaConfig", "REQUEST_TIMEOUT"]

#: Deadline for one node-to-node RPC: a coordinator's replica call, a
#: recovery or rebalance step, a GC digest check (simulated seconds).
REQUEST_TIMEOUT = 0.5


@dataclass
class SednaConfig:
    """Cluster-wide parameters (simulated seconds for all durations)."""

    # Partitioning (§III.B, §III.D).
    num_vnodes: int = 512
    """Virtual-node count; fixed once the cluster starts (§III.D).  The
    paper sizes ~100 vnodes per real node (e.g. 100,000 for 1,000
    servers); tests use smaller rings."""

    # Replication (§III.C).
    replicas: int = 3
    """N — copies per datum ("at least other two copies")."""

    read_quorum: int = 2
    """R — matching replies needed before a read returns."""

    write_quorum: int = 2
    """W — acks needed before a write returns."""

    dvv_sibling_cap: int = 16
    """Causal mode (DVV): max concurrent siblings kept per key.  The
    oldest siblings beyond the cap are dropped; their dots stay covered
    by the row's version vector, so capping is merge-safe."""

    # ZooKeeper cache lease (§III.E).
    lease_base: float = 1.0
    """Initial mapping-cache sync period."""

    # Node management (§III.D).
    imbalance_push_interval: float = 5.0
    """How often each node uploads its imbalance row to ZooKeeper."""

    # Triggers (§IV).
    scan_interval: float = 0.05
    """Dirty-column sweep cadence of the scanner threads."""

    trigger_interval: float = 0.2
    """Default per-application trigger interval — the flow-control
    suppression window of §IV.B.  Value changes inside the window are
    coalesced; only the freshest survives."""

    # Persistence (§II.B table: periodic flush or write-ahead log).
    persistence: str = "none"
    """One of ``none`` / ``snapshot`` / ``wal``."""

    snapshot_interval: float = 30.0
    """Periodic-flush cadence when ``persistence == 'snapshot'``."""

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not (self.read_quorum + self.write_quorum > self.replicas):
            raise ValueError("quorum constraint violated: need R + W > N")
        if not (self.write_quorum > self.replicas / 2):
            raise ValueError("quorum constraint violated: need W > N/2")
        if self.num_vnodes < 1:
            raise ValueError("num_vnodes must be >= 1")
        if self.dvv_sibling_cap < 1:
            raise ValueError("dvv_sibling_cap must be >= 1")
        if self.persistence not in ("none", "snapshot", "wal"):
            raise ValueError(f"unknown persistence strategy {self.persistence!r}")
        # A zero lease polls ZooKeeper in a tight loop and a negative
        # one kills the lease loop; a zero push or scan interval spins.
        for name in ("lease_base", "imbalance_push_interval",
                     "scan_interval", "snapshot_interval"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.trigger_interval >= 0:
            raise ValueError("trigger_interval must be >= 0")
