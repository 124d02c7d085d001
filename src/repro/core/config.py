"""Sedna cluster configuration.

One dataclass gathering every knob the paper exposes or implies:
virtual-node count (fixed for the cluster's lifetime, §III.D), quorum
parameters with the paper's two constraints (R + W > N, W > N/2,
§III.C), ZooKeeper lease adaptation bounds (§III.E), retrieval-thread
count for vnode acquisition (§III.D), and trigger flow-control
intervals (§IV.B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SednaConfig"]


@dataclass
class SednaConfig:
    """Cluster-wide parameters (simulated seconds for all durations)."""

    # Partitioning (§III.B, §III.D).
    num_vnodes: int = 512
    """Virtual-node count; fixed once the cluster starts (§III.D).  The
    paper sizes ~100 vnodes per real node (e.g. 100,000 for 1,000
    servers); tests use smaller rings."""

    placement: str = "modulo"
    """Bootstrap vnode → node placement: ``modulo`` (round-robin
    striping, the historical default) or ``jump`` (jump consistent
    hash — minimal monotonic remapping as the cluster grows; see
    ``core.hashring.build_assignment``)."""

    retrieval_threads: int = 8
    """Concurrent vnode-acquisition workers during join (paper: 8-16)."""

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

    # Request handling.
    request_timeout: float = 0.5
    """Coordinator deadline for one replica RPC."""

    client_timeout: float = 2.0
    """Client deadline for one coordinator request."""

    # ZooKeeper cache lease (§III.E).
    lease_base: float = 1.0
    """Initial mapping-cache sync period."""

    lease_min: float = 0.25
    """Lower bound after repeated halving (busy churn)."""

    lease_max: float = 16.0
    """Upper bound after repeated doubling (quiet cluster)."""

    # Node management (§III.D).
    imbalance_push_interval: float = 5.0
    """How often each node uploads its imbalance row to ZooKeeper."""

    # Triggers (§IV).
    scan_interval: float = 0.05
    """Dirty-column sweep cadence of the scanner threads."""

    scan_threads: int = 4
    """Concurrent scanner workers per node ("according to the data
    size", §IV.C)."""

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
        if self.placement not in ("modulo", "jump"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.dvv_sibling_cap < 1:
            raise ValueError("dvv_sibling_cap must be >= 1")
        if self.persistence not in ("none", "snapshot", "wal"):
            raise ValueError(f"unknown persistence strategy {self.persistence!r}")
