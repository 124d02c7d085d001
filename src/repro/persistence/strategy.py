"""Persistence strategies: none / periodic snapshot / write-ahead log.

§II's technique table: "Periodically flush or write-ahead logs —
different speed and availability according users' needs".  The
trade-off reproduced here (and measured by
``benchmarks/test_ablation_persistence.py``):

* ``none`` — fastest writes, every un-replicated byte dies with the
  cluster.
* ``snapshot`` — no per-write cost; loses at most one flush interval.
* ``wal`` — every write pays a simulated log append; loses nothing
  acknowledged.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.simulator import Simulator
from ..storage.versioned import ValueElement, VersionedStore
from .disk import DiskTimings, SimDisk

__all__ = ["PersistenceStrategy", "NoPersistence", "SnapshotPersistence",
           "WalPersistence", "make_strategy"]


class PersistenceStrategy:
    """Interface each strategy implements.

    ``write_delay`` is charged synchronously on the replica write path;
    ``on_write`` records the mutation; ``recover`` rebuilds the store's
    rows after a restart.  ``logs_writes`` is False for a strategy whose
    ``on_write`` records nothing, so writers can skip building the
    element.
    """

    name = "none"
    logs_writes = False

    def write_delay(self) -> float:
        """Extra seconds a replica write must wait before acking."""
        return 0.0

    def on_write(self, key: str, element: ValueElement) -> None:
        """Record one applied write."""

    def start(self, sim: Simulator, store_rows: Callable[[], dict]) -> None:
        """Begin any background flushing."""

    def stop(self) -> None:
        """Stop background work (node crash)."""

    def recover(self) -> dict[str, list[ValueElement]]:
        """Rows recoverable from disk after a crash."""
        return {}


class NoPersistence(PersistenceStrategy):
    """Memory only — replication is the only durability (paper default:
    'the possibility of lost all the three replicas ... can be
    ignored')."""

    name = "none"


class SnapshotPersistence(PersistenceStrategy):
    """Periodic flush of the whole store to disk (§III.C 'periodic data
    flushing')."""

    name = "snapshot"

    def __init__(self, disk: SimDisk, node_name: str, interval: float):
        self.disk = disk
        self.blob = f"{node_name}.snapshot"
        self.interval = interval
        self._running = False
        self._rows: Optional[Callable[[], dict]] = None
        self._sim: Optional[Simulator] = None

    def start(self, sim: Simulator, store_rows: Callable[[], dict]) -> None:
        self._sim = sim
        self._rows = store_rows
        self._running = True
        sim.process(self._flusher(), name=f"{self.blob}-flusher")

    def stop(self) -> None:
        self._running = False

    def _flusher(self):
        interval = self.interval
        while self._running:
            yield self._sim.timeout(interval)
            if not self._running:
                return
            self.flush_now()
            # Charge serialization time proportional to the data size.
            rows = self.disk.read_blob(self.blob) or {}
            yield self._sim.timeout(DiskTimings.SNAPSHOT_PER_KEY * len(rows)
                                    + DiskTimings.FSYNC)

    def flush_now(self) -> None:
        """Take a snapshot immediately (also used at graceful shutdown)."""
        rows = {key: list(elements) for key, elements in self._rows().items()}
        self.disk.write_blob(self.blob, rows)

    def recover(self) -> dict[str, list[ValueElement]]:
        return dict(self.disk.read_blob(self.blob) or {})


class WalPersistence(PersistenceStrategy):
    """Write-ahead log: every mutation appended before the ack."""

    name = "wal"
    logs_writes = True

    def __init__(self, disk: SimDisk, node_name: str,
                 compact_every: int = 10_000):
        self.disk = disk
        self.log = f"{node_name}.wal"
        self.blob = f"{node_name}.walbase"
        self.compact_every = compact_every
        self._since_compact = 0
        self._rows: Optional[Callable[[], dict]] = None

    def write_delay(self) -> float:
        return DiskTimings.APPEND

    def on_write(self, key: str, element: ValueElement) -> None:
        self.disk.append(self.log, (key, element))
        self._since_compact += 1
        if self._rows is not None and self._since_compact >= self.compact_every:
            self.compact()

    def start(self, sim: Simulator, store_rows: Callable[[], dict]) -> None:
        self._rows = store_rows

    def compact(self) -> None:
        """Fold the log into a base snapshot and truncate it."""
        rows = {key: list(elements) for key, elements in self._rows().items()}
        self.disk.write_blob(self.blob, rows)
        self.disk.truncate_log(self.log)
        self._since_compact = 0

    def recover(self) -> dict[str, list[ValueElement]]:
        rows: dict[str, list[ValueElement]] = {
            key: list(elements)
            for key, elements in (self.disk.read_blob(self.blob) or {}).items()}
        # Replay the tail, newest-per-source wins.
        scratch = VersionedStore()
        for key, elements in rows.items():
            scratch.merge_elements(key, elements)
        for key, element in self.disk.read_log(self.log):
            scratch.merge_elements(key, [element])
        return {key: list(row.elements) for key, row in scratch.rows.items()}


def make_strategy(kind: str, disk: SimDisk, node_name: str,
                  snapshot_interval: float) -> PersistenceStrategy:
    """Factory selecting the configured strategy."""
    if kind == "none":
        return NoPersistence()
    if kind == "snapshot":
        return SnapshotPersistence(disk, node_name, snapshot_interval)
    if kind == "wal":
        return WalPersistence(disk, node_name)
    raise ValueError(f"unknown persistence strategy {kind!r}")
