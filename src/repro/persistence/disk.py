"""Simulated local disk that survives node crashes.

The paper's persistency strategy (§II table, §III.C) flushes memory
contents periodically or write-ahead-logs each mutation so that "like
the power shortage of the cluster, we can still recover the data from
lost by the periodic data flushing".  A crash wipes a node's *memory*;
its disk contents survive and are re-read on restart.

:class:`SimDisk` models exactly that: a name→bytes-like object map held
*outside* the node object, with simulated write latencies charged by
the persistence strategies (sequential log appends are fast; that is
why WAL beats random-write flushing on real disks).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SimDisk", "DiskTimings"]


class DiskTimings:
    """Latency constants for a 2009-class SATA disk with write cache."""

    APPEND = 120e-6       # sequential log append (cache-hit)
    FSYNC = 2e-3          # forced flush
    SNAPSHOT_PER_KEY = 2e-6  # serialize one row during a snapshot


class SimDisk:
    """Crash-surviving storage for one node.

    Files are append-only logs (lists) or whole-value blobs; the object
    lives in the cluster, not in the node, so ``node.crash()`` cannot
    touch it.
    """

    def __init__(self):
        self.logs: dict[str, list[Any]] = {}
        self.blobs: dict[str, Any] = {}

    def append(self, log_name: str, record: Any) -> None:
        """Append one record to a named log."""
        self.logs.setdefault(log_name, []).append(record)

    def read_log(self, log_name: str) -> list[Any]:
        """All records of a log (empty when absent)."""
        return list(self.logs.get(log_name, ()))

    def truncate_log(self, log_name: str) -> None:
        """Drop a log (after it was folded into a snapshot)."""
        self.logs.pop(log_name, None)

    def write_blob(self, name: str, value: Any) -> None:
        """Atomically replace a whole-file blob (snapshot)."""
        self.blobs[name] = value

    def read_blob(self, name: str, default: Any = None) -> Any:
        """Blob contents or ``default``."""
        return self.blobs.get(name, default)
