"""Proactive expiry reclamation (memcached's ``lru_crawler``).

MemStore expiry is lazy: an expired item occupies its chunk until
someone touches its key.  Real memcached grew a background *LRU
crawler* precisely because lazily-expired items pin memory that the
slab allocator then steals from live data via eviction.  This module
reproduces it:

* :meth:`MemStore.reclaim_expired` — one bounded sweep (added here as a
  function to keep the engine module protocol-focused);
* :class:`ExpiryCrawler` — the background process pacing sweeps on the
  simulation clock.
"""

from __future__ import annotations

from typing import Generator

from ..net.simulator import Simulator
from .memstore import MemStore

__all__ = ["reclaim_expired", "ExpiryCrawler"]


def reclaim_expired(store: MemStore, max_items: int = 0) -> int:
    """Sweep the table and unlink expired items; returns the count.

    ``max_items`` bounds one sweep (0 = unbounded) so a crawler pass
    cannot monopolize the simulated CPU.
    """
    now = store.clock()
    reclaimed = 0
    for key, item in list(store.table.items()):
        if item.expires_at != 0.0 and item.expires_at <= now:
            store._unlink(item)
            store.expired_reclaims += 1
            reclaimed += 1
            if max_items and reclaimed >= max_items:
                break
    return reclaimed


class ExpiryCrawler:
    """Background sweeper for one MemStore."""

    def __init__(self, sim: Simulator, store: MemStore,
                 interval: float = 5.0, items_per_pass: int = 1000) -> None:
        self.sim = sim
        self.store = store
        self.interval = interval
        self.items_per_pass = items_per_pass
        self.running = False
        self.passes = 0
        self.total_reclaimed = 0

    def start(self) -> None:
        """Spawn the sweep loop."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._loop(), name="expiry-crawler")

    def stop(self) -> None:
        """Stop at the next wakeup."""
        self.running = False

    def _loop(self) -> Generator[object, object, None]:
        interval = self.interval
        while self.running:
            yield self.sim.timeout(interval)
            if not self.running:
                return
            self.passes += 1
            self.total_reclaimed += reclaim_expired(self.store,
                                                    self.items_per_pass)
