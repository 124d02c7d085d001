"""Ketama consistent hashing for the memcached client.

Real "distributed way to write data" memcached clients (§VI.A quotes
the feature) shard with *ketama*: each server contributes many points
on a hash continuum and a key maps to the first point clockwise.  This
gives the baseline the same remap-resistance story Sedna's virtual
nodes give the server side — and lets the tests contrast the two
designs (client-side fixed continuum vs server-side reassignable
vnodes).

Implementation: 64-bit FNV-1a of ``"<server>#<i>"`` for ``i`` in
``points_per_server``, sorted continuum, binary-search lookup.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from ..storage.hashtable import fnv1a

__all__ = ["KetamaRing"]

_MASK = (1 << 64) - 1


def _mix(h: int) -> int:
    """splitmix64 finalizer: FNV of short similar strings clusters, so
    every hash gets an avalanche pass (real ketama uses MD5)."""
    h = (h + 0x9E3779B97F4A7C15) & _MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


class KetamaRing:
    """A weighted consistent-hash continuum over server names."""

    def __init__(self, servers: Iterable[str], points_per_server: int = 100):
        self.points_per_server = points_per_server
        self._points: list[tuple[int, str]] = []
        self._servers: set[str] = set()
        for server in servers:
            self.add_server(server)

    def add_server(self, server: str) -> None:
        """Add a server's points to the continuum."""
        if server in self._servers:
            return
        self._servers.add(server)
        for i in range(self.points_per_server):
            point = _mix(fnv1a(f"{server}#{i}".encode()))
            self._points.append((point, server))
        self._points.sort()

    def node_for(self, key: bytes, offset: int = 0) -> str:
        """The server owning ``key``.

        ``offset`` > 0 walks clockwise to the next *distinct* servers —
        used for the paper's N-copy writes so copies land on different
        machines.
        """
        if not self._points:
            raise ValueError("empty ring")
        h = _mix(fnv1a(key))
        idx = bisect.bisect_right(self._points, (h, chr(0x10FFFF)))
        seen: list[str] = []
        for step in range(len(self._points)):
            point_server = self._points[(idx + step) % len(self._points)][1]
            if point_server not in seen:
                seen.append(point_server)
                if len(seen) > offset:
                    return seen[offset]
        return seen[-1]
