"""Failure injection for the simulated cluster.

The paper's failure story (§III.C, §III.D): heartbeat loss makes
ZooKeeper aware of a dead real node; Sedna repairs lazily on the next
read/write.  To test that story we need controllable failures:

* :class:`FailureInjector.crash` / ``restart`` — node crash/recovery.
* :class:`Partition` — cut traffic between two groups of endpoints.
* :class:`MessageLoss` — drop a deterministic fraction of messages.

All randomness is seeded, so failure schedules replay identically.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Optional

from .transport import Network

__all__ = ["Partition", "MessageLoss", "FailureInjector"]


class Partition:
    """A network partition between two endpoint groups.

    Messages crossing the cut (either direction) are dropped while the
    partition is installed.  Use :meth:`heal` to remove it.
    """

    def __init__(self, network: Network, group_a: Iterable[str],
                 group_b: Iterable[str]) -> None:
        self.network = network
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self._active = True
        network.add_filter(self._filter)

    def _filter(self, src: str, dst: str, payload: Any) -> bool:
        if not self._active:
            return True
        crosses = ((src in self.group_a and dst in self.group_b)
                   or (src in self.group_b and dst in self.group_a))
        return not crosses

    @property
    def active(self) -> bool:
        """Whether the cut is currently dropping traffic."""
        return self._active

    def heal(self) -> None:
        """Remove the partition."""
        if self._active:
            self._active = False
            self.network.remove_filter(self._filter)


class MessageLoss:
    """Drop a fraction of messages, deterministically seeded.

    ``scope`` optionally restricts loss to messages touching the given
    endpoints (as source or destination).
    """

    def __init__(self, network: Network, rate: float, seed: int = 0,
                 scope: Optional[Iterable[str]] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self.network = network
        self.rate = rate
        self.scope = frozenset(scope) if scope is not None else None
        self._rng = random.Random(seed)
        self.dropped = 0
        network.add_filter(self._filter)

    def _filter(self, src: str, dst: str, payload: Any) -> bool:
        if self.scope is not None and src not in self.scope and dst not in self.scope:
            return True
        if self._rng.random() < self.rate:
            self.dropped += 1
            return False
        return True

    def stop(self) -> None:
        """Stop dropping messages."""
        self.network.remove_filter(self._filter)


class FailureInjector:
    """Convenience facade bundling crash, partition and loss controls."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.partitions: list[Partition] = []

    def crash(self, name: str) -> None:
        """Crash the endpoint ``name`` (messages to/from it are lost).

        An unknown name raises :class:`KeyError`."""
        self.network.endpoints[name].crash()

    def restart(self, name: str) -> None:
        """Restart a crashed endpoint; an unknown name raises."""
        self.network.endpoints[name].restart()

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> Partition:
        """Install and track a partition between two groups."""
        part = Partition(self.network, group_a, group_b)
        self.partitions.append(part)
        return part

    def heal_all(self) -> None:
        """Heal every partition installed through this injector."""
        for part in self.partitions:
            part.heal()
        self.partitions.clear()

    def message_loss(self, rate: float, seed: int = 0,
                     scope: Optional[Iterable[str]] = None) -> MessageLoss:
        """Install a deterministic message-loss filter."""
        return MessageLoss(self.network, rate, seed, scope)
