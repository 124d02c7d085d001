"""Classic ZooKeeper coordination recipes on the substrate.

Sedna itself uses ZooKeeper for membership and the vnode mapping, but a
coordination service earns its keep through the standard recipes —
distributed locks, leader election, barriers, queues — and implementing
them validates exactly the substrate features the paper relies on
(ephemeral znodes, sequential names, ordered writes) plus the watches
Sedna declines to use.

All recipe methods are process helpers (``yield from``).  They follow
the canonical Apache recipes:

* **Lock** — ephemeral sequential child; holder = lowest sequence;
  waiters watch their immediate predecessor (no herd effect).
* **LeaderElection** — the same protocol, held indefinitely.
* **Barrier** — members create children and wait until ``size`` are
  present.
* **DistributedQueue** — sequential children; consumers claim the head
  by conditional delete.
"""

from __future__ import annotations

from typing import Optional

from ..net.simulator import AnyOf
from .client import ZkClient
from .znode import NodeExistsError, NoNodeError

__all__ = ["DistributedLock", "LeaderElection", "Barrier",
           "DistributedQueue"]


def _sequence_of(name: str) -> int:
    return int(name[-10:])


class _SequenceProtocol:
    """Shared machinery: own an ephemeral sequential child, wait until
    it is the lowest (watching the predecessor)."""

    def __init__(self, zk: ZkClient, path: str, prefix: str):
        self.zk = zk
        self.path = path
        self.prefix = prefix
        self.my_path: Optional[str] = None

    def _enroll(self):
        yield from self.zk.ensure_path(self.path)
        self.my_path = yield from self.zk.create(
            f"{self.path}/{self.prefix}", b"", ephemeral=True,
            sequential=True)
        return self.my_path

    def _my_rank(self):
        """(rank, predecessor_name) among current children."""
        children = yield from self.zk.get_children(self.path)
        mine = self.my_path.rsplit("/", 1)[1]
        ordered = sorted(children, key=_sequence_of)
        rank = ordered.index(mine)
        predecessor = ordered[rank - 1] if rank > 0 else None
        return rank, predecessor

    def _wait_until_first(self, timeout: Optional[float] = None):
        deadline = (self.zk.sim.now + timeout) if timeout is not None \
            else None
        while True:
            rank, predecessor = yield from self._my_rank()
            if rank == 0:
                return True
            # Watch the immediate predecessor only (herd avoidance).
            fired = self.zk.sim.event()

            def on_event(_event, fired=fired):
                if not fired.triggered:
                    fired.succeed(None)

            stat = yield from self.zk.exists(
                f"{self.path}/{predecessor}", watch=on_event)
            if stat is None:
                continue  # predecessor vanished between list and watch
            waiters = [fired]
            if deadline is not None:
                remaining = deadline - self.zk.sim.now
                if remaining <= 0:
                    yield from self._withdraw()
                    return False
                waiters.append(self.zk.sim.timeout(remaining))
            else:
                # Re-check periodically in case the watch was lost to a
                # server failover.
                waiters.append(self.zk.sim.timeout(2.0))
            yield AnyOf(self.zk.sim, waiters)
            for loser in waiters:
                if not loser.triggered:
                    loser.defuse()
            if deadline is not None and self.zk.sim.now >= deadline \
                    and not fired.triggered:
                yield from self._withdraw()
                return False

    def _withdraw(self):
        if self.my_path is not None:
            try:
                yield from self.zk.delete(self.my_path)
            except NoNodeError:
                pass
            self.my_path = None


class DistributedLock(_SequenceProtocol):
    """A fair, herd-free distributed mutex.

    ::

        lock = DistributedLock(zk, "/locks/resource")
        acquired = yield from lock.acquire(timeout=5.0)
        ...
        yield from lock.release()
    """

    def __init__(self, zk: ZkClient, path: str):
        super().__init__(zk, path, "lock-")

    @property
    def held(self) -> bool:
        """Whether we currently believe we hold the lock."""
        return self.my_path is not None and getattr(self, "_held", False)

    def acquire(self, timeout: Optional[float] = None):
        """Take the lock; returns False on timeout."""
        if getattr(self, "_held", False):
            raise RuntimeError("lock already held by this handle")
        yield from self._enroll()
        got = yield from self._wait_until_first(timeout)
        self._held = bool(got)
        return got

    def release(self):
        """Release the lock (deletes our znode, waking the successor)."""
        if not getattr(self, "_held", False):
            raise RuntimeError("releasing a lock we do not hold")
        self._held = False
        yield from self._withdraw()


class LeaderElection(_SequenceProtocol):
    """Leader election: lowest sequence leads until it resigns or dies.

    ``volunteer`` blocks until this participant becomes the leader;
    ``resign`` abdicates (ephemeral znode removal also abdicates
    implicitly when the session dies).
    """

    def __init__(self, zk: ZkClient, path: str):
        super().__init__(zk, path, "candidate-")
        self.leading = False

    def volunteer(self, timeout: Optional[float] = None):
        """Join the election and wait for leadership."""
        yield from self._enroll()
        got = yield from self._wait_until_first(timeout)
        self.leading = bool(got)
        return got

    def resign(self):
        """Give up leadership (or candidacy)."""
        self.leading = False
        yield from self._withdraw()


class Barrier:
    """A ``size``-party entry barrier."""

    def __init__(self, zk: ZkClient, path: str, size: int):
        self.zk = zk
        self.path = path
        self.size = size
        self.my_path: Optional[str] = None

    def enter(self, timeout: Optional[float] = None):
        """Announce arrival and wait for all parties; False on timeout."""
        yield from self.zk.ensure_path(self.path)
        self.my_path = yield from self.zk.create(
            f"{self.path}/member-", b"", ephemeral=True, sequential=True)
        deadline = (self.zk.sim.now + timeout) if timeout is not None \
            else None
        while True:
            children = yield from self.zk.get_children(self.path)
            if len(children) >= self.size:
                return True
            if deadline is not None and self.zk.sim.now >= deadline:
                return False
            yield self.zk.sim.timeout(0.05)

    def leave(self):
        """Withdraw from the barrier."""
        if self.my_path is not None:
            try:
                yield from self.zk.delete(self.my_path)
            except NoNodeError:
                pass
            self.my_path = None


class DistributedQueue:
    """A FIFO queue: producers append, consumers claim by delete."""

    def __init__(self, zk: ZkClient, path: str):
        self.zk = zk
        self.path = path
        self._ready = False

    def _ensure(self):
        if not self._ready:
            yield from self.zk.ensure_path(self.path)
            self._ready = True

    def offer(self, payload: bytes):
        """Enqueue one item."""
        yield from self._ensure()
        path = yield from self.zk.create(f"{self.path}/item-", payload,
                                         sequential=True)
        return path

    def take(self, timeout: Optional[float] = None):
        """Dequeue the head item (bytes); None on timeout/empty."""
        yield from self._ensure()
        deadline = (self.zk.sim.now + timeout) if timeout is not None \
            else None
        while True:
            children = yield from self.zk.get_children(self.path)
            for name in sorted(children, key=_sequence_of):
                full = f"{self.path}/{name}"
                try:
                    data, _stat = yield from self.zk.get(full)
                    yield from self.zk.delete(full)
                except NoNodeError:
                    continue  # another consumer claimed it first
                return data
            if deadline is not None and self.zk.sim.now >= deadline:
                return None
            if timeout is not None and timeout == 0:
                return None
            yield self.zk.sim.timeout(0.05)

    def size(self):
        """Current queue length."""
        yield from self._ensure()
        children = yield from self.zk.get_children(self.path)
        return len(children)
