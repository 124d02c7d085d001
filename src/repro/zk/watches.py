"""One-shot data watch registry, per ensemble member.

ZooKeeper watches are registered at the server a client is connected to
and fire *once* when that server applies a transaction that sets or
deletes the watched znode.  Sedna deliberately avoids them for the vnode
mapping ("any change will result in an uncontrollable network storm",
§III.E); they exist only so the ZK-bottleneck ablation can measure the
storm the paper worries about, and that ablation sets ``get`` watches.
So only data watches exist: no child watches, and no ``exists`` watch
that fires on creation.
"""

from __future__ import annotations

__all__ = ["WatchEvent", "WatchRegistry", "EVENT_DELETED", "EVENT_CHANGED"]

EVENT_DELETED = "deleted"
EVENT_CHANGED = "changed"

# The event a committed transaction of each kind fires on its path.
_TXN_EVENTS = {"set": EVENT_CHANGED, "delete": EVENT_DELETED}


class WatchEvent(dict):
    """A fired watch: ``{"type": ..., "path": ...}`` (dict for the wire)."""

    def __init__(self, event_type: str, path: str):
        super().__init__(type=event_type, path=path)


class WatchRegistry:
    """Tracks data watches per (path, client)."""

    def __init__(self):
        # path -> set of client endpoint names
        self.data_watches: dict[str, set[str]] = {}

    def add_data(self, path: str, client: str) -> None:
        """Watch data changes / deletion of ``path``."""
        self.data_watches.setdefault(path, set()).add(client)

    def fire_data(self, path: str, event_type: str) -> list[tuple[str, WatchEvent]]:
        """Consume data watches on ``path``; returns (client, event) pairs."""
        return [(client, WatchEvent(event_type, path))
                for client in sorted(self.data_watches.pop(path, ()))]

    def events_for_txn(self, op_type: str,
                       path: str) -> list[tuple[str, WatchEvent]]:
        """All watch firings a committed transaction causes."""
        event_type = _TXN_EVENTS.get(op_type)
        if event_type is None:
            return []
        return self.fire_data(path, event_type)
