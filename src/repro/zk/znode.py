"""The znode tree — ZooKeeper's replicated data model.

A pure, deterministic state machine: every ensemble member applies the
same committed transactions in zxid order and therefore holds an
identical tree.  Keeping it pure (no network, no clocks) is what lets
the ensemble replicate it and lets tests drive it directly.

Supported znode species, matching ZooKeeper:

* persistent — survives its creator.
* ephemeral — deleted automatically when the owning session dies
  (Sedna real nodes register themselves this way, §III.D).
* sequential — a monotonically increasing 10-digit counter is appended
  to the requested name.

Every znode carries a ``Stat`` (creation/modify transaction ids and
version counter) used for conditional set/delete.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

__all__ = ["Stat", "Znode", "ZnodeTree", "ZkError", "NoNodeError",
           "NodeExistsError", "NotEmptyError", "BadVersionError",
           "validate_path"]


class ZkError(Exception):
    """Base class for ZooKeeper data-model errors."""


class NoNodeError(ZkError):
    """Path does not exist."""


class NodeExistsError(ZkError):
    """Create on an existing path."""


class NotEmptyError(ZkError):
    """Delete on a znode that still has children."""


class BadVersionError(ZkError):
    """Conditional set/delete with a stale version."""


def validate_path(path: str) -> None:
    """Reject malformed paths (must be absolute, no trailing slash)."""
    if not path.startswith("/"):
        raise ZkError(f"path must start with '/': {path!r}")
    if path != "/" and path.endswith("/"):
        raise ZkError(f"path must not end with '/': {path!r}")
    if "//" in path:
        raise ZkError(f"empty path component: {path!r}")


def parent_of(path: str) -> str:
    """Parent path of ``path`` ('/a/b' -> '/a', '/a' -> '/')."""
    idx = path.rfind("/")
    return path[:idx] if idx > 0 else "/"


@dataclass
class Stat:
    """Znode metadata, the subset of ZooKeeper's Stat that matters here."""

    czxid: int = 0           # zxid of the create
    mzxid: int = 0           # zxid of the last set
    version: int = 0         # data version, bumped by each set
    cversion: int = 0        # child-list version
    ephemeral_owner: int = 0  # session id, 0 for persistent nodes
    num_children: int = 0


@dataclass
class Znode:
    """One tree node: payload bytes, stat, children by name."""

    data: bytes = b""
    stat: Stat = field(default_factory=Stat)
    children: dict[str, "Znode"] = field(default_factory=dict)
    seq_counter: int = 0  # for sequential children


class ZnodeTree:
    """The hierarchical namespace, applied-transaction side.

    All mutating methods take the ``zxid`` of the committed transaction
    so stats stay identical across replicas.
    """

    def __init__(self):
        self.root = Znode()
        self._ephemerals: dict[int, set[str]] = {}  # session -> paths
        # Inverses of the mutations made inside an open transaction();
        # None outside one, so single ops pay one ``is not None`` test.
        self._journal: Optional[list[Callable[[], None]]] = None

    # -- transactions ---------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """All-or-nothing scope for a ``multi``.

        While open, ``create`` / ``set`` / ``delete`` journal their
        inverse.  Leaving normally drops the journal; an exception (a
        failing step's :class:`ZkError`, in practice) replays it
        newest-first and propagates, leaving :meth:`dump` and the
        ephemeral index equal to the pre-state — the cost is
        O(mutations made), nothing when the first step fails.  One
        thing is not restored: a child deleted and re-added moves to
        the end of its parent's ``children`` dict.  That order is
        unobservable (``get_children``, ``walk_paths`` and
        ``ephemerals_of`` sort; ``dump()`` equality is a dict compare),
        so restoring it would buy nothing for O(siblings).
        """
        if self._journal is not None:
            raise RuntimeError("ZnodeTree transactions do not nest")
        journal = self._journal = []
        try:
            yield
        except BaseException:
            for undo in reversed(journal):
                undo()
            raise
        finally:
            self._journal = None

    # -- traversal ------------------------------------------------------
    def _walk(self, path: str) -> Optional[Znode]:
        if path == "/":
            return self.root
        node = self.root
        for part in path.strip("/").split("/"):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _require(self, path: str) -> Znode:
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        return node

    # -- operations -----------------------------------------------------
    def create(self, path: str, data: bytes, zxid: int,
               ephemeral_owner: int = 0, sequential: bool = False) -> str:
        """Create a znode; returns the actual path (sequence applied)."""
        validate_path(path)
        if path == "/":
            raise NodeExistsError("/")
        parent_path = parent_of(path)
        parent = self._walk(parent_path)
        if parent is None:
            raise NoNodeError(f"parent of {path}: {parent_path}")
        if parent.stat.ephemeral_owner:
            raise ZkError("ephemeral znodes cannot have children")
        name = path[path.rfind("/") + 1:]
        journal = self._journal
        if sequential:
            name = f"{name}{parent.seq_counter:010d}"
            if journal is not None:
                # Journalled apart from the insertion: the bump outlives
                # a NodeExistsError on the generated name.
                journal.append(partial(setattr, parent, "seq_counter",
                                       parent.seq_counter))
            parent.seq_counter += 1
            path = (parent_path if parent_path != "/" else "") + "/" + name
        if name in parent.children:
            raise NodeExistsError(path)
        node = Znode(data=bytes(data))
        node.stat.czxid = zxid
        node.stat.mzxid = zxid
        node.stat.ephemeral_owner = ephemeral_owner
        if journal is not None:
            cversion = parent.stat.cversion
            # An index entry that was already there (possibly emptied by
            # an earlier delete) stays; one this create makes goes again.
            new_entry = (ephemeral_owner != 0
                         and ephemeral_owner not in self._ephemerals)

            def undo_create() -> None:
                del parent.children[name]
                parent.stat.cversion = cversion
                parent.stat.num_children = len(parent.children)
                if new_entry:
                    del self._ephemerals[ephemeral_owner]
                elif ephemeral_owner:
                    self._ephemerals[ephemeral_owner].discard(path)
            journal.append(undo_create)
        parent.children[name] = node
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        if ephemeral_owner:
            self._ephemerals.setdefault(ephemeral_owner, set()).add(path)
        return path

    def get(self, path: str) -> tuple[bytes, Stat]:
        """(data, stat) of ``path``; raises :class:`NoNodeError`."""
        validate_path(path)
        node = self._require(path)
        return node.data, node.stat

    def set(self, path: str, data: bytes, zxid: int,
            expected_version: int = -1) -> Stat:
        """Replace data; ``expected_version`` -1 skips the version check."""
        validate_path(path)
        node = self._require(path)
        if expected_version != -1 and node.stat.version != expected_version:
            raise BadVersionError(
                f"{path}: have {node.stat.version}, expected {expected_version}")
        data = bytes(data)
        if self._journal is not None:
            stat = node.stat
            before = (node.data, stat.version, stat.mzxid)

            def undo_set() -> None:
                node.data, stat.version, stat.mzxid = before
            self._journal.append(undo_set)
        node.data = data
        node.stat.version += 1
        node.stat.mzxid = zxid
        return node.stat

    def delete(self, path: str, zxid: int, expected_version: int = -1) -> None:
        """Remove a childless znode, optionally version-checked."""
        validate_path(path)
        if path == "/":
            raise ZkError("cannot delete the root")
        node = self._require(path)
        if node.children:
            raise NotEmptyError(path)
        if expected_version != -1 and node.stat.version != expected_version:
            raise BadVersionError(
                f"{path}: have {node.stat.version}, expected {expected_version}")
        parent = self._require(parent_of(path))
        name = path[path.rfind("/") + 1:]
        owned = self._ephemerals.get(node.stat.ephemeral_owner)
        indexed = owned is not None and path in owned
        if self._journal is not None:
            cversion = parent.stat.cversion

            def undo_delete() -> None:
                parent.children[name] = node
                parent.stat.cversion = cversion
                parent.stat.num_children = len(parent.children)
                if indexed:
                    owned.add(path)
            self._journal.append(undo_delete)
        del parent.children[name]
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        if indexed:
            owned.discard(path)

    def exists(self, path: str) -> Optional[Stat]:
        """Stat when present, None otherwise."""
        validate_path(path)
        node = self._walk(path)
        return node.stat if node is not None else None

    def get_children(self, path: str) -> list[str]:
        """Sorted child names; raises :class:`NoNodeError`."""
        validate_path(path)
        return sorted(self._require(path).children)

    def ephemerals_of(self, session_id: int) -> list[str]:
        """Paths owned by ``session_id`` (deepest first, safe to delete)."""
        paths = self._ephemerals.get(session_id, set())
        return sorted(paths, key=lambda p: -p.count("/"))

    def remove_session(self, session_id: int, zxid: int) -> list[str]:
        """Delete every ephemeral of a dead session; returns the paths."""
        removed = []
        for path in self.ephemerals_of(session_id):
            try:
                self.delete(path, zxid)
                removed.append(path)
            except (NoNodeError, NotEmptyError):
                continue
        self._ephemerals.pop(session_id, None)
        return removed

    # -- replication helpers -------------------------------------------------
    def dump(self) -> dict:
        """Serializable full snapshot (leader -> lagging follower sync)."""
        def encode(node: Znode) -> dict:
            return {
                "data": node.data,
                "stat": vars(node.stat).copy(),
                "seq": node.seq_counter,
                "children": {name: encode(child)
                             for name, child in node.children.items()},
            }
        return {"root": encode(self.root),
                "ephemerals": {sid: sorted(paths)
                               for sid, paths in self._ephemerals.items()}}

    @classmethod
    def load(cls, snapshot: dict) -> "ZnodeTree":
        """Rebuild a tree from :meth:`dump` output."""
        def decode(blob: dict) -> Znode:
            node = Znode(data=blob["data"])
            node.stat = Stat(**blob["stat"])
            node.seq_counter = blob["seq"]
            node.children = {name: decode(child)
                             for name, child in blob["children"].items()}
            return node
        tree = cls()
        tree.root = decode(snapshot["root"])
        tree._ephemerals = {sid: set(paths)
                            for sid, paths in snapshot["ephemerals"].items()}
        return tree

    def walk_paths(self) -> Iterator[str]:
        """Every path in the tree, depth-first (diagnostics/tests)."""
        def rec(prefix: str, node: Znode) -> Iterator[str]:
            for name, child in sorted(node.children.items()):
                path = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                yield path
                yield from rec(path, child)
        yield from rec("/", self.root)
