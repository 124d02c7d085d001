"""ZooKeeper substrate: znode tree, sessions, data watches, ZAB-lite ensemble.

Built from scratch so Sedna's node management (§III.D–E) runs on the
same coordination semantics the paper assumed: ephemeral liveness
znodes, ordered quorum writes, cheap local reads on any member.  It
offers what Sedna, the chaos harness and the paper figures use — no
coordination recipes, no client ``sync``, and only one-shot ``get``
watches, which Sedna itself avoids (§III.E) and the ZK-bottleneck
ablation sets to measure the storm.
"""

from .znode import (BadVersionError, NodeExistsError, NoNodeError,
                    NotEmptyError, Stat, ZkError, Znode, ZnodeTree,
                    validate_path)
from .session import Session, SessionTable
from .watches import EVENT_CHANGED, EVENT_DELETED, WatchEvent, WatchRegistry
from .server import ZkConfig, ZkServer
from .client import SessionExpired, ZkClient
from .ensemble import ZkEnsemble

__all__ = [
    "BadVersionError", "NodeExistsError", "NoNodeError", "NotEmptyError",
    "Stat", "ZkError", "Znode", "ZnodeTree", "validate_path",
    "Session", "SessionTable",
    "EVENT_CHANGED", "EVENT_DELETED", "WatchEvent", "WatchRegistry",
    "ZkConfig", "ZkServer",
    "SessionExpired", "ZkClient",
    "ZkEnsemble",
]
