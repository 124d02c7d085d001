"""The ZooKeeper surface is what Sedna, the chaos harness and the paper
figures call, and no more.

A new client verb, server RPC or watch kind needs a caller outside the
tests; these pins make adding one a visible decision.
"""

import inspect

from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.zk.client import ZkClient
from repro.zk.server import ZkServer

CLIENT_NAMES = {
    "close", "connect", "connected", "crash", "create", "current_server",
    "delete", "exists", "get", "get_children", "multi", "op_create",
    "op_delete", "op_set", "set",
}

SERVER_METHODS = {
    # Client-facing.
    "zk.close", "zk.connect", "zk.ping", "zk.read", "zk.write",
    # Peer-facing: replication, snapshot pull, election.
    "zk.propose", "zk.sync_req", "zk.vote_req",
}


def test_client_public_names():
    public = {name for name in dir(ZkClient) if not name.startswith("_")}
    assert public == CLIENT_NAMES


def test_server_rpc_methods():
    sim = Simulator()
    server = ZkServer(sim, Network(sim), "zk0", ["zk0"])
    assert set(server.rpc._handlers) == SERVER_METHODS


def test_get_is_the_only_watched_read():
    watched = {verb for verb in ("get", "exists", "get_children")
               if "watch" in inspect.signature(getattr(ZkClient, verb)).parameters}
    assert watched == {"get"}
