"""Ensemble assembly: boot N ZooKeeper members on the simulated network.

The paper uses a "ZooKeeper sub-cluster" — a small subset of the data
center (3 of the 9 experiment servers) dedicated to coordination
(§III.A).  :class:`ZkEnsemble` wires those members together, seeds the
initial leader, and offers crash/restart handles for failover tests.
"""

from __future__ import annotations

from typing import Optional

from ..net.simulator import Simulator
from ..net.transport import Network
from .client import ZkClient
from .server import ZkConfig, ZkServer

__all__ = ["ZkEnsemble"]

#: Endpoint name prefix of the members.
NAME_PREFIX = "zk"


class ZkEnsemble:
    """A running ensemble of :class:`~repro.zk.server.ZkServer`.

    Parameters
    ----------
    sim, network:
        Simulation substrate.
    size:
        Member count (odd; the paper's deployment uses 3).  Members are
        named ``zk0 .. zk{n-1}``.
    config:
        Shared timing configuration.
    """

    def __init__(self, sim: Simulator, network: Network, size: int = 3,
                 config: Optional[ZkConfig] = None, durable: bool = False):
        if size < 1:
            raise ValueError("ensemble needs at least one member")
        self.sim = sim
        self.network = network
        self.config = config if config is not None else ZkConfig()
        self.names = [f"{NAME_PREFIX}{i}" for i in range(size)]
        self.disks = None
        if durable:
            from ..persistence.disk import SimDisk
            self.disks = {name: SimDisk() for name in self.names}
        self.servers = [
            ZkServer(sim, network, name, self.names, self.config,
                     disk=self.disks[name] if self.disks else None)
            for name in self.names]

    def start(self) -> None:
        """Boot all members; member 0 seeds leadership."""
        for i, server in enumerate(self.servers):
            server.start(as_leader=(i == 0))
        if len(self.servers) > 1:
            leader = self.servers[0]
            for follower in self.servers[1:]:
                follower._adopt_leader(leader.name, leader.epoch)

    def leader(self) -> Optional[ZkServer]:
        """The current leader among running members, if any."""
        for server in self.servers:
            if server.running and server.is_leader:
                return server
        return None

    def server(self, name: str) -> ZkServer:
        """Member by endpoint name."""
        for server in self.servers:
            if server.name == name:
                return server
        raise KeyError(name)

    def crash(self, name: str) -> None:
        """Crash one member."""
        self.server(name).stop()

    def restart(self, name: str) -> None:
        """Restart a crashed member (it rejoins and syncs)."""
        self.server(name).restart()

    def crash_all(self) -> None:
        """Power loss: every member down at once."""
        for server in self.servers:
            server.stop()

    def cold_restart_all(self) -> None:
        """Restart the whole ensemble from its transaction logs.

        The member that recovered the highest zxid seeds leadership so
        no committed transaction is lost to a stale leader.
        """
        best = max(self.servers,
                   key=lambda s: (s.recover_from_disk(), s.name))
        for server in self.servers:
            server.cold_restart(as_leader=(server is best))
        for server in self.servers:
            if server is not best:
                server._adopt_leader(best.name, best.epoch)

    def client(self, name: str) -> ZkClient:
        """A new client wired to this ensemble."""
        return ZkClient(self.sim, self.network, name, self.names, self.config)

    def stats(self) -> dict:
        """Aggregated ensemble counters (reads, writes, watch events)."""
        return {
            "reads_served": sum(s.reads_served for s in self.servers),
            "writes_led": sum(s.writes_led for s in self.servers),
            "watch_events_sent": sum(s.watch_events_sent for s in self.servers),
            "leader": (self.leader().name if self.leader() else None),
        }
