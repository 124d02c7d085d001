"""SednaCluster — one-call assembly of the whole system.

Builds the simulated network, the ZooKeeper sub-cluster and the Sedna
real nodes, reproducing the paper's deployment shape (§VI.A: 9 servers,
3 of them ZooKeeper members, 1 GbE, sub-ms RTT).

Two bootstrap modes:

* ``assign`` (default) — the cluster pre-assigns virtual nodes
  round-robin in ZooKeeper before the nodes join.  Fast and balanced;
  what a production operator would do for a fixed fleet.
* ``join`` — nodes race to claim vnodes through the §III.D protocol
  (version-checked sets, overload stealing).  Slower but exercises the
  real membership path; used by the membership tests and the vnode
  ablation bench.
"""

from __future__ import annotations

from typing import Optional

from ..net.latency import LanGigabit, LatencyModel
from ..net.failure import FailureInjector
from ..net.simulator import AllOf, Simulator
from ..net.transport import Network
from ..obs import OFF
from ..persistence.disk import SimDisk
from ..zk.ensemble import ZkEnsemble
from ..zk.server import ZkConfig
from .cache import create_namespace
from .hashring import build_assignment
from .client import SednaClient, SmartSednaClient
from .config import SednaConfig
from .node import SednaNode

__all__ = ["SednaCluster"]


class SednaCluster:
    """A complete simulated Sedna deployment.

    Parameters
    ----------
    n_nodes:
        Sedna real-node count (paper experiments: 9, minus ZK members'
        storage budget — we model ZK members as separate endpoints on
        the same simulated boxes).
    zk_size:
        ZooKeeper sub-cluster size (paper deployment: 3).
    config / zk_config:
        Behaviour knobs; defaults reproduce the paper setup.
    latency:
        Network model; defaults to the calibrated gigabit LAN.
    seed:
        Seed for the latency jitter stream.
    """

    def __init__(self, n_nodes: int = 9, zk_size: int = 3,
                 config: Optional[SednaConfig] = None,
                 zk_config: Optional[ZkConfig] = None,
                 latency: Optional[LatencyModel] = None,
                 sim: Optional[Simulator] = None,
                 seed: int = 42,
                 zk_durable: bool = False,
                 obs=OFF):
        self.sim = sim if sim is not None else Simulator()
        self.network = Network(
            self.sim,
            latency=latency if latency is not None else LanGigabit(seed=seed))
        self.config = config if config is not None else SednaConfig()
        self.zk_config = zk_config if zk_config is not None else ZkConfig()
        # Observability bundle: attach the span tracer to the kernel
        # and hand it to the network, where every RPC endpoint and tap
        # reads it — the one wiring point.  Unobserved (``OFF``) there
        # is no tracer.
        self.obs = obs
        obs.attach(self.sim)
        self.network.tracer = obs.tracer
        self.ensemble = ZkEnsemble(self.sim, self.network, size=zk_size,
                                   config=self.zk_config,
                                   durable=zk_durable)
        self.disks: dict[str, SimDisk] = {}
        self.node_names = [f"node{i}" for i in range(n_nodes)]
        self.nodes: dict[str, SednaNode] = {}
        for name in self.node_names:
            disk = SimDisk()
            self.disks[name] = disk
            self.nodes[name] = SednaNode(
                self.sim, self.network, name, self.ensemble.names,
                self.config, self.zk_config, disk=disk, obs=obs)
        self.failures = FailureInjector(self.network)
        self._clients = 0
        self.started = False

    # -- bootstrap -----------------------------------------------------------
    def start(self, bootstrap: str = "assign") -> None:
        """Boot ZooKeeper and join every node; blocks (runs the sim)."""
        if bootstrap not in ("assign", "join"):
            raise ValueError("bootstrap must be 'assign' or 'join'")
        self.ensemble.start()
        if bootstrap == "assign":
            boot = self.sim.process(self._preassign(), name="bootstrap")
            self.sim.run(until=boot)
        joins = [self.sim.process(node.join(), name=f"{name}-join")
                 for name, node in self.nodes.items()]
        self.sim.run(until=AllOf(self.sim, joins))
        self.started = True

    def _preassign(self):
        """Create the /sedna namespace with a balanced assignment."""
        zk = self.ensemble.client("bootstrap")
        yield from zk.connect()
        yield from create_namespace(
            zk, self.config.num_vnodes,
            build_assignment(self.config.num_vnodes, self.node_names))
        yield from zk.close()

    # -- handles ---------------------------------------------------------------
    def client(self, name: Optional[str] = None,
               pinned: Optional[str] = None) -> SednaClient:
        """A new client; optionally pinned to one coordinator node."""
        self._clients += 1
        return SednaClient(self.sim, self.network,
                           name or f"client{self._clients}",
                           self.node_names, self.config, pinned=pinned,
                           obs=self.obs)

    def smart_client(self, name: Optional[str] = None) -> SmartSednaClient:
        """A zero-hop client that coordinates quorums itself (§VII).

        Remember to ``yield from client.connect()`` before the first
        operation."""
        self._clients += 1
        return SmartSednaClient(self.sim, self.network,
                                name or f"smart{self._clients}",
                                self.ensemble.names, self.config,
                                self.zk_config, obs=self.obs)

    def node(self, name: str) -> SednaNode:
        """Node handle by name."""
        return self.nodes[name]

    def crash_node(self, name: str) -> None:
        """Crash one Sedna real node (memory lost, disk kept)."""
        self.nodes[name].crash()

    def restart_node(self, name: str) -> None:
        """Restart a crashed node; blocks until it rejoined."""
        proc = self.sim.process(self.nodes[name].restart(),
                                name=f"{name}-restart")
        self.sim.run(until=proc)

    # -- background maintenance -----------------------------------------------
    def enable_maintenance(self, anti_entropy: bool = True,
                           gc: bool = True, rebalance: bool = True,
                           active_detection: bool = True) -> dict:
        """Start the production background services on every node.

        * anti-entropy — replica convergence without reads;
        * garbage collection — reclaim orphaned replicas after moves;
        * rebalancing — one data-balance manager (hosted on node0);
        * active detection — probe peers, repair dead nodes' data even
          with zero traffic.

        Returns the service handles (each has ``stop()``); call
        :meth:`disable_maintenance` to stop them all.
        """
        from .antientropy import AntiEntropyManager
        from .detector import ActiveDetector
        from .gc import GarbageCollector
        from .rebalance import Rebalancer
        services: dict[str, list] = {"anti_entropy": [], "gc": [],
                                     "rebalance": [], "detector": []}
        for node in self.nodes.values():
            if anti_entropy:
                manager = AntiEntropyManager(node)
                manager.start()
                services["anti_entropy"].append(manager)
            if gc:
                collector = GarbageCollector(node)
                collector.start()
                services["gc"].append(collector)
            if active_detection:
                detector = ActiveDetector(node)
                detector.start()
                services["detector"].append(detector)
        if rebalance:
            balancer = Rebalancer(self.nodes[self.node_names[0]])
            balancer.start()
            services["rebalance"].append(balancer)
        self._maintenance = services
        return services

    def disable_maintenance(self) -> None:
        """Stop every service started by :meth:`enable_maintenance`."""
        for group in getattr(self, "_maintenance", {}).values():
            for service in group:
                service.stop()
        self._maintenance = {}

    # -- driving ----------------------------------------------------------------
    def run(self, script, name: str = "script"):
        """Run a generator to completion on the simulator; returns its
        result.  The standard way tests and benches drive the cluster."""
        proc = self.sim.process(script, name=name)
        return self.sim.run(until=proc)

    def run_all(self, scripts) -> list:
        """Run several generators concurrently; returns their results."""
        procs = [self.sim.process(s, name=f"script{i}")
                 for i, s in enumerate(scripts)]
        self.sim.run(until=AllOf(self.sim, procs))
        return [p.value for p in procs]

    def settle(self, duration: float) -> None:
        """Advance simulated time (lets leases, repairs, scans run)."""
        self.sim.run(until=self.sim.now + duration)

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Cluster-wide counter aggregate."""
        node_stats = [node.stats() for node in self.nodes.values()]
        return {
            "nodes": node_stats,
            "zk": self.ensemble.stats(),
            "network": {"delivered": self.network.delivered,
                        "dropped": self.network.dropped},
            "total_keys": sum(s["keys"] for s in node_stats),
        }

    def total_replicas_of(self, encoded_key: str) -> int:
        """How many live nodes hold some version of ``encoded_key``."""
        count = 0
        for node in self.nodes.values():
            if node.running and encoded_key in node.store:
                count += 1
        return count
