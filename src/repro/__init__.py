"""repro — a full reproduction of *Sedna: A Memory Based Key-Value
Storage System for Realtime Processing in Cloud* (CLUSTER Workshops
2012).

Public API tour::

    from repro import SednaCluster, SednaConfig, TriggerRuntime

    cluster = SednaCluster(n_nodes=9, zk_size=3)
    cluster.start()
    client = cluster.client()

    def script():
        yield from client.write_latest("greeting", "hello")
        return (yield from client.read_latest("greeting"))

    print(cluster.run(script()))   # -> "hello"

Sub-packages:

* :mod:`repro.core` — the paper's contribution: partitioning,
  quorum replication, node management, the write/read APIs.
* :mod:`repro.triggers` — the realtime trigger programming model.
* :mod:`repro.zk` — ZooKeeper substrate (znodes, sessions, ensemble).
* :mod:`repro.storage` — memcached-class local engine + versioned rows.
* :mod:`repro.net` — deterministic DES network substrate.
* :mod:`repro.persistence` — WAL / snapshot strategies.
* :mod:`repro.baselines` — the memcached comparison system.
* :mod:`repro.workloads` — benchmark workload generators.
* :mod:`repro.bench` — the paper suite: ``PAPER`` maps each figure,
  table and ablation to its runner (``benchmarks/test_paper.py``).
"""

from .core import (FullKey, LatencySeries, MappingCache, Ring, SednaClient,
                   SednaCluster, SednaConfig, SednaNode, summarize)
from .triggers import (Action, DataHooks, Filter, Job, Result, TriggerInput,
                       TriggerOutput, TriggerRuntime)

__version__ = "1.0.0"

__all__ = [
    "FullKey", "LatencySeries", "MappingCache", "Ring", "SednaClient",
    "SednaCluster", "SednaConfig", "SednaNode", "summarize",
    "Action", "DataHooks", "Filter", "Job", "Result", "TriggerInput",
    "TriggerOutput", "TriggerRuntime",
    "__version__",
]
