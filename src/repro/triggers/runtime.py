"""The trigger runtime: Dirty-column scanners + job dispatch (§IV.C–D).

"Once Sedna started, it will start several threads according to the
data size to scan the Dirty and Monitored fields sequentially.
Whenever Dirty flag was found, that data piece will be sent to
corresponding filters according to the monitor fields of that data
piece."

Mechanics here:

* every real node runs :data:`SCAN_THREADS` scanner processes over its own
  :class:`~repro.storage.versioned.VersionedStore`, whose Dirty column
  :meth:`TriggerRuntime.start` turns on (a node nobody scans keeps none);
* a change fires only on the vnode's *primary* replica, so one logical
  write activates a trigger exactly once despite N physical copies;
* matched events pass the job's :class:`~repro.triggers.api.Filter`
  (with old and new pair), then the flow-control window, then the
  :class:`~repro.triggers.api.Action`;
* the action's :class:`~repro.triggers.api.Result` writes flush
  through a :class:`~repro.core.client.SednaClient` pinned to the
  scanning node — output writes are replicated data like any other,
  which is what lets triggers chain into pipelines (Fig. 4 left).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.client import SednaClient
from ..core.cluster import SednaCluster
from ..core.node import SednaNode
from ..core.types import FullKey
from ..storage.versioned import Row, ValueElement
from .api import Job
from .flow import FlowControl

__all__ = ["TriggerRuntime"]

#: Concurrent scanner workers per node ("according to the data size",
#: §IV.C).
SCAN_THREADS = 4


class TriggerRuntime:
    """Cluster-wide trigger coordinator.

    One instance per cluster::

        runtime = TriggerRuntime(cluster)
        runtime.start()
        job = runtime.submit(
            Job("indexer").with_action(IndexAction())
                          .monitor(DataHooks(dataset="web", table="pages"))
                          .output_to(TriggerOutput("web", "index")))
        job.schedule(timeout=60.0)
    """

    def __init__(self, cluster: SednaCluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.flow = FlowControl(self.sim, self.config.trigger_interval)
        self.jobs: dict[str, Job] = {}
        # Per-job memory of the last value seen per key (for the
        # old/new filter arguments, §IV.D).
        self._last_seen: dict[tuple[str, str], ValueElement] = {}
        self._clients: dict[str, SednaClient] = {}
        self._started = False
        # Stats.
        self.events_scanned = 0
        self.activations = 0
        self.action_errors = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the Dirty column and spawn the scanner processes on
        every node.  A node keeps no Dirty column until then, so writes
        made before ``start()`` are never scanned: start the runtime
        before the first write it should see."""
        if self._started:
            return
        self._started = True
        for name, node in self.cluster.nodes.items():
            node.keep_dirty()
            self._clients[name] = SednaClient(
                self.sim, self.cluster.network, f"{name}-triggers",
                [name], self.config, pinned=name)
            for tid in range(SCAN_THREADS):
                self.sim.process(self._scanner(node, tid),
                                 name=f"{name}-scan{tid}")

    def submit(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Register a job; optionally schedule it immediately."""
        job.validate()
        job.runtime = self
        self.jobs[job.job_id] = job
        if timeout is not None:
            job.schedule(timeout)
        self._register_monitors(job)
        return job

    def _schedule_job(self, job: Job, timeout: Optional[float]) -> None:
        if timeout is not None:
            job.deadline = self.sim.now + timeout

    def cancel(self, job: Job) -> None:
        """Remove a job and its flow-control state."""
        self.jobs.pop(job.job_id, None)
        self.flow.forget_job(job.job_id)

    def _register_monitors(self, job: Job) -> None:
        """Write the job into the Monitors column of exact-key hooks.

        Table/dataset hooks are prefix rules kept in the runtime (one
        cannot pre-annotate rows that do not exist yet)."""
        hooks = job.input.hooks
        if hooks.granularity != "key":
            return
        encoded = FullKey(dataset=hooks.dataset, table=hooks.table,
                          key=hooks.key).encoded()
        for node in self.cluster.nodes.values():
            node.store.register_monitor(encoded, job.job_id)

    # -- scanning -------------------------------------------------------------
    def _scanner(self, node: SednaNode, tid: int):
        batch = 64
        interval = self.config.scan_interval
        while True:
            yield self.sim.timeout(interval)
            if not self._started:
                return
            if not (node.running and node.rpc.endpoint.up):
                continue
            for key, row in node.store.drain_dirty(limit=batch):
                self._on_change(node, key, row)

    def _is_primary(self, node: SednaNode, encoded_key: str) -> bool:
        vnode = node.cache.ring.vnode_of(encoded_key)
        replicas = node.cache.ring.replicas_for(vnode, 1)
        return bool(replicas) and replicas[0] == node.name

    def _on_change(self, node: SednaNode, encoded_key: str, row: Row) -> None:
        """Route one dirty row through monitors, filters, flow control."""
        if not self._is_primary(node, encoded_key):
            return  # replicas stay silent; the primary fires the trigger
        self.events_scanned += 1
        fk = FullKey.decode(encoded_key)
        latest = row.latest()
        if latest is None:
            return
        elements = list(row.elements)
        for job in list(self.jobs.values()):
            if job.expired(self.sim.now):
                continue
            explicit = job.job_id in row.monitors
            if not (explicit or job.input.hooks.matches(fk)):
                continue
            token = (job.job_id, encoded_key)
            old = self._last_seen.get(token)
            self._last_seen[token] = latest
            try:
                passed = job.input.filter.check(
                    fk if old is not None else None,
                    old.value if old is not None else None,
                    fk, latest.value)
            except Exception:
                job.errors += 1
                continue
            if not passed:
                job.filtered += 1
                continue
            payload = (node.name, fk, elements)
            self.flow.offer(job, encoded_key, payload,
                            lambda key, p, job=job: self._activate(job, p))

    # -- activation --------------------------------------------------------
    def _activate(self, job: Job, payload: Any) -> None:
        if job.expired(self.sim.now):
            return
        node_name, fk, elements = payload
        self.sim.process(self._run_action(job, node_name, fk, elements),
                         name=f"{job.name}-act")

    def _run_action(self, job: Job, node_name: str, fk: FullKey,
                    elements: list[ValueElement]):
        from .api import Result  # local import to avoid a cycle
        result = Result(job.output)
        ordered = sorted(elements, key=lambda e: -e.timestamp)
        values = iter([e.value for e in ordered])
        try:
            job.action.action(fk, values, result)
        except Exception:
            job.errors += 1
            self.action_errors += 1
            return
        job.activations += 1
        self.activations += 1
        client = self._clients.get(node_name)
        if client is None or not client.rpc.endpoint.up:
            # Scanning node died mid-flight: use any live node's client.
            for candidate in self._clients.values():
                if candidate.rpc.endpoint.up:
                    client = candidate
                    break
            else:
                return
        for dataset, table, key, value, mode in result.writes:
            if mode == "all":
                yield from client.write_all(key, value, table=table,
                                            dataset=dataset)
            else:
                yield from client.write_latest(key, value, table=table,
                                               dataset=dataset)

    # -- introspection --------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate trigger statistics (used by the Fig. 4 bench)."""
        return {
            "jobs": {job.name: {"activations": job.activations,
                                "filtered": job.filtered,
                                "suppressed": job.suppressed,
                                "errors": job.errors}
                     for job in self.jobs.values()},
            "events_scanned": self.events_scanned,
            "activations": self.activations,
            "coalesced": self.flow.coalesced,
            "action_errors": self.action_errors,
        }
