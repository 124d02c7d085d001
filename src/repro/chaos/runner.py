"""The chaos runner: seeded workloads + fault schedule + invariants.

One :class:`ChaosRunner` run is fully determined by its
:class:`~repro.chaos.spec.RunSpec`:

1. build a :class:`~repro.core.cluster.SednaCluster` (seeded latency);
2. install the history's message tally as a pass-through network
   filter (:meth:`~repro.chaos.history.History.observe`);
3. start background maintenance (anti-entropy, GC, active detection —
   rebalancing stays off by default so the assignment only moves
   through the §III.C/D recovery paths under test; ``rebalance=True``
   hosts a load-aware rebalancer so live chunked migrations race the
   fault schedule, checked by the migration invariant);
4. run seeded smart-client workloads while the seeded fault schedule
   injects crashes, restarts, partitions and message loss;
5. quiesce: heal everything, restart every crashed node, let
   ZooKeeper sessions expire and recoveries finish, run a GC pass
   (ex-replicas push rows for vnodes that rotated away from them)
   and full anti-entropy passes, force-refresh every mapping cache;
6. snapshot the final state against the assignment freshly loaded from
   ZooKeeper and run the five invariant checkers.

Replays are byte-identical: the same seed yields the same schedule,
the same operation history and the same sha256 history digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.antientropy import AntiEntropyManager
from ..core.cache import MappingCache
from ..core.cluster import SednaCluster
from ..core.gc import GarbageCollector
from ..core.types import FullKey
from ..net.rpc import RpcRejected, RpcTimeout
from ..storage.versioned import wire_dvv_row
from ..net.simulator import AllOf, Simulator
from ..obs import OFF, Observability
from ..zk.server import RPC_TIMEOUT, ZkConfig
from .history import History
from .invariants import Anomaly, FinalState, causal_outcomes, check_all
from .schedule import Schedule, ScheduleGenerator
from .spec import RunSpec

__all__ = ["ChaosRunner", "ChaosReport"]


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    spec: RunSpec   # the identity that ran: what the caller passed
    schedule: Schedule
    history: History
    anomalies: list[Anomaly]
    state: FinalState
    end_time: float
    crashes: int = 0
    restarts: int = 0
    op_counts: dict = field(default_factory=dict)
    # Metrics snapshot of the observed run (obs=True); empty dict when
    # obs was off, like the three pipeline fields below.
    obs_snapshot: dict = field(default_factory=dict)
    # Rebalancer ledger rows (spec.rebalance); empty when it was off.
    migrations: list = field(default_factory=list)
    # SLO alert transitions and the per-spec status table over the last
    # 60 s (the ring), then the flight-recorder dump: taken on every
    # observed run, its anomalies are the run's hard ones (none when
    # clean), each with its violating traces.
    slo_alerts: list = field(default_factory=list)
    slo_status: dict = field(default_factory=dict)
    flight_dump: dict = field(default_factory=dict)

    @property
    def scenario(self) -> str:
        """Name of the workload-matrix scenario the run drove instead
        of the default chaos mix ("" otherwise)."""
        return self.spec.scenario.name if self.spec.scenario else ""

    @property
    def ok(self) -> bool:
        """True when every invariant held (expected anomalies — e.g.
        durability losses after a whole ack set crashed — don't fail
        the run; see ``repro.chaos.invariants``)."""
        return not [a for a in self.anomalies if not a.expected]

    @property
    def digest(self) -> str:
        """The history's sha256 — the replay-identity fingerprint."""
        return self.history.digest()

    def describe(self) -> str:
        """Human-readable summary (bench output, failure triage)."""
        lines = [
            f"chaos seed={self.spec.seed} profile={self.spec.profile} "
            + (f"tie_seed={self.spec.tie_seed} "
               if self.spec.tie_seed is not None else "")
            + (f"scenario={self.scenario} " if self.scenario else "")
            + f"ops={len(self.history)} digest={self.digest[:16]}…",
            f"  faults: {len(self.schedule.events)} events "
            f"({self.crashes} crashes, {self.restarts} mid-run restarts)",
            f"  ops: " + ", ".join(f"{k}={v}" for k, v
                                   in sorted(self.op_counts.items())),
        ]
        hard = [a for a in self.anomalies if not a.expected]
        expected = [a for a in self.anomalies if a.expected]
        if hard:
            lines.append(f"  ANOMALIES ({len(hard)}):")
            lines.extend(f"    {a}" for a in hard)
        else:
            lines.append("  all invariants held")
        if expected:
            lines.append(f"  expected anomalies ({len(expected)}):")
            lines.extend(f"    {a}" for a in expected)
        if self.migrations:
            done = sum(1 for m in self.migrations if m["state"] == "done")
            aborted = sum(1 for m in self.migrations
                          if m["state"] == "aborted")
            lines.append(f"  migrations: {len(self.migrations)} driven "
                         f"({done} committed, {aborted} aborted)")
        if self.history.causal_keys():
            fates = causal_outcomes(self.history, self.state)
            lines.append(
                f"  causal: {fates['acked']} acked "
                f"({fates['preserved']} preserved, "
                f"{fates['superseded']} superseded, "
                f"{fates['lost']} lost)")
        if self.slo_status:
            missed = sorted(name for name, entry in self.slo_status.items()
                            if not entry["met"])
            lines.append(f"  slo: {len(self.slo_status)} specs, "
                         f"{len(self.slo_alerts)} alert transitions"
                         + (f", missed: {', '.join(missed)}" if missed
                            else ", all met"))
        if self.flight_dump:
            lines.append(
                f"  flight recorder: dumped "
                f"{len(self.flight_dump.get('recent_spans', ()))} spans, "
                f"{len(self.flight_dump.get('samples', ()))} samples, "
                f"{len(self.flight_dump.get('packets', ()))} packets "
                f"({len(self.flight_dump.get('violating_traces', {}))} "
                f"violating keys cross-referenced)")
        return "\n".join(lines)


class ChaosRunner:
    """One deterministic chaos experiment; see the module docstring.

    What runs is one :class:`~repro.chaos.spec.RunSpec` — pass it, or
    its fields as keywords (``ChaosRunner(seed=3, duration=6.0)``).
    ``obs`` only watches — the run, its schedule and its digest are the
    spec's whether it is on or not — and runs the whole diagnosis
    pipeline (:class:`~repro.obs.Observability`: metrics, spans,
    samples, SLOs, flight dump).  ``spec.tie_seed`` runs the spec's
    other same-instant interleavings, observed or not.
    """

    LW_PREFIX = "lw"     # write_latest keys, shared across clients
    VA_PREFIX = "va"     # write_all keys (per-source value lists)
    DEL_PREFIX = "del"   # delete-churned keys (tainted for invariants)
    CW_PREFIX = "cw"     # causal-mode keys (causal="dvv"/"lww" only)
    # Key-pool sizes, one per prefix above.
    N_LW_KEYS, N_VA_KEYS, N_DEL_KEYS, N_CW_KEYS = 6, 4, 3, 4
    # Cluster shape next to RunSpec.n_nodes (and its 16-vnode ring);
    # small, to keep a run around a second of wall clock.
    ZK_SIZE = 3
    N_CLIENTS = 3
    # Cap on simultaneously unavailable nodes; 2 keeps every
    # quorum-overlap argument per-vnode sound for N=3.
    MAX_DOWN = 2
    # ZooKeeper session timeout; churn faults dwell past it so the
    # crashed node's session really expires.
    ZK_SESSION_TIMEOUT = 1.0

    def __init__(self, spec: Optional[RunSpec] = None, *,
                 obs: bool = False, **fields):
        if spec is None:
            spec = RunSpec(**fields)
        elif fields:
            raise TypeError("pass a RunSpec or its fields, not both: "
                            + ", ".join(sorted(fields)))
        self.spec = spec
        self.seed = spec.seed
        self.config = spec.sedna_config()
        self.zk_config = ZkConfig(session_timeout=self.ZK_SESSION_TIMEOUT)
        # Per-(client, key) causal contexts, refreshed by causal reads.
        self._contexts: dict[tuple[str, str], list] = {}
        self.rebalancer = None
        # The live bundle (OFF unobserved): span timelines, series and
        # SLO reports stay readable through it after run() returns.
        self.obs_bundle = Observability() if obs else OFF
        self.history = History()
        self.cluster: Optional[SednaCluster] = None
        self.clients: list = []
        self._restart_procs: list = []
        self._active_loss: list = []
        self._crashes = 0
        self._restarts = 0
        self._op_counts: dict[str, int] = {}

    # -- lifecycle --------------------------------------------------------
    def run(self) -> ChaosReport:
        """Execute the whole experiment; returns the report."""
        self.cluster = SednaCluster(
            n_nodes=self.spec.n_nodes, zk_size=self.ZK_SIZE, seed=self.seed,
            config=self.config, zk_config=self.zk_config,
            sim=Simulator(tie_seed=self.spec.tie_seed), obs=self.obs_bundle)
        sim = self.cluster.sim
        self.cluster.start()
        if self.obs_bundle is not OFF:
            # The sampler joins the event queue, the flight recorder
            # hooks the tracer and taps the network.
            self.obs_bundle.start(sim, self.cluster.network)
        self.cluster.network.add_filter(self.history.observe)
        # Production maintenance, minus the rebalancer: the assignment
        # should only move through the recovery paths under test.
        self.cluster.enable_maintenance(anti_entropy=False, rebalance=False)
        self._ae = [AntiEntropyManager(self.cluster.nodes[name],
                                       interval=1.5, vnodes_per_pass=4)
                    for name in sorted(self.cluster.nodes)]
        for manager in self._ae:
            manager.start()

        if self.spec.rebalance:
            # Local import: plain chaos runs keep the §III.C/D-only
            # assignment-motion guarantee (module docstring, step 3).
            from ..core.rebalance import Rebalancer
            opts = {"interval": 1.0, "pass_byte_budget": 64 * 1024,
                    "chunk_bytes": 4 * 1024,
                    **(self.spec.rebalance_opts or {})}
            self.rebalancer = Rebalancer(self.cluster.nodes["node0"],
                                         **opts)
            self.rebalancer.start()

        self.clients = [self.cluster.smart_client(f"chaos{i}")
                        for i in range(self.N_CLIENTS)]
        self.cluster.run_all([c.connect() for c in self.clients])

        t0 = sim.now
        schedule = ScheduleGenerator(
            self.cluster.node_names, self.seed, duration=self.spec.duration,
            profile=self.spec.profile, max_down=self.MAX_DOWN,
            session_expiry=self.zk_config.session_timeout).generate()

        procs = [sim.process(self._workload(client, i, t0),
                             name=f"chaos-load-{i}")
                 for i, client in enumerate(self.clients)]
        procs.append(sim.process(self._execute(schedule, t0),
                                 name="chaos-faults"))
        sim.run(until=AllOf(sim, procs))

        self.cluster.run(self._quiesce(), name="chaos-quiesce")
        state = self._collect()
        crash_times = tuple((ev.time, target)
                            for ev in schedule.events
                            if ev.kind == "crash"
                            for target in ev.targets)
        migrations = (self.rebalancer.ledger()
                      if self.rebalancer is not None else [])
        anomalies = check_all(self.history, state, crashes=crash_times,
                              migrations=tuple(migrations))
        self.cluster.network.remove_filter(self.history.observe)
        report = ChaosReport(spec=self.spec, schedule=schedule,
                             history=self.history, anomalies=anomalies,
                             state=state, end_time=sim.now,
                             crashes=self._crashes, restarts=self._restarts,
                             op_counts=dict(sorted(self._op_counts.items())),
                             migrations=migrations)
        if self.obs_bundle is not OFF:
            bundle = self.obs_bundle
            report.obs_snapshot = bundle.snapshot()
            report.slo_alerts = [a.export() for a in bundle.slo.alerts]
            report.slo_status = bundle.slo.status()
            report.flight_dump = bundle.flight.dump(
                anomalies=[a for a in anomalies if not a.expected],
                time=sim.now)
        return report

    # -- fault execution --------------------------------------------------
    def _execute(self, schedule: Schedule, t0: float):
        """Replay the schedule against the live cluster."""
        cluster = self.cluster
        sim = cluster.sim
        partitions: dict[int, object] = {}
        losses: dict[int, object] = {}
        for ev in schedule.events:
            target_time = t0 + ev.time
            if target_time > sim.now:
                yield sim.timeout(target_time - sim.now)
            if ev.kind == "crash":
                node = cluster.nodes[ev.targets[0]]
                if node.running:
                    node.crash()
                    self._crashes += 1
            elif ev.kind == "restart":
                node = cluster.nodes[ev.targets[0]]
                if not node.running:
                    # cluster.restart_node() calls sim.run and cannot be
                    # used from inside a process; spawn the node's own
                    # restart generator instead.
                    self._restart_procs.append(sim.process(
                        self._supervised_restart(node),
                        name=f"{ev.targets[0]}-chaos-up"))
                    self._restarts += 1
            elif ev.kind == "partition":
                island = [n for t in ev.targets for n in (t, f"{t}-zk")]
                mainland = [n for n in cluster.network.endpoints
                            if n not in island]
                partitions[ev.tag] = cluster.failures.partition(island,
                                                                mainland)
            elif ev.kind == "heal":
                part = partitions.pop(ev.tag, None)
                if part is not None:
                    part.heal()
            elif ev.kind == "loss_start":
                loss = cluster.failures.message_loss(
                    ev.rate, seed=self.seed * 1000 + ev.tag)
                losses[ev.tag] = loss
                self._active_loss.append(loss)
            elif ev.kind == "loss_stop":
                loss = losses.pop(ev.tag, None)
                if loss is not None:
                    loss.stop()
                    self._active_loss.remove(loss)

    # -- workload ---------------------------------------------------------
    def _workload(self, client, index: int, t0: float):
        """One client's seeded op stream until the fault window closes."""
        if self.spec.scenario is not None:
            yield from self._scenario_workload(client, index, t0)
            return
        rng = random.Random(f"{self.seed}/client/{index}")
        counter = 0
        end = t0 + self.spec.duration
        while self.sim.now < end:
            yield self.sim.timeout(rng.uniform(0.04, 0.18))
            if self.sim.now >= end:
                return
            counter += 1
            value = f"{client.name}:{counter}"
            roll = rng.random()
            if self.spec.causal is not None and roll < 0.30:
                # Causal slice.  Key and action are drawn here with the
                # same rng stream in both modes, so a dvv and an lww run
                # of one seed hit identical keys with identical intents
                # — the BENCH_dvv comparison is apples to apples.  With
                # causal off this branch never draws, leaving default
                # runs byte-identical to pre-causal history digests.
                yield from self._op_causal(client, rng, value)
            elif roll < 0.24:
                key = f"{self.LW_PREFIX}-{rng.randrange(self.N_LW_KEYS)}"
                yield from self._op_write(client, "write_latest", key, value)
            elif roll < 0.34:
                key = f"{self.VA_PREFIX}-{rng.randrange(self.N_VA_KEYS)}"
                yield from self._op_write(client, "write_all", key, value)
            elif roll < 0.42:
                if rng.random() < 0.5:
                    keys = self._sample_keys(rng, self.LW_PREFIX,
                                             self.N_LW_KEYS)
                    yield from self._op_multi_write(client, "latest", keys,
                                                    value)
                else:
                    keys = self._sample_keys(rng, self.VA_PREFIX,
                                             self.N_VA_KEYS)
                    yield from self._op_multi_write(client, "all", keys,
                                                    value)
            elif roll < 0.62:
                key = f"{self.LW_PREFIX}-{rng.randrange(self.N_LW_KEYS)}"
                yield from self._op_read_latest(client, key)
            elif roll < 0.72:
                key = f"{self.VA_PREFIX}-{rng.randrange(self.N_VA_KEYS)}"
                yield from self._op_read_all(client, key)
            elif roll < 0.82:
                keys = self._sample_keys(rng, self.LW_PREFIX,
                                         self.N_LW_KEYS)
                yield from self._op_multi_read(client, keys)
            elif roll < 0.90:
                key = f"{self.DEL_PREFIX}-{rng.randrange(self.N_DEL_KEYS)}"
                yield from self._op_write(client, "write_latest", key, value)
            elif roll < 0.96:
                key = f"{self.DEL_PREFIX}-{rng.randrange(self.N_DEL_KEYS)}"
                yield from self._op_delete(client, key)
            else:
                keys = self._sample_keys(rng, self.DEL_PREFIX,
                                         self.N_DEL_KEYS)
                yield from self._op_multi_delete(client, keys)

    def _scenario_workload(self, client, index: int, t0: float):
        """One client's stream of a workload-matrix scenario.

        The stream draws every key and op choice itself; this wrapper
        only owns the sim-clock pacing and routes each intent through
        the same op helpers (and history records) the default mix uses.
        """
        # Local import: plain chaos runs stay import-free of scenarios.
        from ..workloads.scenarios import ScenarioStream
        stream = ScenarioStream(self.spec.scenario, self.seed, index,
                                t0=t0)
        counter = 0
        end = t0 + self.spec.duration
        while self.sim.now < end:
            yield self.sim.timeout(stream.gap())
            if self.sim.now >= end:
                return
            counter += 1
            intent = stream.next(self.sim.now)
            yield from self._apply_intent(client, intent,
                                          f"{client.name}:{counter}")

    def _apply_intent(self, client, intent, value: str):
        """Dispatch one scenario op intent to the matching op helper."""
        kind = intent.kind
        if kind in ("write_latest", "write_all"):
            yield from self._op_write(client, kind, intent.keys[0], value)
        elif kind == "read_latest":
            yield from self._op_read_latest(client, intent.keys[0])
        elif kind == "read_all":
            yield from self._op_read_all(client, intent.keys[0])
        elif kind == "multi_read":
            yield from self._op_multi_read(client, list(intent.keys))
        else:  # pragma: no cover - OpIntent validates kinds
            raise ValueError(f"unhandled intent kind {kind!r}")

    def _sample_keys(self, rng: random.Random, prefix: str,
                     pool: int) -> list[str]:
        """2-4 distinct keys of one pool, deterministically sampled."""
        count = rng.randint(2, min(4, pool))
        return [f"{prefix}-{i}" for i in sorted(rng.sample(range(pool),
                                                           count))]

    @property
    def sim(self):
        return self.cluster.sim

    def _call(self, client, name: str, method: str, args: Any,
              records: list, read: bool = False):
        """Drive one request through ``client``'s own route.

        ``records`` are the op's open history records, one per key.
        The harness owns the history and the root span (tagged with the
        encoded keys, so a history anomaly maps straight to its span
        timeline); the client does its own latency/failure accounting.
        Returns the coordinator's reply; on failure every record is
        completed as ``failure`` and None comes back.
        """
        self._op_counts[name] = self._op_counts.get(name, 0) + 1
        tracer = self.obs_bundle.tracer
        span = None
        if tracer is not None:
            span = tracer.start_trace(f"chaos.{name}", node=client.name)
            span.tags["key"] = ",".join(r.key for r in records)
        try:
            reply = yield from client._request(method, args)
        except (RpcTimeout, RpcRejected):
            reply = None
        client._record(read, records[0].invoked, reply is None)
        if reply is None:
            for record in records:
                self.history.complete(record, self.sim.now, "failure")
        if tracer is not None:
            tags = {"status": "failure"} if reply is None else {
                "status": reply.get("status", "ok"),
                **{k: reply[k] for k in ("found", "ts") if k in reply}}
            tracer.finish(span, **tags)
        return reply

    def _op_write(self, client, kind: str, key: str, value):
        encoded = FullKey.of(key).encoded()
        args = {"key": encoded, "value": value, "ts": client._timestamp(),
                "source": client.name,
                "mode": "latest" if kind == "write_latest" else "all"}
        record = self.history.begin(client.name, kind, encoded,
                                    self.sim.now, value=value, ts=args["ts"])
        reply = yield from self._call(client, kind, "sedna.write", args,
                                      [record])
        if reply is not None:
            self.history.complete(record, self.sim.now, reply["status"],
                                  acks=reply.get("acks", ()))

    def _complete_read(self, record, row: dict) -> None:
        """Close a ``read_latest`` record from a (per-key) read reply."""
        if row.get("found"):
            self.history.complete(record, self.sim.now, "found",
                                  responders=row["responders"],
                                  result_ts=row["ts"],
                                  result_source=row["source"],
                                  result_value=row["value"])
        else:
            self.history.complete(record, self.sim.now, "miss",
                                  responders=row.get("responders", ()))

    def _op_read_latest(self, client, key: str):
        encoded = FullKey.of(key).encoded()
        record = self.history.begin(client.name, "read_latest", encoded,
                                    self.sim.now)
        reply = yield from self._call(
            client, "read_latest", "sedna.read",
            {"key": encoded, "mode": "latest"}, [record], read=True)
        if reply is not None:
            self._complete_read(record, reply)

    def _op_read_all(self, client, key: str):
        encoded = FullKey.of(key).encoded()
        record = self.history.begin(client.name, "read_all", encoded,
                                    self.sim.now)
        reply = yield from self._call(
            client, "read_all", "sedna.read",
            {"key": encoded, "mode": "all"}, [record], read=True)
        if reply is not None:
            self.history.complete(
                record, self.sim.now, "ok",
                responders=reply.get("responders", ()),
                result_elements=tuple((s, t, v)
                                      for s, t, v in reply["elements"]))

    def _op_causal(self, client, rng, value: str):
        """One causal-slice op: read, context write or blind write.

        In ``dvv`` mode these are real causal ops; in ``lww`` mode the
        *same* key/action draws run as plain write_latest/read_latest,
        so the two modes expose the identical concurrency pattern to
        the two conflict-resolution disciplines.
        """
        key = f"{self.CW_PREFIX}-{rng.randrange(self.N_CW_KEYS)}"
        action = rng.random()
        encoded = FullKey.of(key).encoded()
        if self.spec.causal == "lww":
            if action < 0.25:
                yield from self._op_read_latest(client, key)
            else:
                yield from self._op_write(client, "write_latest", key, value)
            return
        if action < 0.25:
            yield from self._op_causal_read(client, encoded)
        else:
            # Context write when this client holds a context from an
            # earlier read; blind (concurrent-by-construction) write on
            # the rest — and always when no context is held yet.
            ctx = self._contexts.get((client.name, encoded))
            if action >= 0.65 or ctx is None:
                ctx = []
            yield from self._op_causal_write(client, encoded, value, ctx)

    def _op_causal_write(self, client, encoded: str, value, ctx):
        args = {"key": encoded, "value": value, "ts": client._timestamp(),
                "source": client.name, "ctx": list(ctx)}
        record = self.history.begin(client.name, "write_causal", encoded,
                                    self.sim.now, value=value, ts=args["ts"],
                                    ctx=tuple(tuple(p) for p in ctx))
        reply = yield from self._call(client, "write_causal", "sedna.cwrite",
                                      args, [record])
        if reply is not None:
            self.history.complete(record, self.sim.now, reply["status"],
                                  acks=reply.get("acks", ()),
                                  dot=tuple(reply["dot"]))

    def _op_causal_read(self, client, encoded: str):
        record = self.history.begin(client.name, "read_causal", encoded,
                                    self.sim.now)
        reply = yield from self._call(client, "read_causal", "sedna.cread",
                                      {"key": encoded}, [record], read=True)
        if reply is None:
            return
        context = tuple(tuple(p) for p in reply.get("context", ()))
        self._contexts[(client.name, encoded)] = list(context)
        self.history.complete(
            record, self.sim.now, "found" if reply.get("found") else "miss",
            responders=reply.get("responders", ()),
            result_elements=tuple((s, t, v)
                                  for s, t, v in reply.get("siblings", ())),
            ctx=context)

    def _op_delete(self, client, key: str):
        encoded = FullKey.of(key).encoded()
        record = self.history.begin(client.name, "delete", encoded,
                                    self.sim.now)
        reply = yield from self._call(client, "delete", "sedna.delete",
                                      {"key": encoded}, [record])
        if reply is not None:
            self.history.complete(record, self.sim.now, reply["status"],
                                  acks=reply.get("acks", ()))

    def _op_multi_write(self, client, mode: str, keys: list[str],
                        value_base: str):
        """One batched write; history gets one per-key record of the
        matching single-op kind, so every invariant (durability,
        freshness, replication, value lists) covers batch writes with
        zero checker changes."""
        kind = "write_latest" if mode == "latest" else "write_all"
        entries = []
        records = []
        for i, key in enumerate(keys):
            entry = {"key": FullKey.of(key).encoded(),
                     "value": f"{value_base}.{i}", "ts": client._timestamp(),
                     "source": client.name, "mode": mode}
            entries.append(entry)
            records.append(self.history.begin(
                client.name, kind, entry["key"], self.sim.now,
                value=entry["value"], ts=entry["ts"]))
        reply = yield from self._call(client, "multi_write", "sedna.mwrite",
                                      {"entries": entries}, records)
        if reply is not None:
            self._complete_acks(records, reply["results"])

    def _complete_acks(self, records: list, results: dict) -> None:
        """Close per-key write/delete records from a batch reply."""
        for record in records:
            row = results.get(record.key, {})
            self.history.complete(record, self.sim.now,
                                  row.get("status", "failure"),
                                  acks=row.get("acks", ()))

    def _op_multi_read(self, client, keys: list[str]):
        """One batched read; per-key ``read_latest`` history records."""
        encoded_keys = [FullKey.of(key).encoded() for key in keys]
        records = [self.history.begin(client.name, "read_latest", encoded,
                                      self.sim.now)
                   for encoded in encoded_keys]
        reply = yield from self._call(
            client, "multi_read", "sedna.mread",
            {"keys": encoded_keys, "mode": "latest"}, records, read=True)
        if reply is None:
            return
        for record in records:
            row = reply["results"].get(record.key) or {}
            if row.get("status") != "ok":
                self.history.complete(record, self.sim.now, "failure",
                                      responders=row.get("responders", ()))
            else:
                self._complete_read(record, row)

    def _op_multi_delete(self, client, keys: list[str]):
        """One batched delete; per-key ``delete`` records taint keys."""
        encoded_keys = [FullKey.of(key).encoded() for key in keys]
        records = [self.history.begin(client.name, "delete", encoded,
                                      self.sim.now)
                   for encoded in encoded_keys]
        reply = yield from self._call(client, "multi_delete", "sedna.mdelete",
                                      {"keys": encoded_keys}, records)
        if reply is not None:
            self._complete_acks(records, reply["results"])

    def _supervised_restart(self, node):
        """``node.restart()`` hardened against open fault windows.

        A rejoin can time out mid-join when its ZooKeeper endpoint is
        partitioned or the fabric is lossy; crash the half-joined node
        back down and retry — faults heal no later than quiesce, so the
        loop always terminates.
        """
        while True:
            try:
                yield from node.restart()
                if (self.rebalancer is not None
                        and self.rebalancer.node is node):
                    # The balance loop died with its host; revive it so
                    # migrations keep racing the remaining schedule.
                    self.rebalancer.start()
                return
            except (RpcTimeout, RpcRejected):
                node.crash()
                yield self.sim.timeout(RPC_TIMEOUT)

    # -- quiesce ----------------------------------------------------------
    def _quiesce(self):
        """Heal everything and drive the cluster back to convergence."""
        cluster = self.cluster
        sim = self.sim
        cluster.failures.heal_all()
        for loss in list(self._active_loss):
            loss.stop()
        self._active_loss.clear()
        # In-run maintenance off; convergence below is explicit so the
        # quiesce length is fixed instead of waiting on periodic loops.
        for manager in self._ae:
            manager.stop()
        cluster.disable_maintenance()
        for proc in self._restart_procs:
            if not proc.triggered:
                yield proc
        repair_procs = []
        for name in sorted(cluster.nodes):
            node = cluster.nodes[name]
            if not node.running:
                repair_procs.append(sim.process(
                    self._supervised_restart(node),
                    name=f"{name}-quiesce-up"))
        for proc in repair_procs:
            if not proc.triggered:
                yield proc
        # Let crashed sessions expire and in-flight investigations,
        # recoveries and fire-and-forget repairs land.
        yield sim.timeout(self.zk_config.session_timeout * 2 + 1.0)
        if self.rebalancer is not None:
            # The balance loop dies with its host; revive it so parked
            # migrations finish or abort deterministically, then
            # resolve whatever is left — a parked copy is safe (the
            # donor still owns the vnode) but the ledger must close.
            self.rebalancer.start()
            yield from self.rebalancer.drain(timeout=20.0)
            self.rebalancer.stop()
            self.rebalancer.abort_pending("quiesce")
        # Sync every ring to the final assignment BEFORE reconciling:
        # rejoining nodes may have re-claimed vnodes, and anti-entropy
        # walks each node's *cached* replica sets.
        yield from self._refresh_caches()
        # GC pass: claiming a vnode rotates the replica sets of its ring
        # *predecessors* too, so rows can be stranded on ex-replicas that
        # anti-entropy (which only walks current replica sets) never
        # consults.  The janitor pushes those rows to the authoritative
        # set before dropping them.
        for name in sorted(cluster.nodes):
            node = cluster.nodes[name]
            if node.running:
                janitor = GarbageCollector(
                    node, vnodes_per_pass=self.config.num_vnodes)
                yield from janitor.run_pass()
        # Full anti-entropy sweeps: every node reconciles every vnode it
        # replicates; three rounds close pull-then-push transitive chains.
        for _ in range(3):
            for name in sorted(cluster.nodes):
                node = cluster.nodes[name]
                if not node.running:
                    continue
                sweeper = AntiEntropyManager(
                    node, vnodes_per_pass=self.config.num_vnodes)
                yield from sweeper.run_pass()
            yield sim.timeout(0.5)
        # Force every cache up to date (invariant 5 checks the result).
        yield from self._refresh_caches()

    def _refresh_caches(self):
        for name in sorted(self.cluster.nodes):
            node = self.cluster.nodes[name]
            if node.running:
                yield from node.cache.refresh()
        for client in self.clients:
            yield from client.cache.refresh()

    # -- final-state collection ------------------------------------------
    def _authoritative_ring(self):
        """Load the assignment fresh from ZooKeeper (ground truth)."""
        zk = self.cluster.ensemble.client("chaos-probe")
        yield from zk.connect()
        probe = MappingCache(self.sim, zk, self.config)
        yield from probe.load_full()
        yield from zk.close()
        return probe.ring

    def _collect(self) -> FinalState:
        ring = self.cluster.run(self._authoritative_ring(),
                                name="chaos-collect")
        state = FinalState(assignment=ring.snapshot())
        tracked = sorted(set(self.history.written_keys())
                         | self.history.deleted_keys())
        for key in tracked:
            vnode_id, replicas = ring.replicas_for_key(key,
                                                       self.config.replicas)
            state.replica_sets[key] = (vnode_id, replicas)
            holders: dict[str, list[tuple]] = {}
            for name in replicas:
                node = self.cluster.nodes.get(name)
                if node is None or not node.running:
                    holders[name] = []
                    continue
                holders[name] = [(e.source, e.timestamp, e.value)
                                 for e in node.store.read_all(key)]
            state.holders[key] = holders
        for key in self.history.causal_keys():
            vnode_id, replicas = ring.replicas_for_key(key,
                                                       self.config.replicas)
            state.replica_sets.setdefault(key, (vnode_id, replicas))
            dvv_holders: dict[str, dict] = {}
            for name in replicas:
                node = self.cluster.nodes.get(name)
                if node is None or not node.running:
                    dvv_holders[name] = {}
                    continue
                row = node.store.dvv_rows.get(key)
                dvv_holders[name] = wire_dvv_row(row) if row is not None \
                    else {}
            state.dvv_holders[key] = dvv_holders
        for name in sorted(self.cluster.nodes):
            node = self.cluster.nodes[name]
            if node.running:
                state.node_caches[name] = node.cache.ring.snapshot()
        for client in self.clients:
            state.client_caches[client.name] = client.cache.ring.snapshot()
        return state
