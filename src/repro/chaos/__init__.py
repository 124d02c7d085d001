"""Deterministic chaos harness: fault schedules, operation histories,
and safety-invariant checking for the simulated Sedna cluster.

The paper's failure story (§III.C/D) is *lazy* — crashes are repaired
on the next read/write that touches the lost replica — which makes the
correctness of quorum operations under churn load-bearing.  This
package composes the :mod:`repro.net.failure` primitives into seeded,
replayable schedules, runs seeded workloads against a live cluster
while the schedule injects faults, records a per-operation history,
and checks after the dust settles that nothing the cluster promised
was lost:

1. no quorum-acked write is lost once the cluster heals and
   anti-entropy quiesces;
2. R+W>N freshness — a read invoked after an acked write returns that
   write or something newer;
3. the replication factor converges back to N for every written key;
4. ``write_all`` value lists never lose a source's newest element;
5. every node's and client's mapping cache converges to the ZooKeeper
   assignment.

Everything is seeded, so a failing schedule replays byte-identically
from its seed (same schedule → identical history digest).
"""

from .history import History, OpRecord
from .invariants import Anomaly, check_all
from .runner import ChaosReport, ChaosRunner
from .schedule import FaultEvent, Schedule, ScheduleGenerator
from .spec import RunSpec

__all__ = [
    "Anomaly",
    "ChaosReport",
    "ChaosRunner",
    "FaultEvent",
    "History",
    "OpRecord",
    "RunSpec",
    "Schedule",
    "ScheduleGenerator",
    "check_all",
]
