"""The invariant checkers equal their record-scanning reference, exactly.

``check_all`` reads the history through its per-key index and checks
freshness as one sorted sweep per key; ``tests/chaos/reference_invariants.py``
keeps the checkers that scanned every record for every read.  Same
anomalies, same text, same order — on Hypothesis histories built to hit
ties (a coarse time grid, few keys, clients and nodes), on pinned corner
cases, and on real chaos runs including the known-red seeds.
"""

from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chaos import ChaosRunner
from repro.chaos.history import History
from repro.chaos.invariants import (FinalState, causal_outcomes, check_all,
                                    lww_concurrent_losses)
from tests.chaos import reference_invariants as ref

KEYS = ("k0", "k1", "k2")
CLIENTS = ("c0", "c1", "c2")
NODES = ("n0", "n1", "n2")
GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)   # coarse on purpose: ties everywhere
STATUSES = {
    "write_latest": ("ok",) * 5 + ("failure", "outdated", None),
    "write_all": ("ok", "ok", "failure", None),
    "write_causal": ("ok", "ok", "failure", None),
    "delete": ("ok", "failure"),
    "read_latest": ("found",) * 3 + ("miss", "failure", None),
    "read_all": ("ok", "failure"),
    "read_causal": ("found", "miss"),
}


class Op(NamedTuple):
    """One history record as plain data (``status=None``: never
    completed)."""

    kind: str
    client: str
    key: str
    invoked: float
    completed: float = 0.0
    status: Optional[str] = "ok"
    ts: float = 0.0
    acks: tuple = ()
    result_ts: float = 0.0
    result_source: str = "c0"
    ctx: tuple = ()
    dot: tuple = ("n0", 1)


def w(client, key, invoked, completed, ts, acks=("n0", "n1")):
    """An acked ``write_latest``."""
    return Op("write_latest", client, key, invoked, completed, "ok", ts,
              tuple(acks))


def r(client, key, invoked, completed, status="found", result_ts=0.0,
      result_source="c0"):
    """A ``read_latest``."""
    return Op("read_latest", client, key, invoked, completed, status,
              result_ts=result_ts, result_source=result_source)


def build(ops) -> History:
    history = History()
    for op in ops:
        is_write = op.kind.startswith("write")
        record = history.begin(
            op.client, op.kind, op.key, op.invoked,
            value=f"{op.client}@{op.ts}" if is_write else None,
            ts=op.ts if is_write else None,
            ctx=op.ctx if op.kind == "write_causal" else ())
        if op.status is None:
            continue
        found = op.status == "found"
        history.complete(
            record, op.completed, op.status,
            acks=op.acks if is_write or op.kind == "delete" else (),
            responders=op.acks if not is_write else (),
            result_ts=op.result_ts if found else None,
            result_source=op.result_source if found else None,
            result_value="v" if found else None,
            result_elements=((op.result_source, op.result_ts, "v"),)
            if op.kind == "read_all" else (),
            ctx=op.ctx if op.kind == "read_causal" else None,
            dot=op.dot if op.kind == "write_causal" and op.status == "ok"
            else None)
    return history


def assert_equivalent(history, state, crashes=(), migrations=()):
    got = [str(a) for a in check_all(history, state, crashes=crashes,
                                     migrations=migrations)]
    want = [str(a) for a in ref.check_all(history, state, crashes=crashes,
                                          migrations=migrations)]
    assert got == want
    assert causal_outcomes(history, state) == ref.causal_outcomes(history,
                                                                  state)
    assert list(lww_concurrent_losses(history, state).items()) \
        == list(ref.lww_concurrent_losses(history, state).items())
    return got


# -- Hypothesis histories -------------------------------------------------
_times = st.sampled_from(GRID)
_nodes = st.sampled_from(NODES)
_dots = st.tuples(_nodes, st.integers(1, 3))
_ctxs = st.lists(_dots, max_size=2, unique_by=lambda d: d[0]).map(tuple)


# Mostly the freshness pair.  A delete taints its key for good, so
# deletes only ever hit k2: k0 and k1 stay checkable.
_kinds = st.sampled_from(sorted(STATUSES)
                         + ["write_latest"] * 4 + ["read_latest"] * 5)


@st.composite
def _ops(draw):
    kind = draw(_kinds)
    invoked = draw(_times)
    key = "k2" if kind == "delete" else draw(st.sampled_from(KEYS))
    return Op(kind=kind, client=draw(st.sampled_from(CLIENTS)),
              key=key, invoked=invoked,
              completed=invoked + draw(st.sampled_from((0.0, 0.5, 1.0))),
              status=draw(st.sampled_from(STATUSES[kind])), ts=draw(_times),
              acks=tuple(draw(st.lists(_nodes, max_size=2, unique=True))),
              result_ts=draw(_times),
              result_source=draw(st.sampled_from(CLIENTS)),
              ctx=draw(_ctxs), dot=draw(_dots))


_elements = st.lists(st.tuples(st.sampled_from(CLIENTS), _times,
                               st.just("v")), max_size=2)
_blobs = st.lists(st.tuples(_dots, st.sampled_from(CLIENTS), _times),
                  max_size=2).map(lambda sibs: {
                      "vv": sorted({rep: n for (rep, n), _, _ in sibs}
                                   .items()),
                      "siblings": [[rep, n, src, ts, "v"]
                                   for (rep, n), src, ts in sibs]})


@st.composite
def _states(draw):
    assignment = draw(st.lists(_nodes, min_size=2, max_size=2))
    state = FinalState(assignment=assignment)
    for key in KEYS:
        replicas = draw(st.lists(_nodes, max_size=3, unique=True))
        state.replica_sets[key] = (draw(st.integers(0, 1)), replicas)
        state.holders[key] = {n: draw(_elements) for n in replicas}
        state.dvv_holders[key] = {n: draw(_blobs) for n in replicas}
    for label, names in (("node", NODES), ("client", CLIENTS)):
        caches = {name: draw(st.lists(_nodes, min_size=2, max_size=2))
                  for name in names[:draw(st.integers(0, 2))]}
        setattr(state, f"{label}_caches", caches)
    return state


_crashes = st.lists(st.tuples(_times, _nodes), max_size=6).map(tuple)
_ledger = st.lists(st.fixed_dictionaries({
    "vnode": st.integers(0, 1), "donor": _nodes, "receiver": _nodes,
    "state": st.sampled_from(("done", "aborted", "copying")),
    "reason": st.just("")}), max_size=2).map(tuple)

# Pinned corner cases.  Each ``ops`` list is read with the empty state.
# On equal (ts, client) the op-earlier write wins, whichever completed
# first — k0: op order and completion order disagree, k1: they agree;
# both winners' whole ack sets crash, so the report names the winner's
# acks and a wrong tie rule shows.
TIES = [w("c0", "k0", 0.0, 1.0, 1.0, acks=("n0",)),
        w("c0", "k0", 0.0, 0.5, 1.0, acks=("n1",)),
        w("c0", "k1", 0.0, 0.5, 1.0, acks=("n0",)),
        w("c0", "k1", 0.0, 1.0, 1.0, acks=("n1",)),
        r("c1", "k0", 2.0, 2.5, result_ts=0.5, result_source="c1"),
        r("c1", "k1", 2.0, 2.5, result_ts=0.5, result_source="c1")]
TIE_CRASHES = ((1.5, "n0"), (1.5, "n1"))
# A write that completes exactly when a read is invoked counts; one
# that completes after it does not.
EDGE = [w("c0", "k0", 0.0, 1.0, 1.0), w("c1", "k0", 0.5, 1.5, 2.0),
        r("c2", "k0", 1.0, 1.5, result_ts=0.5)]
# A crash exactly at the ack or exactly at the read wipes nothing.
CRASH_AT = [w("c0", "k0", 0.0, 1.0, 1.0, acks=("n0",)),
            r("c1", "k0", 2.0, 2.5, result_ts=0.5),
            w("c0", "k1", 0.0, 1.0, 1.0, acks=("n1",)),
            r("c1", "k1", 2.0, 2.5, result_ts=0.5)]
CRASH_AT_CRASHES = ((1.0, "n0"), (2.0, "n1"))
# Misses: k0's acker survives (hard), k1's crashed (expected).
MISSES = [w("c0", "k0", 0.0, 0.5, 1.0, acks=("n0",)),
          r("c1", "k0", 2.0, 2.5, status="miss"),
          w("c0", "k1", 0.0, 0.5, 1.0, acks=("n1",)),
          r("c1", "k1", 2.0, 2.5, status="miss")]
MISS_CRASHES = ((1.0, "n1"),)
# Failure reads are skipped; so is every read of a deleted key, even
# after a failed delete.
SKIPPED = [w("c0", "k0", 0.0, 0.5, 1.0),
           r("c1", "k0", 2.0, 2.5, status="failure"),
           w("c0", "k1", 0.0, 0.5, 1.0),
           Op("delete", "c2", "k1", 0.0, 0.5, "failure"),
           r("c1", "k1", 2.0, 2.5, status="miss")]


@settings(max_examples=400, deadline=None)
@given(ops=st.lists(_ops(), min_size=6, max_size=30), state=_states(),
       crashes=_crashes, migrations=_ledger)
@example(ops=TIES, state=FinalState(), crashes=TIE_CRASHES, migrations=())
@example(ops=EDGE, state=FinalState(), crashes=(), migrations=())
@example(ops=CRASH_AT, state=FinalState(), crashes=CRASH_AT_CRASHES,
         migrations=())
@example(ops=MISSES, state=FinalState(), crashes=MISS_CRASHES,
         migrations=())
@example(ops=SKIPPED, state=FinalState(), crashes=(), migrations=())
def test_checkers_equal_reference(ops, state, crashes, migrations):
    assert_equivalent(build(ops), state, crashes, migrations)


class TestPinnedCases:
    """The pinned examples do hit what they are named for."""

    def test_tie_reports_the_op_earlier_winner(self):
        got = assert_equivalent(build(TIES), FinalState(), TIE_CRASHES)
        losses = [a for a in got if "durability-loss" in a]
        assert len(losses) == 2
        assert "k0: " in losses[0] and "acks=['n0']" in losses[0]
        assert "k1: " in losses[1] and "acks=['n0']" in losses[1]

    def test_completed_at_invocation_counts(self):
        got = assert_equivalent(build(EDGE), FinalState())
        fresh = [a for a in got if a.startswith("[freshness]")]
        assert len(fresh) == 1 and "acked write ts=1.0" in fresh[0]

    def test_crash_at_the_boundary_wipes_nothing(self):
        got = assert_equivalent(build(CRASH_AT), FinalState(),
                                CRASH_AT_CRASHES)
        assert [a.split(" ")[0] for a in got if "op#" in a] \
            == ["[freshness]", "[freshness]"]

    def test_miss_with_and_without_survivor(self):
        got = assert_equivalent(build(MISSES), FinalState(), MISS_CRASHES)
        reads = [a for a in got if "missed" in a]
        assert reads[0].startswith("[freshness] k0")
        assert reads[1].startswith("[durability-loss] (expected) k1")

    def test_failure_reads_and_deleted_keys_are_skipped(self):
        got = assert_equivalent(build(SKIPPED), FinalState())
        assert not [a for a in got if "op#" in a]


# -- real histories -------------------------------------------------------
def _crash_times(report):
    return tuple((ev.time, target) for ev in report.schedule.events
                 if ev.kind == "crash" for target in ev.targets)


REAL = [dict(seed=seed, profile=profile, duration=20.0)
        for profile in ("crash", "partition", "loss", "churn", "migration",
                        "mixed")
        for seed in range(4)]
REAL += [dict(seed=seed, profile="migration", duration=20.0, rebalance=True)
         for seed in range(4)]
REAL += [dict(seed=seed, profile="partition", duration=20.0, causal="dvv")
         for seed in range(4)]


def _run_and_compare(fields):
    report = ChaosRunner(**fields).run()
    got = assert_equivalent(report.history, report.state,
                            _crash_times(report), tuple(report.migrations))
    assert got == [str(a) for a in report.anomalies]
    return report


@pytest.mark.parametrize(
    "fields", REAL,
    ids=[f"{f['profile']}-{f['seed']}"
         + ("-rebalance" if f.get("rebalance") else "")
         + (f"-{f['causal']}" if f.get("causal") else "") for f in REAL])
def test_real_history(fields):
    _run_and_compare(fields)


@pytest.mark.slow
@pytest.mark.parametrize("seed", (14, 15, 34))
def test_known_red_history(seed):
    report = _run_and_compare(dict(seed=seed, profile="mixed",
                                   duration=120.0))
    assert not report.ok    # still red, with the same anomaly text
