"""Tie permutation: ``Simulator(tie_seed=k)`` against the step
reference, the order rules a permuted run keeps, and the FIFO audit
(docs/protocols.md §13.2).

A tie seed reorders entries of equal ``(time, priority)`` and nothing
else: pops never go back in ``(time, priority)``, an entry never runs
before the step that queued it, the count of sequence numbers is the
kernel's as before, and the deadlines of one delay stay FIFO.  With no
tie seed the pop order is ``(time, priority, seq)`` order exactly.

The audit half pins every place that relied on same-instant FIFO
order, each either FIFO by construction or a legal execution when
reordered: the deadline FIFO, the quorum wait's zero-delay settle, the
URGENT process start, the RPC service queue, and per-link delivery.
(The ZooKeeper commit/apply path is in tests/zk/test_tie_order.py.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import LanGigabit, NoLatency
from repro.net.rpc import QuorumWait, RpcNode
from repro.net.simulator import AllOf, Simulator
from repro.net.transport import Network
from tests.net.reference_loop import reference_run
from tests.net.test_run_loop import ITEM, STOP, _drive, _Hooks

TIES = st.integers(0, 2**32)


def _kernel(sim, until):
    return sim.run(until)


class _Parents(_Hooks):
    """Also records, with each schedule, the entry whose step queued it
    (None outside any step)."""

    current = None

    def on_schedule(self, event, priority, when):
        super().on_schedule(event, priority, when)
        self.log[-1] += (self.current,)

    def on_step(self, event, when, priority):
        super().on_step(event, when, priority)
        self.current = self.names[id(event)]

    def on_step_done(self, event):
        super().on_step_done(event)
        self.current = None


def _drained(plan, tie):
    """Drain ``plan`` under ``tie``: (events_scheduled, schedule hooks,
    step hooks)."""
    _out, _log, _now, scheduled, _depth, hooks = _drive(
        plan, ("drain",), _kernel, True, tie, _Parents)
    return (scheduled, [e for e in hooks if e[0] == "schedule"],
            [e for e in hooks if e[0] == "step"])


@settings(max_examples=200, deadline=None)
@given(plan=st.lists(ITEM, max_size=10), stop=STOP, traced=st.booleans(),
       tie=TIES)
def test_permuted_run_matches_the_step_reference(plan, stop, traced, tie):
    kernel = _drive(plan, stop, _kernel, traced, tie)
    reference = _drive(plan, stop, reference_run, traced, tie)
    assert kernel == reference


@settings(max_examples=300, deadline=None)
@given(plan=st.lists(ITEM, max_size=10), tie=TIES)
def test_ties_reorder_only_inside_equal_time_and_priority(plan, tie):
    scheduled, schedules, steps = _drained(plan, tie)
    order = [(when, prio) for _s, _name, when, prio, *_ in steps]
    assert order == sorted(order)
    position = {name: i for i, (_s, name, *_) in enumerate(steps)}
    for _s, name, _prio, _when, parent in schedules:
        if parent is not None and name in position:
            assert position[parent] < position[name]
    # One sequence number per queued entry or reservation, as unpermuted.
    assert [name for _s, name, *_ in schedules] == \
        list(range(1, scheduled + 1))
    if all(item[0] in ("timeout", "deadline") and item[2] is None
           for item in plan):
        # Nothing here reacts to order: the count is the unpermuted one.
        assert scheduled == _drained(plan, None)[0]


@settings(max_examples=300, deadline=None)
@given(plan=st.lists(ITEM, max_size=10))
def test_without_a_tie_seed_pops_are_in_seq_order(plan):
    _scheduled, _schedules, steps = _drained(plan, None)
    keys = [(when, prio, name) for _s, name, when, prio, *_ in steps]
    assert keys == sorted(keys)


def test_a_tie_seed_reorders_same_instant_callbacks():
    orders = set()
    for tie in (None, 1, 2, 3):
        sim = Simulator(tie_seed=tie)
        fired = []
        for i in range(6):
            sim.schedule_callback(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert sorted(fired) == list(range(6))
        assert sim.events_scheduled == 6
        orders.add(tuple(fired))
        if tie is None:
            assert fired == list(range(6))
    assert len(orders) == 4


def test_the_same_tie_seed_gives_the_same_order():
    def order(tie):
        sim = Simulator(tie_seed=tie)
        fired = []
        for i in range(8):
            sim.schedule_callback(0.5, lambda i=i: fired.append(i))
        sim.run()
        return fired

    assert order(7) == order(7)


# -- the FIFO audit ----------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(tie=TIES,
       plan=st.lists(st.tuples(st.sampled_from([0.5, 1.0]), st.booleans()),
                     min_size=2, max_size=12))
def test_same_delay_deadlines_stay_fifo(tie, plan):
    """Only the head of a delay's FIFO is queued, so its same-instant
    reservations fire in reservation order; the timeouts tied with
    them are permuted freely."""
    sim = Simulator(tie_seed=tie)
    fired = []
    for i, (delay, cancel) in enumerate(plan):
        sim.timeout(delay).callbacks.append(
            lambda _e, i=i: fired.append(("timeout", i)))
        d = sim.deadline(delay, lambda _d, i=i, delay=delay:
                         fired.append((delay, i)))
        if cancel:
            d.cancel()
    sim.run()
    for delay in (0.5, 1.0):
        mine = [i for kind, i in fired if kind == delay]
        assert mine == [i for i, (d, cancel) in enumerate(plan)
                        if d == delay and not cancel]


def _reply(sim, delay, value):
    ev = sim.event()
    ev.callbacks.append(lambda _e: None)
    sim.schedule_callback(delay, lambda: ev.succeed(value))
    return ev


def test_quorum_settle_may_miss_a_same_instant_reply():
    """The settle runs one zero-delay callback after the quorum is met.
    Unpermuted, every reply already queued at that instant runs first;
    a tie seed may order one after the settle, which is the execution
    where that reply arrived later: the wait succeeds with its quorum."""
    counted = {}
    for tie in (None, *range(1, 17)):
        sim = Simulator(tie_seed=tie)
        calls = [(f"r{i}", _reply(sim, 0.1, i)) for i in range(3)]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, fails = sim.run(until=wait.done)
        assert len(oks) >= 2 and fails == []
        counted[tie] = len(oks)
    assert counted[None] == 3
    assert set(counted.values()) == {2, 3}


def test_process_starts_are_urgent_under_any_tie_seed():
    """A process start is URGENT: it is permuted among the starts of
    its instant, never behind a NORMAL entry of that instant."""
    orders = set()
    for tie in (None, *range(1, 9)):
        sim = Simulator(tie_seed=tie)
        log = []
        sim.timeout(0.0).callbacks.append(lambda _e: log.append("timer"))

        def body(i):
            log.append(i)
            yield sim.timeout(0.0)

        for i in range(5):
            sim.process(body(i))
        sim.run()
        assert log[5] == "timer" and sorted(log[:5]) == list(range(5))
        orders.add(tuple(log[:5]))
    assert len(orders) > 1


@pytest.mark.parametrize("tie", [None, 1, 2, 3])
def test_service_queue_completions_never_tie(tie):
    """Requests that arrive together take distinct service slots, so
    the order they are served in is their arrival order and nothing
    in the queue ties."""
    sim = Simulator(tie_seed=tie)
    net = Network(sim, latency=NoLatency())
    server = RpcNode(net, "s", service_time=0.01)
    served = []
    server.register("op", lambda src, args: served.append(sim.now) or "ok")

    def one_client(i):
        yield from RpcNode(net, f"c{i}").call("s", "op", i, timeout=5.0)

    procs = [sim.process(one_client(i)) for i in range(10)]
    sim.run(until=AllOf(sim, procs))
    assert len(set(served)) == 10 and served == sorted(served)
    assert served[-1] == pytest.approx(0.10)


def test_one_link_is_not_fifo_even_unpermuted():
    """Per-link delivery never was FIFO: LanGigabit's jitter reorders
    back-to-back messages on one link, so no code may rely on it."""
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=0))
    arrived = []
    net.endpoint("b", lambda msg: arrived.append(msg.payload))
    a = net.endpoint("a", lambda msg: None)
    for i in range(20):
        a.send("b", i)
    sim.run()
    assert sorted(arrived) == list(range(20))
    assert arrived != list(range(20))
