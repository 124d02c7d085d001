"""``Simulator.run`` against its reference (``reference_loop.py``).

Random schedules mix tied timeouts, events that succeed or fail (plain
and quiet), processes that tick, wait, catch and raise, deadlines
cancelled before or while queued, and defuses.  Each schedule is built
twice, once run by ``Simulator.run`` and once by the reference, in all
three stop modes (drain, a time horizon, an awaited event) and with
and without a tracer.  Both must report the same hooks in the same
order, log the same callbacks at the same instants, end at the same
``now``, ``events_scheduled`` and queue depth, and return or raise the
same thing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.simulator import SimulationError, Simulator
from tests.net.reference_loop import reference_run

DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
#: When a defuse or cancel lands: never, at once, or at a later instant.
LATER = st.sampled_from([None, "now", 0.5, 1.0])

ITEM = st.one_of(
    st.tuples(st.just("timeout"), DELAYS, LATER),
    st.tuples(st.just("event"), DELAYS, st.sampled_from(["succeed", "fail"]),
              st.booleans(), LATER),
    st.tuples(st.just("process"), st.lists(DELAYS, max_size=3),
              st.integers(0, 9), st.booleans()),
    st.tuples(st.just("deadline"), DELAYS, LATER),
)
STOP = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("time"),
              st.sampled_from([-0.5, 0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0])),
    st.tuples(st.just("event"), st.integers(0, 9)),
)


class _Hooks:
    """Kernel tracer: every hook call, with each entry named by the
    sequence number it was queued or reserved under."""

    def __init__(self, sim):
        self.sim = sim
        self.names = {}
        self.keep = []  # ids stay unique while the names are in use
        self.log = []

    def on_schedule(self, event, priority, when):
        self.names[id(event)] = self.sim._seq
        self.keep.append(event)
        self.log.append(("schedule", self.sim._seq, priority, when))

    def on_step(self, event, when, priority):
        self.log.append(("step", self.names[id(event)], when, priority,
                         self.sim.now, event.callbacks is None))

    def on_step_done(self, event):
        self.log.append(("done", self.names[id(event)]))

    def on_drop(self, event):
        self.log.append(("drop", self.names[id(event)]))


def _later(sim, when, action):
    if when == "now":
        action()
    elif when is not None:
        sim.schedule_callback(when, action)


def _build(sim, plan, log):
    """Lay ``plan`` out on ``sim``; returns what a process or the run
    may wait on, in plan order."""
    waitables = []

    def note(tag):
        return lambda _ev: log.append((tag, sim.now))

    def worker(tag, delays, target, raises):
        for d in delays:
            yield sim.timeout(d)
            log.append((tag, "tick", sim.now))
        if target is not None:
            try:
                value = yield target
                log.append((tag, "got", value, sim.now))
            except ValueError as err:
                log.append((tag, "caught", str(err), sim.now))
        if raises:
            raise ValueError(tag)
        return tag

    for i, item in enumerate(plan):
        tag = f"{item[0]}{i}"
        if item[0] == "timeout":
            _kind, delay, defuse_at = item
            ev = sim.timeout(delay, tag)
            ev.callbacks.append(note(tag))
            _later(sim, defuse_at, ev.defuse)
            waitables.append(ev)
        elif item[0] == "event":
            _kind, at, outcome, quiet, defuse_at = item
            ev = sim.quiet_event() if quiet else sim.event()
            if outcome == "succeed":
                sim.schedule_callback(at, lambda ev=ev, tag=tag: ev.succeed(tag))
            else:
                sim.schedule_callback(
                    at, lambda ev=ev, tag=tag: ev.fail(ValueError(tag)))
            _later(sim, defuse_at, ev.defuse)
            waitables.append(ev)
        elif item[0] == "process":
            _kind, delays, target, raises = item
            target = waitables[target] if target < len(waitables) else None
            waitables.append(sim.process(worker(tag, delays, target, raises)))
        else:
            _kind, delay, cancel_at = item
            d = sim.deadline(delay, lambda _d, tag=tag: log.append((tag, sim.now)))
            _later(sim, cancel_at, d.cancel)
    return waitables


def _drive(plan, stop, runner, traced, tie_seed=None, hooks_cls=_Hooks):
    """Build ``plan`` on a fresh simulator and run it to ``stop`` with
    ``runner``, again after each raise (at most four runs); returns all
    that can be seen."""
    sim = Simulator(tie_seed=tie_seed)
    hooks = None
    if traced:
        hooks = sim.tracer = hooks_cls(sim)
    log = []
    waitables = _build(sim, plan, log)
    if stop[0] == "drain":
        until = None
    elif stop[0] == "time":
        until = stop[1]
    elif stop[1] < len(waitables):
        until = waitables[stop[1]]
    else:
        until = sim.event()  # never triggered: the run goes dry
    outcomes = []
    for _ in range(4):
        try:
            outcomes.append(("returned", runner(sim, until)))
            break
        except (ValueError, SimulationError) as err:
            outcomes.append(("raised", type(err).__name__, str(err)))
    depth = len(sim._queue) + (sim._nbuf is not None)
    return (outcomes, log, sim.now, sim.events_scheduled, depth,
            hooks.log if hooks is not None else None)


@settings(max_examples=300, deadline=None)
@given(plan=st.lists(ITEM, max_size=10), stop=STOP, traced=st.booleans())
def test_run_matches_the_step_reference(plan, stop, traced):
    kernel = _drive(plan, stop, lambda sim, until: sim.run(until), traced)
    reference = _drive(plan, stop, reference_run, traced)
    assert kernel == reference


def test_unwatched_failure_raises_after_its_step_is_done():
    plan = [("event", 1.0, "fail", False, None)]
    outcomes, _log, now, _n, _depth, hooks = _drive(
        plan, ("drain",), lambda sim, until: sim.run(until), traced=True)
    assert outcomes[0] == ("raised", "ValueError", "event0")
    assert now == 1.0
    # The failed event's step closes before the error leaves ``run``.
    assert hooks[-2:] == [("step", 2, 1.0, 1, 1.0, False), ("done", 2)]
