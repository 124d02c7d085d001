"""``RpcNode.call`` against its reference (``reference_call.py``).

Callers race replies, refusals, silence and replies that land at the
deadline's own instant.  Under a kernel tracer, both versions must
schedule the same number of events, run the same steps in the same
``(time, priority, seq)`` order and hand every caller the same outcome
at the same simulated time.  A step that runs nothing — the reference's
defused timer popping at its instant — is not part of the trace: the
production call cancels that deadline instead, and a cancelled
deadline never steps.
"""

import random

import pytest

from repro.net.latency import UniformLatency
from repro.net.rpc import RpcNode, RpcRejected, RpcTimeout
from repro.net.simulator import Simulator
from repro.net.transport import Message, Network
from tests.net.reference_call import reference_call

OUTCOMES = ("reply", "refusal", "timeout", "lost", "reply-at-deadline",
            "refusal-at-deadline")


class _StepTrace:
    """Kernel tracer: the ``(time, priority, seq)`` of every step that
    runs callbacks."""

    def __init__(self, sim):
        self.sim = sim
        self.seq = {}
        self.steps = []

    def on_schedule(self, event, priority, when):
        self.seq[id(event)] = self.sim._seq

    def on_step(self, event, when, priority):
        seq = self.seq.pop(id(event))
        if event.callbacks is not None:
            self.steps.append((when, priority, seq))

    def on_step_done(self, event):
        pass

    def on_drop(self, event):
        self.seq.pop(id(event))


def _run(call, plan, seed=0):
    """One caller per ``(outcome, start, timeout)`` of ``plan``; returns
    the step trace, the events scheduled and what each caller saw, and
    when."""
    sim = Simulator()
    trace = sim.tracer = _StepTrace(sim)
    net = Network(sim, latency=UniformLatency(propagation=1e-3,
                                              jitter=4e-4, seed=seed))
    client = RpcNode(net, "client")
    server = RpcNode(net, "server", service_time=2e-4)
    server.register("echo", lambda src, args: args)
    server.register("hang", lambda src, args: sim.event())

    def refuse(src, args):
        raise RpcRejected("not-owner")

    server.register("refuse", refuse)
    seen = []

    def answer(call_id, status, result):
        # The reply lands at the deadline's instant, numbered before it:
        # it triggers the call, which has not stepped when the deadline
        # fires.
        client._on_message(Message("server", "client", {
            "kind": "resp", "id": call_id, "status": status,
            "result": result}))

    def caller(i, outcome, start, timeout):
        yield sim.timeout(start)
        dst, method = "server", {"reply": "echo", "refusal": "refuse"}.get(
            outcome, "hang")
        if outcome == "lost":
            dst = "nobody"
        if outcome.endswith("-at-deadline"):
            status = "ok" if outcome.startswith("reply") else "refuse"
            call_id = client._last_id + 1
            sim.timeout(timeout).callbacks.append(
                lambda _ev: answer(call_id, status, f"late-{i}"))
        try:
            value = yield from call(client, dst, method, i, timeout)
            seen.append((i, "ok", value, sim.now))
        except RpcTimeout as err:
            seen.append((i, "timeout", str(err), sim.now))
        except RpcRejected as err:
            seen.append((i, "refused", err.reason, sim.now))

    for i, (outcome, start, timeout) in enumerate(plan):
        sim.process(caller(i, outcome, start, timeout))
    sim.run()
    return {"steps": trace.steps, "scheduled": sim.events_scheduled,
            "seen": seen, "timed_out": client.calls_timed_out}


def _production(node, dst, method, args, timeout):
    return node.call(dst, method, args, timeout=timeout)


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_each_outcome_steps_like_the_reference(outcome):
    plan = [(outcome, 0.0, 0.5)]
    got = _run(_production, plan)
    assert got == _run(reference_call, plan)
    kind, value = got["seen"][0][1:3]
    assert kind == {"reply": "ok", "reply-at-deadline": "ok",
                    "refusal": "refused", "refusal-at-deadline": "refused",
                    }.get(outcome, "timeout")
    if outcome.endswith("-at-deadline"):
        assert value == "late-0"  # the reply beat its deadline


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_callers_step_like_the_reference(seed):
    """Sixty callers with seeded outcomes, start times and timeouts, so
    races of different calls share instants and deadline FIFOs."""
    rng = random.Random(seed)
    plan = [(rng.choice(OUTCOMES), rng.choice((0.0, 1e-3, 0.25, 0.5)),
             rng.choice((0.5, 1.0))) for _ in range(60)]
    got = _run(_production, plan, seed)
    assert got == _run(reference_call, plan, seed)
