"""``RpcNode.call``'s reference: the reply raced against an eager timer
in an ``AnyOf``, kept as the oracle.

The production call races a :class:`~repro.net.simulator.Deadline`
instead, so a reply leaves nothing queued.  ``tests/net/test_call_race.py``
requires it to schedule the same events, run the same steps in the same
``(time, priority, seq)`` order and return the same outcome as this
function on every path: a reply, a refusal, a timeout, and a reply
triggered but not yet stepped when the deadline fires.
"""

from repro.net.rpc import RpcRejected, RpcTimeout
from repro.net.simulator import AnyOf


def reference_call(node, dst, method, args, timeout):
    """``result = yield from reference_call(node, ...)``: the call as an
    ``AnyOf(reply, sim.timeout(timeout))`` race."""
    ev, call_id = node._issue(dst, method, args)
    deadline = node.sim.timeout(timeout)
    try:
        yield AnyOf(node.sim, (ev, deadline))
        if not ev._triggered:
            node.calls_timed_out += 1
            node._pending.pop(call_id, None)
            ev.defuse()
            raise RpcTimeout(f"{method} to {dst} after {timeout}s")
        deadline.defuse()
        if ev._ok:
            return ev._value
        raise ev._value
    except RpcRejected:
        deadline.defuse()
        ev = None
        raise
