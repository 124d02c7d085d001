"""The size model is exact: one walker, and every sender agrees with it.

``estimate_size`` feeds ``latency.delay`` and so every golden digest.
Senders that know part of a size pass it on instead of walking the
payload again (the RPC envelopes' fixed skeleton, one ``args`` sized
once per fan-out), which is only sound while those sums equal what
sizing the whole payload would give.  Three guards:

* the production walker equals the reference walker
  (``reference_size``, the previous implementation kept verbatim) on
  arbitrary payloads at every start depth;
* the depth cutoff is honoured where it falls inside an RPC body;
* every message any scenario transmits — data plane, background plane,
  ZooKeeper, heartbeats, notifies, refusals — is booked at the size the
  reference gives its whole payload, tracing on and off;
* and holds builtin types only.  The walker sizes types differently: a
  plain tuple item by item, a dataclass through its ``__dict__``, a
  named tuple or slotted object as an opaque 32 bytes.  So a storage
  type (``ValueElement``, ``Row``) on the wire would size by what it
  is rather than what it holds, and none may ever ride it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosRunner
from repro.chaos.goldens import GOLDEN_CONFIGS
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode, RpcRejected
from repro.net.simulator import Simulator
from repro.net.transport import Network, estimate_size
from repro.storage.versioned import Row, ValueElement
from tests.core import test_wire_shapes as wire
from tests.net.reference_size import reference_size


class Plain:
    """An object sized through its ``__dict__``."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class Slotted:
    """No ``__dict__``: the opaque-object branch."""

    __slots__ = ()


class Text(str):
    """A ``str`` subclass: sized by the subclass branch."""


class Count(int):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=12),
    st.text(max_size=6).map(Text), st.integers().map(Count),
    st.binary(max_size=6).map(bytearray), st.just(Slotted()))
_keys = st.one_of(st.text(max_size=6), st.integers(), st.booleans(),
                  st.none(), st.tuples(st.integers(), st.text(max_size=3)))
_hashable = st.one_of(st.integers(), st.text(max_size=6), st.none(),
                      st.frozensets(st.integers(), max_size=3))

payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.sets(_hashable, max_size=4),
        st.frozensets(_hashable, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=5), inner,
                        max_size=3).map(lambda d: Plain(**d))),
    max_leaves=25)


def nest(payload, levels):
    """``payload`` under ``levels`` single-item lists."""
    for _ in range(levels):
        payload = [payload]
    return payload


class TestWalkerEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(payload=payloads, levels=st.integers(0, 9),
           depth=st.integers(0, 8))
    def test_any_payload_any_depth(self, payload, levels, depth):
        payload = nest(payload, levels)     # reach the cutoff often
        assert estimate_size(payload, depth) == reference_size(payload, depth)

    def test_part_sized_in_place_adds_up(self):
        """An envelope is its skeleton plus each part at its depth."""
        args = {"vnode": 3, "rows": nest({"k": ["v", 1.5, None]}, 4)}
        envelope = {"kind": "req", "id": 7, "method": "replica.write",
                    "args": args}
        skeleton = dict(envelope, method="", args="")
        assert (estimate_size(skeleton) + len("replica.write")
                + estimate_size(args, 1)) == reference_size(envelope)

    def test_self_reference_terminates(self):
        loop = []
        loop.append(loop)
        assert estimate_size(loop) == reference_size(loop) == 7 * 8 + 8 + 16

    def test_wire_shape_payloads(self, monkeypatch):
        """Everything the wire-shape scenarios put on the wire."""
        seen = []

        class Keep(wire.SizingTap):
            def _observe(self, src, dst, payload):
                seen.append(payload)
                return super()._observe(src, dst, payload)

        monkeypatch.setattr(wire, "SizingTap", Keep)
        wire.record_shapes()
        wire.record_background()
        assert len(seen) > 300
        for payload in seen:
            for depth in range(9):
                assert (estimate_size(payload, depth)
                        == reference_size(payload, depth)), payload


@pytest.fixture
def pair():
    """A client and a server RpcNode on a zero-latency network."""
    sim = Simulator()
    net = Network(sim, latency=NoLatency())
    return sim, RpcNode(net, "c"), RpcNode(net, "s")


class TestCutoffInsideRpcBodies:
    # ``args`` sits at depth 1, so its sixth nested list is the last
    # one walked and the seventh is charged per item.
    ARGS = {"rows": nest(["a", "b", "c"], 5)}

    def test_request_cutoff_inside_args(self, pair):
        sim, client, server = pair
        server.register("op", lambda src, args: None)
        client.call_async("s", "op", self.ARGS)
        envelope = {"kind": "req", "id": 1, "method": "op", "args": self.ARGS}
        # envelope 8+16+3+8+2, args dict 8+4, five lists 5*8, and the
        # innermost list at depth 7: 8 + 3*16 instead of 8 + 3.
        assert client.endpoint.sent_bytes == 37 + 12 + 40 + 56
        assert client.endpoint.sent_bytes == reference_size(envelope)
        assert reference_size(self.ARGS) == 12 + 40 + 8 + 3  # by hand, depth 0

    def test_reply_and_notify_cutoff_inside_body(self, pair):
        sim, client, server = pair
        server.register("op", lambda src, args: self.ARGS)
        done = client.call_async("s", "op", None)
        sim.run()
        assert done.value == self.ARGS
        reply = {"kind": "resp", "id": 1, "status": "ok", "result": self.ARGS}
        assert server.endpoint.sent_bytes == reference_size(reply)
        before = server.endpoint.sent_bytes
        server.notify("c", self.ARGS)
        assert (server.endpoint.sent_bytes - before
                == reference_size({"kind": "notify", "body": self.ARGS}))

    def test_known_args_size_is_taken_as_given(self, pair):
        """``args_size`` is trusted, not re-derived: that is the saving,
        and why the every-message check below exists."""
        sim, client, server = pair
        server.register("op", lambda src, args: None)
        args = {"vnode": 1, "key": "k"}
        client.call_async("s", "op", args, estimate_size(args, 1))
        once = client.endpoint.sent_bytes
        client.call_async("s", "op", args)
        assert client.endpoint.sent_bytes == 2 * once
        assert once == reference_size(
            {"kind": "req", "id": 1, "method": "op", "args": args})


#: The types a payload may hold: the ones the size model walks by kind.
_WIRE_TYPES = frozenset((str, int, float, bool, bytes, type(None), dict,
                         list, tuple, set, frozenset))


def foreign_types(payload) -> set:
    """Names of the non-builtin types anywhere in ``payload``."""
    found, stack = set(), [payload]
    while stack:
        obj = stack.pop()
        kind = type(obj)
        if kind not in _WIRE_TYPES:
            found.add(kind.__qualname__)
        elif kind is dict:
            stack.extend(obj)
            stack.extend(obj.values())
        elif kind in (list, tuple, set, frozenset):
            stack.extend(obj)
    return found


@pytest.fixture
def every_message(monkeypatch):
    """Check each transmission against the reference as it is booked,
    and for foreign types."""
    checked, wrong, foreign = [0], [], []
    transmit = Network._transmit

    def checking(self, src, dst, payload, size=None):
        before = src.sent_bytes
        transmit(self, src, dst, payload, size)
        checked[0] += 1
        want = reference_size(payload)
        if src.sent_bytes - before != want:
            wrong.append((src.sent_bytes - before, want, payload))
        types = foreign_types(payload)
        if types:
            foreign.append((types, payload))

    monkeypatch.setattr(Network, "_transmit", checking)

    def verdict(at_least):
        assert not wrong, wrong[:3]
        assert not foreign, foreign[:3]
        assert checked[0] >= at_least, checked[0]
        return checked[0]

    return verdict


class TestStorageTypesStayOffTheWire:
    def test_guard_sees_storage_types(self):
        element = ValueElement("s", 1.0, "v")
        assert foreign_types({"rows": {"k": [element]}}) == {"ValueElement"}
        assert foreign_types([Row()]) == {"Row"}
        assert foreign_types({"rows": {"k": [tuple(element)]},
                              "keys": {b"x", 1}}) == set()

    def test_an_element_sizes_by_its_type(self):
        element = ValueElement("s", 1.0, "value")
        assert estimate_size(element) == 32         # opaque
        assert estimate_size(tuple(element)) == 8 + 1 + 8 + 5


class TestEveryMessageIsSizedExactly:
    @pytest.mark.parametrize("traced", [False, True])
    def test_wire_shape_scenario(self, every_message, traced):
        wire.record_shapes(traced=traced)
        every_message(800)

    def test_background_scenario(self, every_message):
        wire.record_background()
        every_message(800)

    def test_join_boot(self, every_message):
        cluster = SednaCluster(n_nodes=5, zk_size=3, seed=3,
                               config=SednaConfig(num_vnodes=20))
        cluster.start("join")
        every_message(1000)

    def test_refusals(self, every_message, pair):
        sim, client, server = pair

        def refuse(src, args):
            raise RpcRejected("not-owner")

        server.register("no", refuse)
        for method in ("no", "missing"):
            done = client.call_async("s", method, {"vnode": 4})
            sim.run()
            assert not done.ok
        every_message(4)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
    def test_golden_configs(self, every_message, config, traced):
        report = ChaosRunner(seed=1, obs=traced,
                             **GOLDEN_CONFIGS[config]).run()
        assert report.ok, report.describe()
        every_message(2000)
