"""The ZooKeeper commit/apply path under tie seeds (docs/protocols.md
§13.2, the FIFO audit).

A member applies every consecutive buffered commit in one loop, in
zxid order, and only then succeeds the waiting results; a tie seed
reorders those results' callbacks (the replies), never the applies.
Racing version-checked increments over a zero-latency network, where
almost everything ties, must therefore count every increment once and
leave every member with the same tree at the same zxid.
"""

import pytest

from repro.net.latency import NoLatency
from repro.net.simulator import AllOf, Simulator
from repro.net.transport import Network
from repro.zk.ensemble import ZkEnsemble
from repro.zk.znode import BadVersionError

CLIENTS, INCREMENTS = 4, 5


@pytest.mark.parametrize("tie", [None, 1, 2, 3])
def test_racing_increments_apply_in_zxid_order(tie):
    sim = Simulator(tie_seed=tie)
    ens = ZkEnsemble(sim, Network(sim, latency=NoLatency()), size=3)
    ens.start()
    clients = [ens.client(f"cli{i}") for i in range(CLIENTS)]

    def setup():
        yield from clients[0].connect()
        yield from clients[0].create("/ctr", b"0")

    sim.run(until=sim.process(setup()))

    def incrementer(zk, i):
        if i:
            yield from zk.connect()
        done = 0
        while done < INCREMENTS:
            data, stat = yield from zk.get("/ctr")
            try:
                yield from zk.set("/ctr", str(int(data) + 1).encode(),
                                  version=stat["version"])
            except BadVersionError:
                continue
            done += 1
            yield from zk.create("/log-", b"", sequential=True)

    procs = [sim.process(incrementer(zk, i)) for i, zk in enumerate(clients)]
    sim.run(until=AllOf(sim, procs))
    sim.run(until=sim.now + 1.0)

    leader = ens.leader()
    data, _stat = sim.run(until=sim.process(clients[0].get("/ctr")))
    assert int(data) == CLIENTS * INCREMENTS
    dumps = {server.name: server.tree.dump() for server in ens.servers}
    assert all(dump == dumps[leader.name] for dump in dumps.values())
    assert {server.applied_zxid for server in ens.servers} == \
        {leader.applied_zxid}
    logs = [c for c in leader.tree.get_children("/") if c.startswith("log-")]
    assert len(logs) == CLIENTS * INCREMENTS
