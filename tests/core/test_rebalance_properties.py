"""Property-based tests (seeded random, no extra deps) for the
imbalance table, the ring bookkeeping and the pure migration planner.

Each test draws a few hundred random scenarios from ``random.Random``
seeded by the parametrized seed, so failures replay exactly.
"""

import math
import random

import pytest

from repro.core.hashring import (HEAT_WEIGHTS, ImbalanceTable, Ring,
                                 row_heat, vnode_heat)
from repro.core.rebalance import (activity_delta, pick_migration_vnode,
                                  plan_move)

NAMES = tuple(f"n{i}" for i in range(8))
SEEDS = range(12)


def random_row(rng):
    return {"vnodes": rng.randint(0, 12), "keys": rng.randint(0, 500),
            "bytes": rng.randint(0, 40000), "reads": rng.randint(0, 800),
            "writes": rng.randint(0, 400)}


def random_table(rng, max_nodes=8):
    table = ImbalanceTable()
    for name in rng.sample(NAMES, rng.randint(0, max_nodes)):
        table.update(name, random_row(rng))
    # A few churn operations: refreshes and removals.
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(NAMES)
        if rng.random() < 0.3:
            table.remove(name)
        else:
            table.update(name, random_row(rng))
    return table


class TestImbalanceTableProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spread_most_least_consistency(self, seed):
        rng = random.Random(f"imbalance/{seed}")
        for _ in range(50):
            table = random_table(rng)
            for metric in ("vnodes", "keys", "reads", "writes"):
                most = table.most_loaded(metric)
                least = table.least_loaded(metric)
                if not table.rows:
                    assert most is None and least is None
                    assert table.spread(metric) == 0.0
                    continue
                values = [row.get(metric, 0)
                          for row in table.rows.values()]
                assert table.rows[most].get(metric, 0) == max(values)
                assert table.rows[least].get(metric, 0) == min(values)
                if len(table.rows) >= 2:
                    assert table.spread(metric) == float(max(values)
                                                         - min(values))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heat_extremes_and_spread_agree(self, seed):
        rng = random.Random(f"heat/{seed}")
        for _ in range(50):
            table = random_table(rng)
            if not table.rows:
                assert table.hottest() is None
                assert table.coldest() is None
                continue
            heats = {name: table.heat(name) for name in table.rows}
            hottest = table.hottest()
            coldest = table.coldest()
            assert heats[hottest] == max(heats.values())
            assert heats[coldest] == min(heats.values())
            if len(table.rows) >= 2:
                assert table.heat_spread() == pytest.approx(
                    heats[hottest] - heats[coldest])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heat_tiebreak_is_insertion_order_independent(self, seed):
        rng = random.Random(f"tie/{seed}")
        row = random_row(rng)
        names = list(rng.sample(NAMES, 4))
        forward = ImbalanceTable()
        backward = ImbalanceTable()
        for name in names:
            forward.update(name, dict(row))
        for name in reversed(names):
            backward.update(name, dict(row))
        assert forward.hottest() == backward.hottest()
        assert forward.coldest() == backward.coldest()

    def test_row_heat_matches_weights(self):
        row = {"vnodes": 2, "keys": 10, "reads": 5, "writes": 3}
        expected = (2 * HEAT_WEIGHTS["vnodes"] + 10 * HEAT_WEIGHTS["keys"]
                    + 5 * HEAT_WEIGHTS["reads"]
                    + 3 * HEAT_WEIGHTS["writes"])
        assert row_heat(row) == pytest.approx(expected)
        # Missing fields count as zero.
        assert row_heat({}) == 0.0
        # One idle vnode still carries the base weight.
        assert vnode_heat({}) == HEAT_WEIGHTS["vnodes"]


class TestRingProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_load_counts_agree_with_vnodes_of(self, seed):
        rng = random.Random(f"ring/{seed}")
        for _ in range(30):
            ring = Ring(rng.randint(1, 48))
            for _ in range(rng.randint(0, 120)):
                vnode = rng.randrange(ring.num_vnodes)
                owner = rng.choice(NAMES + (Ring.UNASSIGNED,))
                ring.assign(vnode, owner)
            counts = ring.load_counts()
            for owner in ring.real_nodes():
                assert counts[owner] == len(ring.vnodes_of(owner))
            assert sum(counts.values()) == (ring.num_vnodes
                                            - len(ring.unassigned()))
            # Every vnode is either unassigned or owned by exactly the
            # node its vnodes_of() reports.
            for vnode in range(ring.num_vnodes):
                owner = ring.owner(vnode)
                if owner != Ring.UNASSIGNED:
                    assert vnode in ring.vnodes_of(owner)


class TestPlannerProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ("heat", "count"))
    def test_plan_never_moves_to_current_owner(self, seed, mode):
        rng = random.Random(f"plan/{mode}/{seed}")
        for _ in range(80):
            rows = {name: random_row(rng)
                    for name in rng.sample(NAMES, rng.randint(0, 6))}
            plan = plan_move(rows, mode=mode)
            if plan is None:
                continue
            donor, receiver, limit = plan
            assert donor != receiver
            assert donor in rows and receiver in rows
            assert limit > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heat_plan_picks_extremes_and_bounds_the_move(self, seed):
        rng = random.Random(f"planheat/{seed}")
        for _ in range(80):
            rows = {name: random_row(rng)
                    for name in rng.sample(NAMES, rng.randint(2, 6))}
            plan = plan_move(rows, mode="heat")
            heats = {name: row_heat(row) for name, row in rows.items()}
            if plan is None:
                continue
            donor, receiver, limit = plan
            assert heats[donor] == max(heats.values())
            assert heats[receiver] == min(heats.values())
            gap = heats[donor] - heats[receiver]
            # Moving a vnode at the limit can never overshoot the gap.
            assert 2 * limit <= gap
            assert limit >= HEAT_WEIGHTS["vnodes"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_count_plan_respects_threshold(self, seed):
        rng = random.Random(f"plancount/{seed}")
        for _ in range(80):
            rows = {name: random_row(rng)
                    for name in rng.sample(NAMES, rng.randint(2, 6))}
            threshold = rng.randint(0, 5)
            plan = plan_move(rows, mode="count", threshold=threshold)
            counts = [row.get("vnodes", 0) for row in rows.values()]
            spread = max(counts) - min(counts)
            if spread <= threshold:
                assert plan is None
            else:
                assert plan is not None
                donor, receiver, limit = plan
                assert rows[donor]["vnodes"] == max(counts)
                assert rows[receiver]["vnodes"] == min(counts)
                assert limit == math.inf

    @pytest.mark.parametrize("seed", SEEDS)
    def test_picked_vnode_fits_limit_and_is_stable(self, seed):
        rng = random.Random(f"pick/{seed}")
        for _ in range(80):
            owned = rng.sample(range(48), rng.randint(0, 10))
            stats = {v: {"keys": rng.randint(0, 50),
                         "reads": rng.randint(0, 100),
                         "writes": rng.randint(0, 60)}
                     for v in owned if rng.random() < 0.8}
            limit = rng.choice((math.inf, rng.uniform(0.0, 200.0)))
            choice = pick_migration_vnode(owned, stats, limit)
            if choice is None:
                assert all(vnode_heat(stats.get(v, {})) > limit
                           for v in owned)
                continue
            assert choice in owned
            heat = vnode_heat(stats.get(choice, {}))
            assert heat <= limit
            for v in owned:
                other = vnode_heat(stats.get(v, {}))
                if other <= limit:
                    # Strictly hotter candidates don't exist; equal
                    # heat resolves to the lowest vnode id.
                    assert other < heat or (other == heat
                                            and v >= choice)
            shuffled = list(owned)
            rng.shuffle(shuffled)
            assert pick_migration_vnode(shuffled, stats, limit) == choice


class TestActivityDelta:
    def test_counters_are_differenced_and_clamped(self):
        current = {"vnodes": 3, "keys": 10, "reads": 100, "writes": 40}
        previous = {"vnodes": 5, "keys": 30, "reads": 60, "writes": 90}
        delta = activity_delta(current, previous)
        assert delta["reads"] == 40          # 100 - 60
        assert delta["writes"] == 0          # clamped: counter reset
        assert delta["vnodes"] == 3          # gauges pass through
        assert delta["keys"] == 10

    def test_no_baseline_passes_through(self):
        row = {"reads": 7, "writes": 3}
        assert activity_delta(row, None) == row
