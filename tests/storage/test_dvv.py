"""Seeded property tests for :class:`repro.storage.versioned.DvvRow`.

Dotted-version-vector rows (docs/protocols.md §16) back the causal
replication mode; their merge must be a join (associative, commutative,
idempotent) for anti-entropy and read repair to converge regardless of
delivery order.  Random histories are generated with seeded
``random.Random`` streams so every failure replays exactly.
"""

import random

import pytest

from repro.storage.versioned import (DvvRow, ctx_covers, unwire_context,
                                     unwire_dvv_row, wire_context,
                                     wire_dvv_row)

SEEDS = range(12)
REPLICAS = ["nodeA", "nodeB", "nodeC"]
CLIENTS = ["c0", "c1", "c2"]


def values(row):
    """A row's sibling values, oldest first."""
    return [s.value for s in row.siblings]


def random_history(rng, n_events, cap=None):
    """Replay ``n_events`` random causal writes onto per-replica rows.

    Each event picks a coordinator replica and either a blind write or
    a context write (context = the vv of some replica's current row,
    as a reader would have obtained it); the updated row is then merged
    into a random subset of the other replicas — partial replication,
    like a quorum that never finished.
    """
    rows = {rep: DvvRow() for rep in REPLICAS}
    ts = 0.0
    for _ in range(n_events):
        rep = rng.choice(REPLICAS)
        source = rng.choice(CLIENTS)
        ts += rng.uniform(0.01, 0.5)
        if rng.random() < 0.5:
            ctx = {}
        else:
            ctx = dict(rows[rng.choice(REPLICAS)].vv)
        rows[rep].update(ctx, source, ts, f"{source}@{ts:.3f}", rep,
                         cap=cap)
        for other in REPLICAS:
            if other != rep and rng.random() < 0.6:
                rows[other].merge(wire_copy(rows[rep]), cap=cap)
    return rows


def wire_copy(row):
    """Independent copy via the wire form (what replication ships)."""
    return unwire_dvv_row(wire_dvv_row(row))


def merged(*rows, cap=None):
    out = DvvRow()
    for row in rows:
        out.merge(wire_copy(row), cap=cap)
    return out


class TestMergeAlgebra:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_commutative(self, seed):
        rng = random.Random(f"dvv-comm-{seed}")
        rows = random_history(rng, 25)
        a, b = rows["nodeA"], rows["nodeB"]
        ab = merged(a, b)
        ba = merged(b, a)
        assert ab.shape() == ba.shape()
        assert sorted(values(ab)) == sorted(values(ba))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_associative(self, seed):
        rng = random.Random(f"dvv-assoc-{seed}")
        rows = random_history(rng, 25)
        a, b, c = (rows[r] for r in REPLICAS)
        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        assert left.shape() == right.shape()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_idempotent(self, seed):
        rng = random.Random(f"dvv-idem-{seed}")
        rows = random_history(rng, 25)
        for rep in REPLICAS:
            row = rows[rep]
            before = row.shape()
            changed, _pruned = row.merge(wire_copy(row))
            assert not changed
            assert row.shape() == before

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_never_invents_or_duplicates_dots(self, seed):
        rng = random.Random(f"dvv-dots-{seed}")
        rows = random_history(rng, 30)
        join = merged(*rows.values())
        dots = [s.dot for s in join.siblings]
        assert len(dots) == len(set(dots))
        union = {s.dot for row in rows.values() for s in row.siblings}
        assert set(dots) <= union
        # Every surviving sibling is covered by the join's vv.
        for sib in join.siblings:
            assert ctx_covers(join.vv, sib.dot)


class TestContextSemantics:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_context_dominance_leaves_no_sibling(self, seed):
        """A write whose context covers the whole row replaces it."""
        rng = random.Random(f"dvv-dom-{seed}")
        rows = random_history(rng, 20)
        row = rows[rng.choice(REPLICAS)]
        ctx = dict(row.vv)
        dot, _pruned = row.update(ctx, "writer", 99.0, "reconciled",
                                  "nodeA")
        assert [s.value for s in row.siblings] == ["reconciled"]
        assert row.siblings[0].dot == dot

    @pytest.mark.parametrize("seed", SEEDS)
    def test_blind_writes_all_survive(self, seed):
        """N concurrent blind writes on one replica = N siblings."""
        rng = random.Random(f"dvv-blind-{seed}")
        row = DvvRow()
        n = rng.randint(2, 8)
        for i in range(n):
            row.update({}, f"c{i}", float(i + 1), f"v{i}", "nodeA")
        assert len(row.siblings) == n
        assert sorted(values(row)) == sorted(f"v{i}" for i in range(n))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partial_context_keeps_concurrent_sibling(self, seed):
        rng = random.Random(f"dvv-partial-{seed}")
        row = DvvRow()
        row.update({}, "c0", 1.0, "left", "nodeA")
        ctx = dict(row.vv)            # covers "left" only
        row.update({}, "c1", 2.0, "right", "nodeB")
        row.update(ctx, "c2", 3.0, "over-left", "nodeA")
        survivors = set(values(row))
        assert survivors == {"right", "over-left"}, survivors
        del rng  # seed reserved for parametrized replay symmetry


class TestSiblingCap:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cap_honored_and_survivors_newest(self, seed):
        rng = random.Random(f"dvv-cap-{seed}")
        cap = rng.randint(2, 5)
        rows = random_history(rng, 40, cap=cap)
        for rep in REPLICAS:
            row = rows[rep]
            assert len(row.siblings) <= cap
            for sib in row.siblings:
                assert ctx_covers(row.vv, sib.dot)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pruned_dots_cannot_resurrect(self, seed):
        """A capped-out sibling stays covered by the vv, so re-merging
        an old copy that still holds it does not bring it back."""
        rng = random.Random(f"dvv-resurrect-{seed}")
        row = DvvRow()
        for i in range(8):
            row.update({}, f"c{i}", float(i + 1), f"v{i}", "nodeA")
        stale = wire_copy(row)         # uncapped copy with all 8
        _pruned = row._cap(3)
        assert len(row.siblings) == 3
        changed, _ = row.merge(stale, cap=3)
        assert len(row.siblings) == 3
        surviving = sorted(values(row))
        # The newest three (highest storage order) survive.
        assert surviving == sorted(f"v{i}" for i in range(5, 8))
        del rng, changed


class TestWireForm:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip_preserves_shape(self, seed):
        rng = random.Random(f"dvv-wire-{seed}")
        rows = random_history(rng, 25)
        for row in rows.values():
            assert wire_copy(row).shape() == row.shape()

    def test_context_roundtrip(self):
        ctx = {"nodeB": 4, "nodeA": 2}
        blob = wire_context(ctx)
        assert blob == [["nodeA", 2], ["nodeB", 4]]
        assert unwire_context(blob) == ctx
        assert unwire_context(None) == {}
