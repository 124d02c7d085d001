"""Unit tests for SednaConfig validation and the hierarchical key model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SednaConfig
from repro.core.types import DEFAULT_DATASET, DEFAULT_TABLE, FullKey


class TestConfig:
    def test_defaults_valid(self):
        cfg = SednaConfig()
        assert cfg.replicas == 3
        assert cfg.read_quorum + cfg.write_quorum > cfg.replicas
        assert cfg.write_quorum > cfg.replicas / 2

    def test_paper_example_quorum(self):
        # §III.C: "if there are 3 copies for each data, and R equals 2,
        # W equals 2. These two formulas are satisfied."
        SednaConfig(replicas=3, read_quorum=2, write_quorum=2)

    def test_r_plus_w_must_exceed_n(self):
        with pytest.raises(ValueError, match="R \\+ W > N"):
            SednaConfig(replicas=3, read_quorum=1, write_quorum=2)

    def test_w_must_exceed_half_n(self):
        with pytest.raises(ValueError, match="W > N/2"):
            SednaConfig(replicas=4, read_quorum=4, write_quorum=2)

    def test_single_replica_allowed(self):
        SednaConfig(replicas=1, read_quorum=1, write_quorum=1)

    def test_bad_vnodes(self):
        with pytest.raises(ValueError):
            SednaConfig(num_vnodes=0)

    def test_bad_persistence(self):
        with pytest.raises(ValueError):
            SednaConfig(persistence="raid")

    @pytest.mark.parametrize("field, value", [
        ("lease_base", 0), ("lease_base", -1),
        ("imbalance_push_interval", 0), ("scan_interval", 0),
        ("snapshot_interval", -5.0), ("trigger_interval", -0.1),
        ("lease_base", float("nan")),
    ])
    def test_rejects_non_positive_durations(self, field, value):
        """A zero lease floods ZooKeeper with reads, a negative one
        kills the lease loop, a zero push interval spins."""
        with pytest.raises(ValueError, match=field):
            SednaConfig(**{field: value})

    def test_zero_trigger_interval_allowed(self):
        # 0.0 is "flooding": every change fires, none is coalesced.
        assert SednaConfig(trigger_interval=0.0).trigger_interval == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
    def test_validation_property(self, n, r, w):
        """Property: construction succeeds iff both paper constraints hold."""
        valid = (r + w > n) and (w > n / 2) and r <= 10 and w <= 10
        if valid:
            SednaConfig(replicas=n, read_quorum=r, write_quorum=w)
        else:
            with pytest.raises(ValueError):
                SednaConfig(replicas=n, read_quorum=r, write_quorum=w)


class TestFullKey:
    def test_of_defaults(self):
        fk = FullKey.of("k1")
        assert fk.dataset == DEFAULT_DATASET
        assert fk.table == DEFAULT_TABLE
        assert fk.key == "k1"

    def test_encode_decode_roundtrip(self):
        fk = FullKey(dataset="ds", table="tweets", key="id-123")
        assert FullKey.decode(fk.encoded()) == fk

    def test_encoded_distinct_across_tables(self):
        a = FullKey(dataset="d", table="t1", key="k")
        b = FullKey(dataset="d", table="t2", key="k")
        assert a.encoded() != b.encoded()

    def test_key_may_contain_slashes_and_colons(self):
        fk = FullKey(dataset="d", table="t", key="a/b:c")
        assert FullKey.decode(fk.encoded()).key == "a/b:c"

    def test_rejects_separator_byte(self):
        with pytest.raises(ValueError):
            FullKey(dataset="d", table="t", key="bad\x1fkey")

    def test_rejects_empty_components(self):
        with pytest.raises(ValueError):
            FullKey(dataset="", table="t", key="k")

    def test_table_prefix_matches_members_only(self):
        fk = FullKey(dataset="d", table="t", key="k")
        assert fk.encoded().startswith(fk.table_prefix())
        other = FullKey(dataset="d", table="u", key="k")
        assert not other.encoded().startswith(fk.table_prefix())

    def test_dataset_prefix(self):
        fk = FullKey(dataset="d", table="t", key="k")
        assert fk.encoded().startswith(fk.dataset_prefix())

    def test_prefix_for(self):
        assert FullKey.prefix_for("d") == FullKey(
            dataset="d", table="t", key="k").dataset_prefix()
        assert FullKey.prefix_for("d", "t") == FullKey(
            dataset="d", table="t", key="k").table_prefix()

    def test_str_human_readable(self):
        assert str(FullKey(dataset="d", table="t", key="k")) == "d/t/k"

    @settings(max_examples=50, deadline=None)
    @given(st.text(min_size=1, max_size=10).filter(lambda s: "\x1f" not in s),
           st.text(min_size=1, max_size=10).filter(lambda s: "\x1f" not in s),
           st.text(min_size=1, max_size=20).filter(lambda s: "\x1f" not in s))
    def test_roundtrip_property(self, ds, table, key):
        fk = FullKey(dataset=ds, table=table, key=key)
        assert FullKey.decode(fk.encoded()) == fk
