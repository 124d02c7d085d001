"""Unit tests for the session table and watch registry."""

from repro.zk.session import SessionTable
from repro.zk.watches import EVENT_CHANGED, EVENT_DELETED, WatchRegistry


class TestSessionTable:
    def test_open_and_contains(self):
        table = SessionTable()
        table.open(1, timeout=2.0, now=0.0)
        assert 1 in table and len(table) == 1

    def test_ping_updates(self):
        table = SessionTable()
        table.open(1, timeout=2.0, now=0.0)
        assert table.ping(1, now=1.5)
        assert table.expired(now=3.0) == []
        assert table.expired(now=3.6) == [1]

    def test_ping_unknown(self):
        assert SessionTable().ping(99, 0.0) is False

    def test_expired_respects_timeout(self):
        table = SessionTable()
        table.open(1, timeout=1.0, now=0.0)
        table.open(2, timeout=10.0, now=0.0)
        assert table.expired(now=2.0) == [1]

    def test_close(self):
        table = SessionTable()
        table.open(1, timeout=1.0, now=0.0)
        assert table.close(1) is True
        assert table.close(1) is False

    def test_reset_clocks(self):
        table = SessionTable()
        table.open(1, timeout=1.0, now=0.0)
        table.reset_clocks(now=100.0)
        assert table.expired(now=100.5) == []

    def test_dump_load(self):
        table = SessionTable()
        table.open(1, timeout=2.5, now=0.0)
        clone = SessionTable()
        clone.load(table.dump(), now=50.0)
        assert 1 in clone
        assert clone.sessions[1].timeout == 2.5
        assert clone.expired(now=51.0) == []


class TestWatchRegistry:
    def test_data_watch_fires_once(self):
        reg = WatchRegistry()
        reg.add_data("/a", "c1")
        fired = reg.fire_data("/a", EVENT_CHANGED)
        assert fired == [("c1", {"type": EVENT_CHANGED, "path": "/a"})]
        assert reg.fire_data("/a", EVENT_CHANGED) == []

    def test_multiple_clients(self):
        reg = WatchRegistry()
        reg.add_data("/a", "c2")
        reg.add_data("/a", "c1")
        fired = reg.fire_data("/a", EVENT_DELETED)
        assert [c for c, _ in fired] == ["c1", "c2"]

    def test_events_for_set(self):
        reg = WatchRegistry()
        reg.add_data("/p/x", "c1")
        reg.add_data("/p", "c2")     # the parent's watch stays put
        assert reg.events_for_txn("set", "/p/x") == [
            ("c1", {"type": EVENT_CHANGED, "path": "/p/x"})]
        assert reg.events_for_txn("set", "/p/x") == []
        assert reg.data_watches == {"/p": {"c2"}}

    def test_events_for_delete(self):
        reg = WatchRegistry()
        reg.add_data("/p/x", "c1")
        reg.add_data("/p", "c2")
        assert reg.events_for_txn("delete", "/p/x") == [
            ("c1", {"type": EVENT_DELETED, "path": "/p/x"})]
        assert reg.data_watches == {"/p": {"c2"}}

    def test_events_for_create(self):
        """A create fires nothing, on its path or its parent."""
        reg = WatchRegistry()
        reg.add_data("/p", "c1")
        assert reg.events_for_txn("create", "/p/x") == []
        assert reg.data_watches == {"/p": {"c1"}}
