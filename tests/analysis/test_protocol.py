"""Fixture suite and unit tests for the interprocedural analyzer.

Every protocol rule has a ``bad_<slug>.py`` fixture it must fire on
(and fire *alone* among the protocol rules) and a ``waived_<slug>.py``
twin where the same finding is suppressed by an inline ``# repro:
allow[rule-id]``.  Plus: dispatch-wrapper discovery, aliased
registration, recursive payload read-sets, the shared primitive table,
baseline round-trips, CLI behaviour, and the meta-checks that the
shipped tree analyzes clean and fast enough to ride the pytest plugin.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.protocol import PROTOCOL_RULES, render_method_table
from repro.analysis.report import (
    analyze,
    baseline_key,
    load_baseline,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures" / "protocol"
REPO = Path(__file__).resolve().parents[2]


def _slug(rule: str) -> str:
    return rule.replace("-", "_")


def _analyze(path: Path):
    """The protocol-rule findings on ``path`` (test_lint_rules.py pins
    the determinism rules on the same fixtures)."""
    return [v for v in analyze([path]).violations
            if v.rule in PROTOCOL_RULES]


@pytest.mark.parametrize("rule", sorted(PROTOCOL_RULES))
class TestPerRuleFixtures:
    def test_fires_on_bad_fixture(self, rule):
        violations = _analyze(FIXTURES / f"bad_{_slug(rule)}.py")
        hits = [v for v in violations if v.rule == rule]
        assert hits, f"{rule} did not fire on its bad fixture"
        assert not any(v.waived for v in hits)
        # Fixtures are single-rule by construction.
        assert {v.rule for v in violations} == {rule}, \
            [v.render() for v in violations]

    def test_waiver_suppresses_same_fault(self, rule):
        violations = _analyze(FIXTURES / f"waived_{_slug(rule)}.py")
        hits = [v for v in violations if v.rule == rule]
        assert hits, f"{rule} fixture with waiver no longer fires at all"
        assert all(v.waived for v in hits), \
            [v.render() for v in hits if not v.waived]


class TestInterprocedural:
    def test_unregistered_method_through_dispatch_wrapper(self, tmp_path):
        """Method literals routed through a forwarding wrapper still
        reach the conformance check (the Coordinator._replica_call
        pattern)."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.real', self._h)\n"
            "    def _h(self, src, args):\n"
            "        return 'ok'\n"
            "    def _request(self, method, args):\n"
            "        result = yield from self.rpc.call('peer', method,\n"
            "                                          args, timeout=1.0)\n"
            "        return result\n"
            "    def go(self):\n"
            "        a = yield from self._request('fx.real', {})\n"
            "        b = yield from self._request('fx.ghost', {})\n"
            "        return a, b\n", encoding="utf-8")
        violations = _analyze(tmp_path)
        assert [v.rule for v in violations] == ["rpc-unregistered-method"]
        assert "fx.ghost" in violations[0].message

    def test_aliased_registration_is_extracted(self, tmp_path):
        """``r = self.rpc.register; r("m", h)`` counts as a register
        site (the SednaNode/ZkServer idiom)."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        r = self.rpc.register\n"
            "        r('fx.alias', self._h)\n"
            "    def _h(self, src, args):\n"
            "        return 'ok'\n", encoding="utf-8")
        violations = _analyze(tmp_path)
        assert [v.rule for v in violations] == ["rpc-dead-handler"]
        assert "fx.alias" in violations[0].message

    def test_payload_read_set_follows_forwarded_args(self, tmp_path):
        """A handler that hands ``args`` to a helper inherits the
        helper's key reads (the node-handler -> coordinate pattern):
        the call site owes 'key' even though the handler body never
        subscripts args itself."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.fwd', self._h)\n"
            "    def _h(self, src, args):\n"
            "        return self._apply(args)\n"
            "    def _apply(self, args):\n"
            "        return args['key'], args.get('mode')\n"
            "    def go(self):\n"
            "        r = yield from self.rpc.call('peer', 'fx.fwd',\n"
            "                                     {'wrong': 1},\n"
            "                                     timeout=1.0)\n"
            "        return r\n", encoding="utf-8")
        violations = _analyze(tmp_path)
        assert {v.rule for v in violations} == {"rpc-payload-mismatch"}
        messages = " ".join(v.message for v in violations)
        assert "key" in messages and "wrong" in messages

    def test_method_table_is_read_as_data(self, tmp_path):
        """The op-table idiom (SednaNode + coordinator.OPS): ``for m in
        TABLE: register(m, partial(h, m))`` registers every key with
        ``h``; a row's lambdas contribute that method's payload reads;
        ``op.replica`` dispatched through a wrapper makes every row's
        ``replica="..."`` literal a call site whose payload is the dict
        its ``replica_args`` lambda builds."""
        (tmp_path / "mod.py").write_text(
            "from functools import partial\n"
            "def Row(**kw):\n"
            "    return kw\n"
            "TABLE = {\n"
            "    'fx.get': Row(items=lambda args: [args['key']],\n"
            "                  replica='fx.rget',\n"
            "                  replica_args=lambda v, args: {\n"
            "                      'vnode': v, 'key': args['key']}),\n"
            "    'fx.put': Row(items=lambda args: [args],\n"
            "                  replica='fx.rput',\n"
            "                  replica_args=lambda v, args: {\n"
            "                      'vnode': v, 'value': args['value'],\n"
            "                      'extra': 1}),\n"
            "}\n"
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        r = self.rpc.register\n"
            "        for method in TABLE:\n"
            "            r(method, partial(self._h, method))\n"
            "        r('fx.rget', self._rget)\n"
            "        r('fx.rput', self._rput)\n"
            "    def _h(self, method, src, args):\n"
            "        op = TABLE[method]\n"
            "        return self._send('peer', op.replica,\n"
            "                          op.replica_args(0, args))\n"
            "    def _send(self, dst, method, payload):\n"
            "        return self.rpc.call_async(dst, method, payload)\n"
            "    def _rget(self, src, args):\n"
            "        return args['vnode'], args['key']\n"
            "    def _rput(self, src, args):\n"
            "        return args['vnode'], args['value']\n"
            "    def go(self):\n"
            "        a = self.rpc.call_async('peer', 'fx.get', {'key': 1})\n"
            "        b = self.rpc.call_async('peer', 'fx.put', {'key': 1})\n"
            "        return a, b\n", encoding="utf-8")
        report = analyze([tmp_path])
        table = {row["method"]: row
                 for row in report.protocol.method_table()}
        assert set(table) == {"fx.get", "fx.put", "fx.rget", "fx.rput"}
        assert table["fx.get"]["handler"].endswith("C._h")
        assert table["fx.rget"]["callers"], "row literal is a call site"
        violations = report.violations
        assert {v.rule for v in violations} == {"rpc-payload-mismatch"}
        messages = sorted(v.message for v in violations)
        assert len(messages) == 2, messages
        # fx.put's row reads args['value']; the go() payload omits it.
        assert "'fx.put' omits key(s) ['value']" in messages[0]
        # fx.rput's row builds a key its handler never reads.
        assert "'fx.rput' passes key(s) ['extra']" in messages[1]

    def test_wrapper_that_catches_guards_its_call_sites(self, tmp_path):
        """A wrapper forwarding inside ``try/except RpcTimeout`` without
        ever raising (the SednaClient._op pattern) hides rpc failures
        from its callers; one that retries and re-raises does not."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, sim, rpc):\n"
            "        self.sim = sim\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.p', self._h)\n"
            "        self.sim.process(self._safe(), name='a')\n"
            "        self.sim.process(self._unsafe(), name='b')\n"
            "    def _h(self, src, args):\n"
            "        return 'ok'\n"
            "    def _quiet(self, method, args):\n"
            "        try:\n"
            "            r = yield from self.rpc.call('peer', method, args,\n"
            "                                         timeout=1.0)\n"
            "        except RpcTimeout:\n"
            "            r = None\n"
            "        return r\n"
            "    def _retry(self, method, args):\n"
            "        for _ in range(2):\n"
            "            try:\n"
            "                r = yield from self.rpc.call(\n"
            "                    'peer', method, args, timeout=1.0)\n"
            "                return r\n"
            "            except RpcTimeout as err:\n"
            "                last = err\n"
            "        raise last\n"
            "    def _safe(self):\n"
            "        r = yield from self._quiet('fx.p', {})\n"
            "        return r\n"
            "    def _unsafe(self):\n"
            "        r = yield from self._retry('fx.p', {})\n"
            "        return r\n", encoding="utf-8")
        violations = _analyze(tmp_path)
        assert [v.rule for v in violations] == ["rpc-unhandled-failure"]
        assert "_unsafe" in violations[0].message

    def test_dict_copy_with_added_keys_resolves(self, tmp_path):
        """``retry = dict(payload); retry['extra'] = 1`` resolves to
        the source dict's keys plus the addition (coordinator retry
        idiom) -- no false mismatch."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.w', self._h)\n"
            "    def _h(self, src, args):\n"
            "        return args['key'], args.get('extra')\n"
            "    def go(self):\n"
            "        payload = {'key': 1}\n"
            "        retry = dict(payload)\n"
            "        retry['extra'] = 1\n"
            "        r = yield from self.rpc.call('peer', 'fx.w', retry,\n"
            "                                     timeout=1.0)\n"
            "        return r\n", encoding="utf-8")
        assert _analyze(tmp_path) == []

    def test_spread_of_a_helper_built_bundle_resolves(self, tmp_path):
        """``{"vnode": v, **bundle}`` with ``bundle`` bound to a helper
        whose every ``return`` is a dict display (the ``_export_rows``
        -> ``replica.install`` shape) resolves to the helper's keys: a
        helper that drops a required key is flagged at the call site,
        a complete one (spread inline, through ``yield from``) is
        clean."""
        violations = _analyze(FIXTURES / "bad_rpc_payload_spread.py")
        assert [v.rule for v in violations] == ["rpc-payload-mismatch"]
        assert "['rows']" in violations[0].message
        assert "omits" in violations[0].message
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, rpc):\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.install', self._h)\n"
            "    def _h(self, src, args):\n"
            "        return args['vnode'], args['rows'], args.get('lww')\n"
            "    def _export(self, keys):\n"
            "        yield from ()\n"
            "        return {'rows': {}, 'lww': {}}\n"
            "    def go(self):\n"
            "        r = yield from self.rpc.call(\n"
            "            'peer', 'fx.install',\n"
            "            {'vnode': 7, **(yield from self._export([]))},\n"
            "            timeout=1.0)\n"
            "        return r\n", encoding="utf-8")
        assert _analyze(tmp_path) == []

    def test_try_on_caller_level_protects_failure_escape(self, tmp_path):
        """A try/except RpcTimeout one frame up the call chain keeps
        rpc-unhandled-failure quiet."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, sim, rpc):\n"
            "        self.sim = sim\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.p', self._h)\n"
            "        self.sim.process(self._loop(), name='x')\n"
            "    def _h(self, src, args):\n"
            "        return 'ok'\n"
            "    def _loop(self):\n"
            "        while True:\n"
            "            try:\n"
            "                yield from self._probe()\n"
            "            except RpcTimeout:\n"
            "                pass\n"
            "    def _probe(self):\n"
            "        r = yield from self.rpc.call('peer', 'fx.p', {},\n"
            "                                     timeout=1.0)\n"
            "        return r\n", encoding="utf-8")
        assert _analyze(tmp_path) == []

    def test_call_retry_is_accepted_mitigation(self, tmp_path):
        """call_retry sites never feed rpc-unhandled-failure."""
        (tmp_path / "mod.py").write_text(
            "class C:\n"
            "    def __init__(self, sim, rpc):\n"
            "        self.sim = sim\n"
            "        self.rpc = rpc\n"
            "        self.rpc.register('fx.p', self._h)\n"
            "        self.sim.process(self._loop(), name='x')\n"
            "    def _h(self, src, args):\n"
            "        return 'ok'\n"
            "    def _loop(self):\n"
            "        r = yield from self.rpc.call_retry('peer', 'fx.p',\n"
            "                                           {}, timeout=1.0)\n"
            "        yield r\n", encoding="utf-8")
        assert _analyze(tmp_path) == []

    def test_taint_does_not_cross_out_of_digest_closure(self, tmp_path):
        """A wall-clock read in a function *not* reachable from the
        digest surface is the per-file lint's business, not taint."""
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "class History:\n"
            "    def digest(self):\n"
            "        return 'clean'\n"
            "def unrelated():\n"
            "    return time.time()\n", encoding="utf-8")
        assert _analyze(tmp_path) == []

    def test_taint_uses_the_determinism_primitive_table(self):
        """digest-taint and the determinism rules share one primitive
        table: a CPU clock and ``uuid.uuid1()`` in the digest closure
        are tainted, a seeded ``random.Random(7)`` is not."""
        violations = _analyze(FIXTURES / "bad_digest_taint_primitives.py")
        assert [(v.rule, v.line, v.waived) for v in violations] == [
            ("digest-taint", 18, False), ("digest-taint", 22, False)]
        assert "time.process_time()" in violations[0].message
        assert "uuid.uuid1()" in violations[1].message
        assert analyze(
            [FIXTURES / "good_digest_taint_seeded.py"]).violations == []


class TestBaseline:
    def test_round_trip_and_matching(self, tmp_path):
        violations = _analyze(FIXTURES / "bad_rpc_dead_handler.py")
        path = tmp_path / "baseline.json"
        write_baseline(path, violations)
        known = load_baseline(path)
        assert known == {baseline_key(v) for v in violations}

    def test_baseline_keys_carry_no_line_numbers(self, tmp_path):
        violations = _analyze(FIXTURES / "bad_rpc_dead_handler.py")
        path = tmp_path / "baseline.json"
        write_baseline(path, violations)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["version"] == 1
        assert all(set(f) == {"rule", "path", "message"}
                   for f in data["findings"])

    def test_cli_baseline_suppresses_known_findings(self, tmp_path,
                                                    capsys):
        fixture = FIXTURES / "bad_rpc_dead_handler.py"
        baseline = tmp_path / "baseline.json"
        assert main([str(fixture), "--write-baseline", "--baseline",
                     str(baseline)]) == 0
        assert main([str(fixture), "--baseline", str(baseline)]) == 0
        # Without the baseline the same finding is fatal again.
        assert main([str(fixture), "--baseline",
                     str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()


class TestCli:
    def test_exit_status_counts_new_findings(self, capsys):
        assert main([str(FIXTURES / "bad_generator_dropped.py")]) == 1
        assert main([str(FIXTURES / "waived_generator_dropped.py")]) == 0
        capsys.readouterr()

    def test_json_format(self, capsys):
        main([str(FIXTURES / "bad_rpc_no_yield_from.py"), "--json"])
        out = capsys.readouterr().out
        findings = json.loads(out)
        assert findings and findings[0]["rule"] == "rpc-no-yield-from"

    def test_table_lists_registered_methods(self, capsys):
        main([str(FIXTURES / "bad_rpc_dead_handler.py"), "--table"])
        out = capsys.readouterr().out
        assert "| `fx.used` |" in out
        assert "*(dead)*" in out  # fx.dead has no caller anywhere


class TestRealTree:
    def test_shipped_tree_is_clean_and_fast(self, repo_analysis):
        report, elapsed = repo_analysis
        assert report.new == [], [v.render() for v in report.new]
        assert "0 new finding(s), 0 baselined" in report.summary()
        # Acceptance bound: viable as a pytest-plugin pass.
        assert elapsed < 10.0, f"analysis took {elapsed:.1f}s"

    def test_wire_surface_extraction_is_complete(self, repo_analysis):
        report, _ = repo_analysis
        methods = {r["method"] for r in report.protocol.method_table()}
        # Spot-check the protocol families documented in
        # docs/protocols.md; renames must show up here.
        for expected in ("sedna.write", "sedna.cread", "replica.write",
                         "replica.ping", "replica.fetch", "migrate.begin",
                         "zk.propose", "zk.vote_req", "mc.get",
                         "stats.vnodes"):
            assert expected in methods, expected
        # The notify-path zk control messages must NOT be RPC methods.
        assert "zk.commit" not in methods
        assert "zk.new_leader" not in methods

    def test_known_dispatch_wrappers_are_discovered(self, repo_analysis):
        wrappers = set(repo_analysis[0].protocol.wrappers)
        for expected in ("repro.core.coordinator.QuorumCoordinator"
                         "._replica_call",
                         "repro.core.client.SednaClient._request",
                         "repro.zk.client.ZkClient._call",
                         "repro.zk.server.ZkServer._forward"):
            assert expected in wrappers, sorted(wrappers)


class TestGeneratedDocsTable:
    def test_docs_table_matches_extraction(self, repo_analysis):
        """Drift check: docs/protocols.md carries the generated wire
        table verbatim; regenerate with
        ``python -m repro.analysis --table``."""
        rendered = render_method_table(
            repo_analysis[0].protocol.method_table())
        docs = (REPO / "docs" / "protocols.md").read_text(encoding="utf-8")
        assert rendered in docs, (
            "docs/protocols.md RPC table is stale; regenerate with "
            "'python -m repro.analysis --table' and paste "
            "between the markers")
