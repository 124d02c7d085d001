"""Interprocedural protocol passes of ``python -m repro.analysis``.

Three passes over one shared :class:`repro.analysis.index.ProjectIndex`:

**Pass A -- RPC conformance.**  Extracts the static registry of
``register("<method>", handler)`` sites (including the aliased
``r = self.rpc.register`` idiom and lambda handlers) and every
``rpc.call`` / ``call_retry`` / ``call_async`` / ``notify`` site --
including sites that route through *dispatch wrappers* such as
``Coordinator._replica_call(replica, method, args)``, discovered by a
fixpoint over functions that forward a parameter into the method slot
of a known RPC sink.  Flags calls to never-registered methods, dead
handlers no caller ever invokes, and payload-shape mismatches (dict
keys built at the call site diffed against the ``args[...]`` /
``args.get(...)`` keys the handler transitively reads).

**Pass B -- yield discipline.**  The RPC generator protocol is easy to
hold wrong: ``rpc.call`` without ``yield from`` silently does nothing.
Flags exactly that, generator results dropped on the floor, raw
``rpc.call`` sites whose ``RpcTimeout``/``RpcRejected`` can escape all
the way to a ``sim.process`` target with no ``try`` on the path and no
``call_retry`` mitigation, and handlers registered from inside a
running generator process (the late-registration window).

**Pass C -- digest-purity taint.**  Whole-program extension of the
per-file determinism rules: walks the transitive callee closure of the
golden-digest surface (``History``/``OpRecord``/``FinalState`` methods
and any ``digest``-named function) and flags the nondeterminism
primitives of :func:`repro.analysis.lint.primitive` (wall clock,
process-global random and uuid, builtin ``hash``) anywhere in that
closure -- even two calls away from the recorded state, and even if
the line carries a waiver for a *different* rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .index import (
    FunctionInfo,
    ProjectIndex,
    SourceFile,
    Violation,
    dotted,
    own_nodes,
)
from .lint import primitive

__all__ = [
    "PROTOCOL_RULES",
    "RegisterSite",
    "CallSite",
    "ProtocolAnalyzer",
    "render_method_table",
]

PROTOCOL_RULES: Dict[str, str] = {
    "rpc-unregistered-method":
        "rpc call to a method no register() site ever registers",
    "rpc-dead-handler":
        "registered handler that no call site ever invokes",
    "rpc-payload-mismatch":
        "call-site payload keys disagree with the keys the handler reads",
    "rpc-no-yield-from":
        "generator rpc call (call/call_retry) not driven via yield from",
    "generator-dropped":
        "generator function called as a bare statement; result dropped",
    "rpc-unhandled-failure":
        "RpcTimeout/RpcRejected can escape to a sim.process target "
        "(no enclosing try, no call_retry)",
    "rpc-late-registration":
        "handler registered inside a generator process; register all "
        "handlers before the endpoint serves traffic",
    "digest-taint":
        "nondeterminism primitive reachable from the golden-digest surface",
}

# RPC sink primitives, by attribute name on an ``*.rpc`` chain.
# ``raises``: the call can surface RpcTimeout/RpcRejected at the site.
# ``generator``: the call returns a generator that must be yield-from'd.
# call_retry raises too on final failure, but the issue's contract --
# and this analyzer's -- is that bounded-retry wrappers count as the
# mitigation, so only raw ``call`` feeds rpc-unhandled-failure.
_BASES: Dict[str, Dict[str, bool]] = {
    "call": {"generator": True, "raises": True},
    "call_retry": {"generator": True, "raises": False},
    "call_async": {"generator": False, "raises": False},
    "notify": {"generator": False, "raises": False},
}

# Direct sites: (dst, method, args, ...) -> method at 1, payload at 2.
_DIRECT_METHOD_IDX = 1
_DIRECT_PAYLOAD_IDX = 2

_PROTECTIVE_EXCEPTIONS: FrozenSet[str] = frozenset(
    {"RpcTimeout", "RpcRejected", "RpcError", "Exception", "BaseException"})

_MODULE_NAME_SELF = "repro.net.rpc"  # the rpc layer itself is not a site


@dataclass
class RegisterSite:
    """One ``register("<method>", handler)`` call."""

    method: Optional[str]          # None when the name is dynamic
    sfile: SourceFile
    node: ast.Call
    owner: Optional[FunctionInfo]  # enclosing function, e.g. _register_rpc
    handler: Optional[FunctionInfo] = None
    handler_lambda: Optional[ast.Lambda] = None
    # Registered from a method table: the table's file and this
    # method's row, whose lambdas read the payload on its behalf.
    row_file: Optional[SourceFile] = None
    row: Optional[ast.expr] = None

    @property
    def line(self) -> int:
        return self.node.lineno

    def handler_label(self) -> str:
        if self.handler is not None:
            return self.handler.qualname
        if self.handler_lambda is not None:
            return "<lambda>"
        return "<dynamic>"


@dataclass
class CallSite:
    """One rpc call site, direct or through a dispatch wrapper."""

    method: Optional[str]          # None when the name is dynamic
    base: str                      # 'call' | 'call_retry' | 'call_async' | 'notify'
    sfile: SourceFile
    node: ast.Call
    caller: Optional[FunctionInfo]
    payload: Optional[ast.expr]
    via: Optional[str] = None      # wrapper qualname, if routed through one
    guarded: bool = False          # the wrapper catches the rpc errors
    row: Optional[ast.Call] = None  # method-table row naming the method

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def anchor(self) -> ast.Call:
        """Where conformance findings point: the table row that names
        the method when there is one, else the call itself."""
        return self.row if self.row is not None else self.node

    @property
    def generator(self) -> bool:
        return _BASES[self.base]["generator"]

    @property
    def raises(self) -> bool:
        return _BASES[self.base]["raises"] and not self.guarded


@dataclass
class _Wrapper:
    """A function forwarding a parameter into an RPC method slot."""

    info: FunctionInfo
    method_param: str
    payload_param: Optional[str]
    base: str
    guarded: bool = False          # forwards inside a try catching rpc errors

    def method_idx(self) -> int:
        return self.info.call_params().index(self.method_param)

    def payload_idx(self) -> Optional[int]:
        if self.payload_param is None:
            return None
        return self.info.call_params().index(self.payload_param)


@dataclass
class _ReadSet:
    """Keys a handler reads from its payload argument."""

    required: Set[str] = field(default_factory=set)
    optional: Set[str] = field(default_factory=set)
    opaque: bool = False           # payload escapes; unread-key check off

    def merge(self, other: "_ReadSet") -> None:
        self.required |= other.required
        self.optional |= other.optional
        self.opaque = self.opaque or other.opaque


def _is_rpc_chain(node: ast.expr) -> bool:
    """True for value chains like ``self.rpc`` / ``node.rpc`` / ``self._rpc``."""
    chain = dotted(node)
    if chain is None:
        return False
    parts = chain.split(".")
    return "rpc" in parts or "_rpc" in parts


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_arg(call: ast.Call, idx: int, name: str) -> Optional[ast.expr]:
    """Positional-or-keyword argument lookup, ``None`` past ``*args``."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if idx < len(call.args):
        arg = call.args[idx]
        if isinstance(arg, ast.Starred):
            return None
        if any(isinstance(a, ast.Starred) for a in call.args[:idx]):
            return None
        return arg
    return None


class ProtocolAnalyzer:
    """Runs the three passes over a built :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.registers: List[RegisterSite] = []
        self.calls: List[CallSite] = []
        self.wrappers: Dict[str, _Wrapper] = {}
        self.violations: List[Violation] = []
        self._reads_cache: Dict[Tuple[str, str], _ReadSet] = {}
        # Method tables: name -> [(file, dict literal)], project-wide.
        self.tables: Dict[str, List[Tuple[SourceFile, ast.Dict]]] = {}
        self._collect_tables()
        self._collect_register_and_direct_sites()
        self._discover_wrappers()
        self._collect_wrapper_sites()

    # -- shared helpers ------------------------------------------------

    def _flag(self, rule: str, sfile: SourceFile, node: ast.AST,
              message: str) -> None:
        if not sfile.call_site_only:
            self.violations.append(sfile.flag(rule, node, message))

    # -- site extraction -----------------------------------------------

    def _collect_register_and_direct_sites(self) -> None:
        for sfile in self.index.files:
            if sfile.module == _MODULE_NAME_SELF:
                continue
            aliases = self._register_aliases(sfile)
            for node in ast.walk(sfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                caller = sfile.enclosing_function(node)
                if self._is_register_call(sfile, node, caller, aliases):
                    self._add_register_site(sfile, node, caller)
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _BASES \
                        and _is_rpc_chain(func.value):
                    self._add_direct_site(sfile, node, caller, func.attr)

    def _register_aliases(
            self, sfile: SourceFile) -> Dict[Optional[int], Set[str]]:
        """Names bound to ``*.rpc.register`` (``r = self.rpc.register``),
        keyed by id() of the enclosing function node (None = module)."""
        aliases: Dict[Optional[int], Set[str]] = {}
        for node in ast.walk(sfile.tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (isinstance(value, ast.Attribute)
                    and value.attr == "register"
                    and _is_rpc_chain(value.value)):
                continue
            owner = sfile.enclosing_function(node)
            key = id(owner.node) if owner is not None else None
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(key, set()).add(target.id)
        return aliases

    def _is_register_call(
        self,
        sfile: SourceFile,
        node: ast.Call,
        caller: Optional[FunctionInfo],
        aliases: Dict[Optional[int], Set[str]],
    ) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr == "register" and _is_rpc_chain(func.value)
        if isinstance(func, ast.Name):
            key = id(caller.node) if caller is not None else None
            return func.id in aliases.get(key, ())
        return False

    def _collect_tables(self) -> None:
        """Module-level ``NAME = {"<method>": <row>, ...}`` literals."""
        for sfile in self.index.files:
            for stmt in sfile.tree.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target: ast.expr = stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                else:
                    continue
                value = stmt.value
                if isinstance(target, ast.Name) \
                        and isinstance(value, ast.Dict) and value.keys \
                        and all(_const_str(k) is not None
                                for k in value.keys):
                    self.tables.setdefault(target.id, []) \
                        .append((sfile, value))

    def _table_rows(
        self, sfile: SourceFile, node: ast.AST, name: str,
    ) -> List[Tuple[str, Optional[SourceFile], Optional[ast.expr]]]:
        """``(method, table file, row)`` per row of the method table
        ``name`` iterates over -- when ``name`` is the variable of an
        enclosing ``for name in TABLE`` and TABLE is the one table of
        that name (here or imported); else nothing."""
        parent = sfile.parent(node)
        while parent is not None:
            if isinstance(parent, ast.For) \
                    and isinstance(parent.target, ast.Name) \
                    and parent.target.id == name \
                    and isinstance(parent.iter, ast.Name):
                hits = self.tables.get(parent.iter.id, [])
                hits = [h for h in hits if h[0] is sfile] or hits
                if len(hits) != 1:
                    return []
                table_file, table = hits[0]
                return [(_const_str(k) or "", table_file, row)
                        for k, row in zip(table.keys, table.values)]
            parent = sfile.parent(parent)
        return []

    def _add_register_site(self, sfile: SourceFile, node: ast.Call,
                           owner: Optional[FunctionInfo]) -> None:
        method_expr = _call_arg(node, 0, "method")
        handler_expr = _call_arg(node, 1, "handler")
        # partial(handler, <bound args>) registers ``handler``.
        if isinstance(handler_expr, ast.Call) and handler_expr.args \
                and (dotted(handler_expr.func) or "").split(".")[-1] \
                == "partial":
            handler_expr = handler_expr.args[0]
        handler = None
        handler_lambda = None
        if isinstance(handler_expr, ast.Lambda):
            handler_lambda = handler_expr
        elif handler_expr is not None:
            handler = self._resolve_handler(sfile, owner, handler_expr)
        sites: List[Tuple[str, Optional[SourceFile], Optional[ast.expr]]] = []
        if isinstance(method_expr, ast.Name):
            sites = self._table_rows(sfile, node, method_expr.id)
        for method, row_file, row in sites or [
                (_const_str(method_expr), None, None)]:
            self.registers.append(RegisterSite(
                method=method, sfile=sfile, node=node, owner=owner,
                handler=handler, handler_lambda=handler_lambda,
                row_file=row_file, row=row))

    def _resolve_handler(
        self,
        sfile: SourceFile,
        owner: Optional[FunctionInfo],
        expr: ast.expr,
    ) -> Optional[FunctionInfo]:
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id in ("self", "cls") \
                    and owner is not None and owner.cls is not None:
                hit = self.index.methods.get(
                    (sfile.module, owner.cls, expr.attr))
                if hit is not None:
                    return hit
            candidates = self.index.by_name.get(expr.attr, [])
            return candidates[0] if len(candidates) == 1 else None
        if isinstance(expr, ast.Name):
            hit = self.index.module_level.get((sfile.module, expr.id))
            if hit is not None:
                return hit
            candidates = self.index.by_name.get(expr.id, [])
            return candidates[0] if len(candidates) == 1 else None
        return None

    def _add_direct_site(self, sfile: SourceFile, node: ast.Call,
                         caller: Optional[FunctionInfo], base: str) -> None:
        if base == "notify":
            # notify(dst, payload): no method name, no registry entry.
            self.calls.append(CallSite(
                method=None, base=base, sfile=sfile, node=node,
                caller=caller, payload=_call_arg(node, 1, "payload")))
            return
        method_expr = _call_arg(node, _DIRECT_METHOD_IDX, "method")
        self.calls.append(CallSite(
            method=_const_str(method_expr), base=base, sfile=sfile,
            node=node, caller=caller,
            payload=_call_arg(node, _DIRECT_PAYLOAD_IDX, "args")))

    # -- dispatch-wrapper fixpoint -------------------------------------

    def _discover_wrappers(self) -> None:
        """Fixpoint: a function whose parameter flows into the method
        slot of a known sink (a direct rpc call, or a previously found
        wrapper) is itself a dispatch wrapper."""
        changed = True
        while changed:
            changed = False
            # Direct sites with a parameter in the method slot.
            for site in self.calls:
                if site.base == "notify" or site.caller is None:
                    continue
                method_expr = _call_arg(
                    site.node, _DIRECT_METHOD_IDX, "method")
                changed |= self._note_forward(
                    site.caller, method_expr, site.payload, site.base,
                    self._protected(site.sfile, site.node))
            # Calls into known wrappers with a parameter forwarded on.
            for sfile in self.index.files:
                for node in ast.walk(sfile.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    caller = sfile.enclosing_function(node)
                    if caller is None:
                        continue
                    inner = self._wrapper_target(sfile, caller, node)
                    if inner is None or inner.info is caller:
                        continue
                    method_expr = _call_arg(
                        node, inner.method_idx(), inner.method_param)
                    payload_idx = inner.payload_idx()
                    payload_expr = None if payload_idx is None else _call_arg(
                        node, payload_idx, inner.payload_param or "")
                    changed |= self._note_forward(
                        caller, method_expr, payload_expr, inner.base,
                        inner.guarded or self._protected(sfile, node))

    def _note_forward(
        self,
        caller: FunctionInfo,
        method_expr: Optional[ast.expr],
        payload_expr: Optional[ast.expr],
        base: str,
        protected: bool,
    ) -> bool:
        """Record that ``caller`` forwards its own parameter into a
        method slot; True when that changed what we know.

        A wrapper is *guarded* -- its call sites cannot see an rpc
        failure -- only when every forward in it sits inside a ``try``
        that catches rpc errors and the function never raises itself
        (a retry loop that re-raises the last error is not a guard).
        """
        if not (isinstance(method_expr, ast.Name)
                and method_expr.id in caller.call_params()):
            return False
        known = self.wrappers.get(caller.qualname)
        if known is not None:
            if known.guarded and not protected:
                known.guarded = False
                return True
            return False
        payload_param = None
        if isinstance(payload_expr, ast.Name) \
                and payload_expr.id in caller.call_params():
            payload_param = payload_expr.id
        self.wrappers[caller.qualname] = _Wrapper(
            info=caller, method_param=method_expr.id,
            payload_param=payload_param, base=base,
            guarded=protected and not any(
                isinstance(n, ast.Raise) for n in own_nodes(caller.node)))
        return True

    def _wrapper_target(
        self,
        sfile: SourceFile,
        caller: Optional[FunctionInfo],
        node: ast.Call,
    ) -> Optional[_Wrapper]:
        for target in self.index.resolve_call(sfile, caller, node):
            wrapper = self.wrappers.get(target.qualname)
            if wrapper is not None:
                return wrapper
        return None

    def _collect_wrapper_sites(self) -> None:
        """Second sweep: calls into discovered wrappers become sites."""
        for sfile in self.index.files:
            for node in ast.walk(sfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                caller = sfile.enclosing_function(node)
                wrapper = self._wrapper_target(sfile, caller, node)
                if wrapper is None:
                    continue
                method_expr = _call_arg(
                    node, wrapper.method_idx(), wrapper.method_param)
                # A wrapper forwarding its own method parameter into
                # another wrapper is a hop, not a leaf call site.
                if isinstance(method_expr, ast.Name) \
                        and caller is not None \
                        and method_expr.id in caller.params:
                    continue
                if isinstance(method_expr, ast.Attribute):
                    # ``op.replica``: every row of this module's method
                    # tables naming a method in that field is a site.
                    for row, literal, payload in self._row_methods(
                            sfile, method_expr.attr):
                        self.calls.append(CallSite(
                            method=literal, base=wrapper.base, sfile=sfile,
                            node=node, caller=caller, payload=payload,
                            via=wrapper.info.qualname,
                            guarded=wrapper.guarded, row=row))
                    continue
                payload_idx = wrapper.payload_idx()
                payload = None if payload_idx is None else _call_arg(
                    node, payload_idx, wrapper.payload_param or "")
                self.calls.append(CallSite(
                    method=_const_str(method_expr), base=wrapper.base,
                    sfile=sfile, node=node, caller=caller, payload=payload,
                    via=wrapper.info.qualname, guarded=wrapper.guarded))

    def _row_methods(
        self, sfile: SourceFile, field_name: str,
    ) -> List[Tuple[ast.Call, str, Optional[ast.expr]]]:
        """(row, method literal, payload dict) for every row of the
        module's method tables with a ``field_name="<method>"`` keyword;
        the payload is the dict a ``<field_name>_args`` lambda builds."""
        found: List[Tuple[ast.Call, str, Optional[ast.expr]]] = []
        for hits in self.tables.values():
            for table_file, table in hits:
                if table_file is not sfile:
                    continue
                for row in table.values:
                    if not isinstance(row, ast.Call):
                        continue
                    keywords = {kw.arg: kw.value for kw in row.keywords}
                    literal = _const_str(keywords.get(field_name))
                    if literal is None:
                        continue
                    builder = keywords.get(f"{field_name}_args")
                    payload = builder.body if isinstance(
                        builder, ast.Lambda) else None
                    found.append((row, literal, payload))
        return found

    # -- pass A: rpc conformance ---------------------------------------

    def check_conformance(self) -> None:
        registry: Dict[str, List[RegisterSite]] = {}
        for site in self.registers:
            if site.method is not None:
                registry.setdefault(site.method, []).append(site)
        called: Set[str] = {c.method for c in self.calls
                            if c.method is not None}

        for call in self.calls:
            if call.method is None or call.base == "notify":
                continue
            if call.method not in registry:
                self._flag(
                    "rpc-unregistered-method", call.sfile, call.anchor,
                    f"rpc method '{call.method}' is never registered "
                    f"by any register() site")

        for site in self.registers:
            if site.method is None:
                continue
            if site.method not in called:
                self._flag(
                    "rpc-dead-handler", site.sfile, site.node,
                    f"handler {site.handler_label()} for "
                    f"'{site.method}' has no call site anywhere "
                    f"(src, tests, or benchmarks)")

        self._check_payload_shapes(registry)

    def _check_payload_shapes(
            self, registry: Dict[str, List[RegisterSite]]) -> None:
        for call in self.calls:
            if call.method is None or call.base == "notify":
                continue
            sites = registry.get(call.method, [])
            if len(sites) != 1:
                continue
            reads = self._handler_reads(sites[0])
            if reads is None:
                continue
            keys = self._payload_keys(call)
            if keys is None:
                continue
            handler = sites[0].handler_label()
            missing = sorted(reads.required - keys)
            if missing:
                self._flag(
                    "rpc-payload-mismatch", call.sfile, call.anchor,
                    f"payload for '{call.method}' omits key(s) "
                    f"{missing} read unconditionally by {handler}")
            if not reads.opaque:
                unread = sorted(keys - reads.required - reads.optional)
                if unread:
                    self._flag(
                        "rpc-payload-mismatch", call.sfile, call.anchor,
                        f"payload for '{call.method}' passes key(s) "
                        f"{unread} that {handler} never reads")

    # handler read-set computation -------------------------------------

    def _handler_reads(self, site: RegisterSite) -> Optional[_ReadSet]:
        if site.handler_lambda is not None:
            lam = site.handler_lambda
            params = [a.arg for a in lam.args.args]
            if not params:
                return None
            return self._reads_in(site.sfile, lam, params[-1], depth=0,
                                  seen=set())
        if site.handler is not None:
            info = site.handler
            params = list(info.params)
            if not params:
                return None
            reads = self._function_reads(info, params[-1], depth=0,
                                         seen=set())
            if isinstance(site.row, ast.Call) and site.row_file is not None:
                # A table row's lambdas read the payload on this
                # method's behalf, under the handler's parameter name.
                merged = _ReadSet()
                merged.merge(reads)
                for kw in site.row.keywords:
                    if isinstance(kw.value, ast.Lambda) and params[-1] in [
                            a.arg for a in kw.value.args.args]:
                        merged.merge(self._reads_in(
                            site.row_file, kw.value, params[-1], depth=0,
                            seen=set()))
                return merged
            return reads
        return None

    def _function_reads(self, info: FunctionInfo, param: str, depth: int,
                        seen: Set[str]) -> _ReadSet:
        cache_key = (info.qualname, param)
        cached = self._reads_cache.get(cache_key)
        if cached is not None:
            return cached
        sfile = self.index.file_of(info)
        if sfile is None or depth > 6 or cache_key[0] in seen:
            return _ReadSet(opaque=True)
        seen = seen | {info.qualname}
        reads = self._reads_in(sfile, info.node, param, depth, seen)
        self._reads_cache[cache_key] = reads
        return reads

    def _reads_in(self, sfile: SourceFile, scope: ast.AST, param: str,
                  depth: int, seen: Set[str]) -> _ReadSet:
        reads = _ReadSet()
        for node in own_nodes(scope):
            if not (isinstance(node, ast.Name) and node.id == param):
                continue
            parent = sfile.parent(node)
            if self._classify_param_use(sfile, node, parent, reads,
                                        depth, seen):
                continue
            reads.opaque = True
        return reads

    def _classify_param_use(
        self,
        sfile: SourceFile,
        node: ast.Name,
        parent: Optional[ast.AST],
        reads: _ReadSet,
        depth: int,
        seen: Set[str],
    ) -> bool:
        """Fold one use of the payload name into ``reads``.

        Returns False for uses we cannot account for (the payload
        escapes), which makes the read set opaque.
        """
        # args["key"] -- a required read; args["key"] = v is a write.
        if isinstance(parent, ast.Subscript) and parent.value is node:
            key = _const_str(parent.slice)
            if key is None:
                return False
            if isinstance(parent.ctx, ast.Load):
                reads.required.add(key)
            return True
        # args.get("key" [, default]) / "key" in args
        if isinstance(parent, ast.Attribute) and parent.value is node:
            grand = sfile.parent(parent)
            if parent.attr == "get" and isinstance(grand, ast.Call) \
                    and grand.func is parent and grand.args:
                key = _const_str(grand.args[0])
                if key is not None:
                    reads.optional.add(key)
                    return True
            return False
        if isinstance(parent, ast.Compare) \
                and any(isinstance(op, (ast.In, ast.NotIn))
                        for op in parent.ops) \
                and node in parent.comparators:
            key = _const_str(parent.left)
            if key is not None:
                reads.optional.add(key)
                return True
            return False
        # Forwarded into another function we can resolve: recurse and
        # fold the callee's reads in.  ``dict(args)`` and anything we
        # cannot resolve leaves the set opaque.
        if isinstance(parent, ast.Call) and node in parent.args:
            caller = sfile.enclosing_function(node)
            targets = self.index.resolve_call(sfile, caller, parent)
            if len(targets) == 1:
                target = targets[0]
                idx = parent.args.index(node)
                call_params = target.call_params()
                if idx < len(call_params):
                    reads.merge(self._function_reads(
                        target, call_params[idx], depth + 1, seen))
                    return True
            return False
        return False

    # call-site payload keys -------------------------------------------

    def _payload_keys(self, call: CallSite) -> Optional[Set[str]]:
        if call.payload is None:
            return None
        return self._keys_of_expr(call.sfile, call.caller, call.payload,
                                  depth=0)

    def _keys_of_expr(self, sfile: SourceFile,
                      caller: Optional[FunctionInfo],
                      expr: ast.expr, depth: int) -> Optional[Set[str]]:
        if depth > 4:
            return None
        if isinstance(expr, ast.Dict):
            keys: Set[str] = set()
            for key, value in zip(expr.keys, expr.values):
                if key is None:          # {**spread}: the spread's keys
                    spread = self._keys_of_expr(sfile, caller, value,
                                                depth + 1)
                    if spread is None:
                        return None
                    keys |= spread
                    continue
                literal = _const_str(key)
                if literal is None:
                    return None
                keys.add(literal)
            return keys
        if isinstance(expr, ast.YieldFrom):     # a generator helper
            expr = expr.value
        # dict(other) copies: resolve the source, then pick up any
        # name["k"] = ... additions the caller makes before sending.
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id == "dict" and len(expr.args) == 1 \
                and not expr.keywords:
            return self._keys_of_expr(sfile, caller, expr.args[0],
                                      depth + 1)
        if isinstance(expr, ast.Name) and caller is not None:
            return self._keys_of_name(sfile, caller, expr.id, depth)
        if isinstance(expr, ast.Call):
            return self._keys_of_return(sfile, caller, expr, depth)
        return None

    def _keys_of_return(self, sfile: SourceFile,
                        caller: Optional[FunctionInfo],
                        call: ast.Call, depth: int) -> Optional[Set[str]]:
        """Keys of the dict a payload-building helper returns: the one
        indexed target's ``return`` statements must all be dict
        displays with the same resolvable key set."""
        targets = self.index.resolve_call(sfile, caller, call)
        if len(targets) != 1:
            return None
        target = targets[0]
        target_file = self.index.file_of(target)
        if target_file is None:
            return None
        shapes = [self._keys_of_expr(target_file, target, node.value,
                                     depth + 1)
                  if isinstance(node.value, ast.Dict) else None
                  for node in own_nodes(target.node)
                  if isinstance(node, ast.Return)]
        if not shapes or shapes[0] is None \
                or any(shape != shapes[0] for shape in shapes):
            return None
        return shapes[0]

    def _keys_of_name(self, sfile: SourceFile, caller: FunctionInfo,
                      name: str, depth: int) -> Optional[Set[str]]:
        if name in caller.params:
            return None                  # opaque passthrough
        assigned: Optional[Set[str]] = None
        assignments = 0
        extra: Set[str] = set()
        for node in own_nodes(caller.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        assignments += 1
                        assigned = self._keys_of_expr(
                            sfile, caller, node.value, depth + 1)
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == name \
                    and isinstance(node.ctx, ast.Store):
                key = _const_str(node.slice)
                if key is None:
                    return None
                extra.add(key)
        if assignments != 1 or assigned is None:
            return None
        return assigned | extra

    # -- pass B: yield discipline --------------------------------------

    def check_yield_discipline(self) -> None:
        for call in self.calls:
            if call.generator:
                parent = call.sfile.parent(call.node)
                if not isinstance(parent, ast.YieldFrom):
                    label = call.via or f"rpc.{call.base}"
                    self._flag(
                        "rpc-no-yield-from", call.sfile, call.node,
                        f"result of generator rpc call via {label} "
                        f"must be driven with 'yield from'")
        self._check_dropped_generators()
        self._check_unhandled_failures()
        for site in self.registers:
            if site.owner is not None and site.owner.is_generator:
                self._flag(
                    "rpc-late-registration", site.sfile, site.node,
                    f"register() inside generator "
                    f"{site.owner.qualname}; handlers must be "
                    f"registered before the endpoint serves traffic")

    def _check_dropped_generators(self) -> None:
        rpc_call_nodes = {id(c.node) for c in self.calls}
        for sfile in self.index.files:
            for node in ast.walk(sfile.tree):
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)):
                    continue
                if id(node.value) in rpc_call_nodes:
                    continue             # rpc-no-yield-from covers these
                caller = sfile.enclosing_function(node)
                targets = self.index.resolve_call(sfile, caller,
                                                  node.value)
                if targets and all(t.is_generator for t in targets):
                    self._flag(
                        "generator-dropped", sfile, node.value,
                        f"call to generator "
                        f"{targets[0].qualname} as a bare statement "
                        f"creates a generator and drops it")

    # unhandled-failure escalation -------------------------------------

    def _check_unhandled_failures(self) -> None:
        for call in self.calls:
            if not call.raises or call.caller is None:
                continue
            if self._protected(call.sfile, call.node):
                continue
            chain = self._escapes_to_process(call.caller, depth=0,
                                             seen=set())
            if chain is not None:
                route = " -> ".join(f.qualname for f in chain)
                method = call.method or "<dynamic>"
                self._flag(
                    "rpc-unhandled-failure", call.sfile, call.node,
                    f"RpcTimeout/RpcRejected from '{method}' can "
                    f"escape to sim process target {route}")

    def _protected(self, sfile: SourceFile, node: ast.AST) -> bool:
        """Is ``node`` inside the body of a try that catches rpc errors?"""
        child: ast.AST = node
        parent = sfile.parent(node)
        while parent is not None and not isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda)):
            if isinstance(parent, ast.Try) and child in parent.body \
                    and self._catches_rpc_errors(parent):
                return True
            child = parent
            parent = sfile.parent(parent)
        return False

    def _catches_rpc_errors(self, node: ast.Try) -> bool:
        for handler in node.handlers:
            if handler.type is None:
                return True
            types = handler.type.elts \
                if isinstance(handler.type, ast.Tuple) else [handler.type]
            for t in types:
                name = dotted(t)
                if name is not None \
                        and name.split(".")[-1] in _PROTECTIVE_EXCEPTIONS:
                    return True
        return False

    def _escapes_to_process(
        self,
        fn: FunctionInfo,
        depth: int,
        seen: Set[str],
    ) -> Optional[List[FunctionInfo]]:
        """Unprotected caller chain from ``fn`` up to a sim.process
        target, or None if every path hits a try or leaves the graph."""
        if fn.qualname in seen or depth > 12:
            return None
        seen = seen | {fn.qualname}
        if fn.qualname in self.index.process_targets:
            return [fn]
        for caller, call_node in self.index.callers.get(fn.qualname, ()):
            caller_file = self.index.file_by_path.get(caller.path)
            if caller_file is None:
                continue
            if self._protected(caller_file, call_node):
                continue
            chain = self._escapes_to_process(caller, depth + 1, seen)
            if chain is not None:
                return [fn, *chain]
        return None

    # -- pass C: digest-purity taint -----------------------------------

    _DIGEST_SEED_CLASSES = frozenset({"History", "OpRecord", "FinalState"})
    _DIGEST_SEED_NAMES = frozenset({"digest", "to_bytes", "to_line"})

    def check_digest_taint(self) -> None:
        seeds = [
            info for info in self.index.functions.values()
            if not (self.index.file_by_path.get(info.path) is None
                    or self.index.file_by_path[info.path].call_site_only)
            and (info.cls in self._DIGEST_SEED_CLASSES
                 or info.name in self._DIGEST_SEED_NAMES
                 or info.name.endswith("_digest"))
        ]
        origin: Dict[str, str] = {}
        queue: List[str] = []
        for seed in seeds:
            origin.setdefault(seed.qualname, seed.qualname)
            queue.append(seed.qualname)
        while queue:
            qual = queue.pop()
            for callee in sorted(self.index.callees.get(qual, ())):
                if callee not in origin:
                    origin[callee] = origin[qual]
                    queue.append(callee)
        for qual in sorted(origin):
            info = self.index.functions.get(qual)
            if info is None:
                continue
            sfile = self.index.file_by_path.get(info.path)
            if sfile is None or sfile.call_site_only:
                continue
            for node in own_nodes(info.node):
                found = primitive(node) \
                    if isinstance(node, ast.Call) else None
                if found is not None:
                    rule, name = found
                    self._flag(
                        "digest-taint", sfile, node,
                        f"{rule} primitive {name}() inside the "
                        f"golden-digest closure: {info.qualname} is "
                        f"reachable from {origin[qual]}")

    # -- driver --------------------------------------------------------

    def run(self) -> List[Violation]:
        self.check_conformance()
        self.check_yield_discipline()
        self.check_digest_taint()
        return self.violations

    # -- wire-protocol table -------------------------------------------

    def method_table(self) -> List[Dict[str, object]]:
        """Rows for the generated docs table, sorted by method name."""
        registry: Dict[str, List[RegisterSite]] = {}
        for site in self.registers:
            # Test doubles re-register real methods; the canonical
            # table documents the shipped wire surface only.
            if site.method is not None and not site.sfile.call_site_only:
                registry.setdefault(site.method, []).append(site)
        callers: Dict[str, Set[str]] = {}
        test_only: Dict[str, Set[str]] = {}
        for call in self.calls:
            if call.method is None:
                continue
            bucket = test_only if call.sfile.call_site_only else callers
            bucket.setdefault(call.method, set()).add(call.sfile.module)
        rows: List[Dict[str, object]] = []
        for method in sorted(registry):
            sites = registry[method]
            src_callers = sorted(callers.get(method, ()))
            rows.append({
                "method": method,
                "handler": ", ".join(
                    sorted({s.handler_label() for s in sites})),
                "registered_in": ", ".join(
                    sorted({s.sfile.module for s in sites})),
                "callers": src_callers,
                "test_callers": sorted(test_only.get(method, ())),
            })
        return rows


# -- table rendering ---------------------------------------------------

_TABLE_BEGIN = ("<!-- BEGIN GENERATED RPC TABLE "
                "(python -m repro.analysis --table) -->")
_TABLE_END = "<!-- END GENERATED RPC TABLE -->"


def render_method_table(rows: Sequence[Dict[str, object]]) -> str:
    """Markdown table between stable markers, no line numbers."""
    lines = [
        _TABLE_BEGIN,
        "",
        "| method | handler | registered in | called from |",
        "|---|---|---|---|",
    ]
    for row in rows:
        callers = list(row["callers"])          # type: ignore[arg-type]
        test_callers = list(row["test_callers"])  # type: ignore[arg-type]
        if callers:
            called = ", ".join(f"`{c}`" for c in callers)
            if test_callers:
                called += " (+tests)"
        elif test_callers:
            called = "*tests only*"
        else:
            called = "*(dead)*"
        lines.append(
            f"| `{row['method']}` | `{row['handler']}` "
            f"| `{row['registered_in']}` | {called} |")
    lines += ["", _TABLE_END]
    return "\n".join(lines)

