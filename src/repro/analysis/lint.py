"""The determinism rules: one per-file pass over the shared index.

The rules are not generic style checks — each one encodes an invariant
the deterministic kernel relies on, learned the hard way (a
process-randomized ``hash()`` once shipped in gossip peer selection; a
recovery bug was a tie-order artifact):

``wall-clock``
    No ``time.time``/``time.monotonic``/``time.perf_counter`` /
    ``datetime.now`` inside sim code: simulated time is ``sim.now``.
``unseeded-random``
    No module-level ``random.*`` or ``uuid.uuid1/uuid4``: every RNG
    must be a ``random.Random(seed)`` instance derived from the run
    seed.
``builtin-hash``
    No builtin ``hash()``: str hashing is randomized per process
    (PYTHONHASHSEED), so any order or choice derived from it differs
    between otherwise identical runs.  Use ``zlib.crc32``.
``set-iteration``
    No iteration over bare ``set``s (fan-out loops, row shipping):
    set order is hash order.  Iterate ``sorted(...)``.
``rpc-timeout``
    Every ``rpc.call(...)`` carries a timeout (4th positional or
    ``timeout=``): a call that can block forever deadlocks the run
    and hides dead replicas from suspicion.
``process-not-generator``
    ``sim.process(f(...))`` targets must be generator functions; a
    plain function "runs" at registration time, silently out of
    order.
``callback-yields``
    ``sim.schedule_callback(d, fn)`` targets must be plain callables:
    a generator ``fn`` never executes, and a callback that re-enters
    ``sim.run`` corrupts the loop.
``naked-except``
    No ``except``/``except Exception`` whose body is just ``pass``:
    swallowing everything hides determinism bugs (and kernel
    misuse) on coordinate paths.

The pass never looks across files: a process or callback target
resolves only to a def in the same file (:meth:`_Checker._resolve_callable`).
:func:`primitive` is the one nondeterminism-primitive table; the
interprocedural ``digest-taint`` pass reuses it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .index import FunctionInfo, ProjectIndex, SourceFile, Violation, dotted

__all__ = ["RULES", "primitive", "check"]

#: rule-id -> one-line description (the catalogue; docs/protocols.md §13).
RULES: dict[str, str] = {
    "wall-clock":
        "wall-clock read in sim code; use sim.now",
    "unseeded-random":
        "process-global randomness; use a seeded random.Random instance",
    "builtin-hash":
        "builtin hash() is randomized per process; use zlib.crc32",
    "set-iteration":
        "iteration over a bare set is hash-ordered; wrap in sorted()",
    "rpc-timeout":
        "rpc call without an explicit timeout",
    "process-not-generator":
        "sim.process target is not a generator function",
    "callback-yields":
        "schedule_callback target yields or re-enters sim.run",
    "naked-except":
        "except clause swallows everything with a bare pass",
}

_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)

_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "normalvariate",
    "lognormvariate", "paretovariate", "weibullvariate", "seed",
    "randbytes",
})

_UUID_FNS = frozenset({"uuid1", "uuid4"})


def primitive(call: ast.Call) -> Optional[tuple[str, str]]:
    """``(rule, dotted name)`` when ``call`` reads a nondeterminism
    primitive: a wall clock, process-global randomness or builtin
    ``hash``.  A seeded ``random.Random(7)`` is not one."""
    name = dotted(call.func)
    if name is None:
        return None
    if any(name == suffix or name.endswith("." + suffix)
           for suffix in _WALL_CLOCK_SUFFIXES):
        return "wall-clock", name
    head, _, tail = name.partition(".")
    if (head == "random" and tail in _GLOBAL_RANDOM_FNS) \
            or (head == "uuid" and tail in _UUID_FNS):
        return "unseeded-random", name
    if name == "hash":
        return "builtin-hash", name
    return None


class _Scope:
    """Per-function tracking of names bound to set-valued expressions."""

    __slots__ = ("set_names",)

    def __init__(self) -> None:
        self.set_names: set[str] = set()


class _Checker(ast.NodeVisitor):
    """One file's worth of rule evaluation."""

    def __init__(self, sfile: SourceFile):
        self.sfile = sfile
        self.violations: list[Violation] = []
        # Name -> def for module-level functions (the last of a name
        # wins, as at import) and, failing those, defs nested directly
        # in a function body (the first wins).
        self._functions: dict[str, FunctionInfo] = {}
        for info in sfile.functions:
            if isinstance(sfile.parent(info.node),
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._functions.setdefault(info.name, info)
        self._functions.update(
            (info.name, info) for info in sfile.functions
            if isinstance(sfile.parent(info.node), ast.Module))
        # Enclosing classes, innermost last.
        self._classes: list[ast.ClassDef] = []
        # Attribute names assigned set-valued expressions (``self.x =
        # set()``), per enclosing class.
        self._set_attrs: list[set[str]] = []
        self._scopes: list[_Scope] = []

    # -- context collection ------------------------------------------------
    def _class_set_attrs(self, cls: ast.ClassDef) -> set[str]:
        set_attrs: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = self._self_attr(target)
                    if attr and self._is_set_expr(node.value, None):
                        set_attrs.add(attr)
            elif isinstance(node, ast.AnnAssign):
                attr = self._self_attr(node.target)
                if attr and self._is_set_annotation(node.annotation):
                    set_attrs.add(attr)
        return set_attrs

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    @staticmethod
    def _is_set_annotation(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset", "Set", "FrozenSet",
                              "MutableSet")
        if isinstance(node, ast.Subscript):
            return _Checker._is_set_annotation(node.value)
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "MutableSet")
        return False

    # -- reporting ---------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, detail: str = "") -> None:
        message = RULES[rule] + (f": {detail}" if detail else "")
        self.violations.append(self.sfile.flag(rule, node, message))

    # -- scope plumbing ----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        set_attrs = self._class_set_attrs(node)
        self._classes.append(node)
        self._set_attrs.append(set_attrs)
        self.generic_visit(node)
        self._classes.pop()
        self._set_attrs.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- set-ness inference ------------------------------------------------
    def _is_set_expr(self, node: ast.AST,
                     scope: Optional[_Scope]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                    "set", "frozenset"):
                return True
            # ``mapping.get(key, set())``: the default documents the
            # value type, so the returned object is a set either way.
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and len(node.args) == 2
                    and self._is_set_expr(node.args[1], scope)):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("union", "intersection",
                                           "difference",
                                           "symmetric_difference")
                    and self._is_set_expr(node.func.value, scope)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, scope)
                    or self._is_set_expr(node.right, scope))
        if isinstance(node, ast.Name) and scope is not None:
            return node.id in scope.set_names
        attr = self._self_attr(node)
        if attr is not None and self._set_attrs:
            return attr in self._set_attrs[-1]
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._scopes:
            scope = self._scopes[-1]
            is_set = self._is_set_expr(node.value, scope)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if is_set:
                        scope.set_names.add(target.id)
                    else:
                        scope.set_names.discard(target.id)
        self.generic_visit(node)

    # -- the rules ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_primitive(node)
        self._check_rpc_timeout(node)
        self._check_process_target(node)
        self._check_callback_target(node)
        self._check_set_consumer(node)
        self.generic_visit(node)

    def _check_primitive(self, node: ast.Call) -> None:
        found = primitive(node)
        if found is not None:
            rule, name = found
            self._flag(rule, node, "" if rule == "builtin-hash" else name)

    def _check_rpc_timeout(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "call"):
            return
        chain = dotted(node.func.value)
        if chain is None or "rpc" not in chain.split("."):
            return
        if len(node.args) >= 4:
            return
        if any(kw.arg == "timeout" for kw in node.keywords):
            return
        self._flag("rpc-timeout", node, f"{chain}.call")

    def _resolve_callable(self,
                          node: ast.AST) -> Optional[FunctionInfo]:
        """A same-file def for ``node``: a Name, or ``self.method`` for
        a method of the enclosing class (the first def of it wins)."""
        if isinstance(node, ast.Name):
            return self._functions.get(node.id)
        attr = self._self_attr(node)
        if attr is None or not self._classes:
            return None
        return next((info for info in self.sfile.functions
                     if info.name == attr
                     and self.sfile.parent(info.node) is self._classes[-1]),
                    None)

    def _check_process_target(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            return
        chain = dotted(node.func.value)
        if chain is None or "sim" not in chain.split("."):
            return
        target = node.args[0]
        if not isinstance(target, ast.Call):
            return
        fn = self._resolve_callable(target.func)
        if fn is not None and not fn.is_generator:
            self._flag("process-not-generator", node,
                       f"{fn.name}() never yields")

    def _check_callback_target(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "schedule_callback"):
            return
        target: Optional[ast.AST] = None
        if len(node.args) >= 2:
            target = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "fn":
                    target = kw.value
        if target is None:
            return
        fn = self._resolve_callable(target)
        if fn is None:
            return
        if fn.is_generator:
            self._flag("callback-yields", node,
                       f"{fn.name}() is a generator; it will never run")
            return
        for inner in ast.walk(fn.node):
            if isinstance(inner, ast.Call):
                chain = dotted(inner.func)
                if chain is not None and chain.endswith("sim.run"):
                    self._flag("callback-yields", node,
                               f"{fn.name}() re-enters sim.run")
                    return

    def _check_set_consumer(self, node: ast.Call) -> None:
        """``list(s)`` / ``tuple(s)`` over a set is ordered consumption."""
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and self._is_set_expr(node.args[0],
                                      self._scopes[-1]
                                      if self._scopes else None)):
            self._flag("set-iteration", node,
                       f"{node.func.id}() over a set")

    def _check_iteration(self, iter_node: ast.AST,
                         where: ast.AST) -> None:
        scope = self._scopes[-1] if self._scopes else None
        if self._is_set_expr(iter_node, scope):
            self._flag("set-iteration", where)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", ()):
            self._check_iteration(comp.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set is order-free; only check nested
        # non-set consumption inside the comprehension body.
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._swallows_everything(node.type) and \
                len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            self._flag("naked-except", node)
        self.generic_visit(node)

    @staticmethod
    def _swallows_everything(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        names: Iterable[ast.AST]
        if isinstance(type_node, ast.Tuple):
            names = type_node.elts
        else:
            names = (type_node,)
        return any(dotted(name) in ("Exception", "BaseException")
                   for name in names)


def check(index: ProjectIndex) -> list[Violation]:
    """Every determinism finding (waived ones too) in the rule-checked
    files of ``index``."""
    violations: list[Violation] = []
    for sfile in index.files:
        if not sfile.call_site_only:
            checker = _Checker(sfile)
            checker.visit(sfile.tree)
            violations.extend(checker.violations)
    return violations
