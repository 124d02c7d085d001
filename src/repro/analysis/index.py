"""Project-wide AST index and heuristic call graph.

The substrate every analysis pass runs on -- the per-file determinism
rules (:mod:`repro.analysis.lint`) and the interprocedural protocol
passes (:mod:`repro.analysis.protocol`) alike:

* every ``.py`` file under the analysis roots parsed once, with a
  child -> parent map so checks can walk *up* the tree (enclosing
  function, enclosing ``try``); a rule-checked file that does not
  parse is a ``parse-error`` finding, not a silent skip,
* a table of every function/method (:class:`FunctionInfo`) keyed by
  qualified name, with generator-ness and parameter order precomputed,
* a heuristic call graph: for each call site, the set of project
  functions it may resolve to.  Resolution is intentionally
  conservative -- same-module names and ``self.method`` lookups resolve
  exactly; bare attribute calls resolve only when the method name is
  close to unique project-wide.  The consumers are written so that an
  unresolved call degrades to silence, never to a false positive,
* the finding type every pass reports (:class:`Violation`) and the
  one waiver dialect (:func:`is_waived`).

The index is pure stdlib ``ast`` and rebuilds from scratch per run,
which keeps the analyzer viable as a pytest-plugin pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

__all__ = [
    "Violation",
    "is_waived",
    "FunctionInfo",
    "SourceFile",
    "ProjectIndex",
    "dotted",
    "own_nodes",
    "iter_py_files",
]

_WAIVER_RE = re.compile(r"#\s*repro:\s*allow\[([\w*-]+(?:\s*,\s*[\w*-]+)*)\]")


def is_waived(lines: Sequence[str], rule: str, line: int) -> bool:
    """True when ``rule`` is waived at 1-based ``line`` of ``lines``.

    A waiver comment (``# repro: allow[rule-id]``; ``allow[*]`` matches
    every rule, comma-separated ids are allowed) on the flagged line or
    the line directly above it suppresses the finding.
    """
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(lines):
            match = _WAIVER_RE.search(lines[lineno - 1])
            if match:
                allowed = {part.strip()
                           for part in match.group(1).split(",")}
                if rule in allowed or "*" in allowed:
                    return True
    return False


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False

    def render(self) -> str:
        tag = " (waived)" if self.waived else ""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}{tag}"


# How many candidates an attribute call may resolve to before we give
# up and treat it as unresolved.  Small on purpose: a popular method
# name like ``get`` resolving to a dozen classes would poison every
# interprocedural walk with noise.
_MAX_ATTR_CANDIDATES = 4


def dotted(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain as ``a.b.c`` (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Yield nodes belonging to ``fn`` itself, not to nested defs.

    Nested ``def``/``lambda`` bodies are someone else's scope -- a
    ``yield`` or an ``args[...]`` read inside them must not be
    attributed to the enclosing function.
    """
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: FunctionNode) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(fn))


def _param_names(fn: FunctionNode) -> Tuple[str, ...]:
    a = fn.args
    return tuple(p.arg for p in (*a.posonlyargs, *a.args))


def iter_py_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _module_name(path: Path) -> str:
    """Best-effort dotted module name for a file path.

    Files under a ``repro`` package directory get their real import
    path (``repro.core.node``); anything else (tests, fixtures) gets a
    stable pseudo-name derived from the trailing path components.
    """
    parts = list(path.resolve().with_suffix("").parts)
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return ".".join(parts[-2:]) if len(parts) >= 2 else parts[-1]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method in the indexed tree."""

    qualname: str            # module.[Class.]name, nesting flattened
    module: str
    cls: Optional[str]       # immediately enclosing class, if any
    name: str
    path: str
    node: FunctionNode
    is_generator: bool
    params: Tuple[str, ...]  # positional parameter names, incl. self

    def call_params(self) -> Tuple[str, ...]:
        """Parameter names as seen from a call site (``self`` dropped)."""
        if self.cls is not None and self.params and \
                self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass
class SourceFile:
    """A parsed file plus the per-file lookup tables."""

    path: str
    module: str
    tree: ast.Module
    lines: List[str]
    call_site_only: bool = False
    parent_of: Dict[int, ast.AST] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)
    info_of: Dict[int, FunctionInfo] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parent_of.get(id(node))

    def flag(self, rule: str, node: ast.AST, message: str) -> Violation:
        """A finding of ``rule`` at ``node``, waived per this file's lines."""
        line = getattr(node, "lineno", 0)
        return Violation(
            rule=rule, path=self.path, line=line,
            col=getattr(node, "col_offset", 0), message=message,
            waived=is_waived(self.lines, rule, line))

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionInfo]:
        cur: Optional[ast.AST] = self.parent(node)
        while cur is not None:
            info = self.info_of.get(id(cur))
            if info is not None:
                return info
            cur = self.parent(cur)
        return None


class _Collector(ast.NodeVisitor):
    """Builds the per-file function table with flattened qualnames."""

    def __init__(self, sfile: SourceFile) -> None:
        self.sfile = sfile
        self.scope: List[str] = []
        self.cls: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.cls.append(node.name)
        self.generic_visit(node)
        self.cls.pop()
        self.scope.pop()

    def _function(self, node: FunctionNode) -> None:
        qual = ".".join([self.sfile.module, *self.scope, node.name])
        info = FunctionInfo(
            qualname=qual,
            module=self.sfile.module,
            cls=self.cls[-1] if self.cls else None,
            name=node.name,
            path=self.sfile.path,
            node=node,
            is_generator=_is_generator(node),
            params=_param_names(node),
        )
        self.sfile.functions.append(info)
        self.sfile.info_of[id(node)] = info
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)


class ProjectIndex:
    """All files, all functions, and a conservative call graph."""

    def __init__(self) -> None:
        self.files: List[SourceFile] = []
        self.file_by_path: Dict[str, SourceFile] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        # (module, name) -> module-level function
        self.module_level: Dict[Tuple[str, str], FunctionInfo] = {}
        # (module, cls, name) -> method
        self.methods: Dict[Tuple[str, Optional[str], str], FunctionInfo] = {}
        # callee qualname -> [(caller, call node)]
        self.callers: Dict[str, List[Tuple[FunctionInfo, ast.Call]]] = {}
        # caller qualname -> {callee qualnames}
        self.callees: Dict[str, Set[str]] = {}
        # qualnames of generators handed to sim.process(...)
        self.process_targets: Set[str] = set()
        # one per rule-checked file that does not parse
        self.parse_errors: List[Violation] = []

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        checked_paths: Sequence[Union[str, Path]],
        call_site_paths: Sequence[Union[str, Path]] = (),
    ) -> "ProjectIndex":
        """Index ``checked_paths`` plus ``call_site_paths``.

        Files from ``call_site_paths`` (tests, benchmarks, ...) are
        indexed so their call sites count -- e.g. a handler exercised
        only from a test is not dead -- but rule findings are never
        reported against them (``SourceFile.call_site_only``), and one
        that does not parse is skipped rather than reported.
        """
        index = cls()
        checked = {p.resolve() for p in iter_py_files(checked_paths)}
        everything = list(iter_py_files([*checked_paths, *call_site_paths]))
        for path in everything:
            index._add_file(path, call_site_only=path.resolve() not in checked)
        index._link_calls()
        return index

    def _add_file(self, path: Path, call_site_only: bool) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except OSError:
            return
        except SyntaxError as err:
            if not call_site_only:
                self.parse_errors.append(Violation(
                    rule="parse-error", path=str(path),
                    line=err.lineno or 0, col=err.offset or 0,
                    message=f"unparseable file: {err.msg}"))
            return
        sfile = SourceFile(
            path=str(path),
            module=_module_name(path),
            tree=tree,
            lines=source.splitlines(),
            call_site_only=call_site_only,
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                sfile.parent_of[id(child)] = parent
        _Collector(sfile).visit(tree)
        for info in sfile.functions:
            self.functions[info.qualname] = info
            self.by_name.setdefault(info.name, []).append(info)
            self.methods[(info.module, info.cls, info.name)] = info
            if info.cls is None:
                self.module_level.setdefault((info.module, info.name), info)
        self.files.append(sfile)
        self.file_by_path[sfile.path] = sfile

    def _link_calls(self) -> None:
        for sfile in self.files:
            for node in ast.walk(sfile.tree):
                if not isinstance(node, ast.Call):
                    continue
                caller = sfile.enclosing_function(node)
                self._note_process_target(sfile, caller, node)
                if caller is None:
                    continue
                for callee in self.resolve_call(sfile, caller, node):
                    self.callers.setdefault(callee.qualname, []) \
                        .append((caller, node))
                    self.callees.setdefault(caller.qualname, set()) \
                        .add(callee.qualname)

    def _note_process_target(
        self,
        sfile: SourceFile,
        caller: Optional[FunctionInfo],
        call: ast.Call,
    ) -> None:
        """Record ``sim.process(self._loop(...))``-style generator roots."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "process"):
            return
        if not call.args or not isinstance(call.args[0], ast.Call):
            return
        for target in self.resolve_call(sfile, caller, call.args[0]):
            if target.is_generator:
                self.process_targets.add(target.qualname)

    # -- resolution ----------------------------------------------------

    def resolve_call(
        self,
        sfile: SourceFile,
        caller: Optional[FunctionInfo],
        call: ast.Call,
    ) -> List[FunctionInfo]:
        """Project functions this call may target (possibly empty).

        ``Name(...)`` resolves within the module; ``self.method(...)``
        resolves within the caller's class; other ``obj.method(...)``
        calls resolve by method name when the name is near-unique
        project-wide.  Unknown targets return ``[]``.
        """
        func = call.func
        if isinstance(func, ast.Name):
            hit = self.module_level.get((sfile.module, func.id))
            if hit is not None:
                return [hit]
            candidates = [f for f in self.by_name.get(func.id, ())
                          if f.cls is None]
            return candidates if len(candidates) == 1 else []
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id in ("self", "cls") \
                    and caller is not None and caller.cls is not None:
                hit = self.methods.get((sfile.module, caller.cls, func.attr))
                if hit is not None:
                    return [hit]
                # self.attr where the class doesn't define attr: fall
                # through to the name-based heuristic (mixins / base
                # classes in another module).
            candidates = self.by_name.get(func.attr, [])
            if 1 <= len(candidates) <= _MAX_ATTR_CANDIDATES:
                return list(candidates)
        return []

    # -- convenience ---------------------------------------------------

    def file_of(self, info: FunctionInfo) -> Optional[SourceFile]:
        return self.file_by_path.get(info.path)
