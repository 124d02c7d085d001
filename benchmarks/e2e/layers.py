"""Module path -> layer table, and the cProfile rollup that uses it.

A *layer* is a package name of ``src/repro``.  :data:`RULES` is the
whole mapping, as data: one ``(pattern, layer)`` row per file or
directory (a pattern ending in ``/`` covers a directory).  Every
``src/repro/**/*.py`` file must match exactly one row
(:func:`check_coverage`), so a new source file fails the smoke test
until someone decides which layer pays for it.

:func:`rollup` partitions a profile's wall time over the layers: a
function's self time goes to the layer of its file; time in code that
belongs to no layer (C built-ins, the standard library) is pushed to
the layer of whoever called it, along the profile's caller edges.  The
shares therefore sum to 1.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC_ROOT = HERE.parent.parent / "src" / "repro"

#: The benchmark's own files, and the fallback for time that no caller
#: edge explains (the profiler's own enable/disable frames).
DRIVER = "driver"
#: Packages no workload is supposed to execute; a non-zero share here
#: is a finding, not noise.
OTHER = "other"

RULES: tuple[tuple[str, str], ...] = (
    ("net/simulator.py", "net.simulator"),
    ("net/transport.py", "net.transport"),
    ("net/latency.py", "net.transport"),
    ("net/failure.py", "net.transport"),
    ("net/tap.py", "net.transport"),
    ("net/__init__.py", "net.transport"),
    ("net/rpc.py", "net.rpc"),
    ("core/client.py", "core.client"),
    ("core/coordinator.py", "core.coordinator"),
    ("core/node.py", "core.node"),
    ("core/cluster.py", "core.node"),
    ("core/config.py", "core.node"),
    ("core/__init__.py", "core.node"),
    ("core/hashring.py", "core.hashring"),
    ("core/types.py", "core.hashring"),
    ("core/cache.py", "core.cache"),
    ("core/antientropy.py", "core.background"),
    ("core/gc.py", "core.background"),
    ("core/detector.py", "core.background"),
    ("core/rebalance.py", "core.background"),
    ("core/stats.py", "core.background"),
    ("storage/", "storage"),
    ("persistence/", "persistence"),
    ("zk/", "zk"),
    ("chaos/", "chaos"),
    ("workloads/", "chaos"),
    ("obs/", "obs"),
    ("analysis/", OTHER),
    ("baselines/", OTHER),
    ("bench/", OTHER),
    ("dsm/", OTHER),
    ("gossip/", OTHER),
    ("tools/", OTHER),
    ("triggers/", OTHER),
    ("explore.py", OTHER),
    ("__init__.py", OTHER),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _pattern, layer in RULES] + [DRIVER]))

#: Named public suspects (ROADMAP "known suspects"): layer-qualified
#: metric stem -> (file under src/repro, function names counted as
#: calls, further names whose self time belongs to the suspect).
SUSPECTS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "net.transport.estimate_size": ("net/transport.py", ("estimate_size",), ()),
    "storage.fnv1a": ("storage/hashtable.py", ("fnv1a",), ()),
    "core.hashring.replicas_for": ("core/hashring.py", ("replicas_for",), ()),
    # ZnodeTree.dump/load do their work in nested encode/decode closures.
    "zk.tree_dump": ("zk/znode.py", ("dump", "load"), ("encode", "decode")),
    "core.coordinator.wire_elements": (
        "core/coordinator.py", ("wire_elements",), ()),
}


def _matches(rel: str, pattern: str) -> bool:
    return rel.startswith(pattern) if pattern.endswith("/") else rel == pattern


def _hits(rel: str) -> list[tuple[str, str]]:
    return [rule for rule in RULES if _matches(rel, rule[0])]


def layer_of_source(rel: str) -> str:
    """Layer of one file, given its path relative to ``src/repro``."""
    hits = _hits(rel)
    if len(hits) != 1:
        raise LookupError(f"{rel}: matches {len(hits)} layer rules, want 1")
    return hits[0][1]


def check_coverage(src_root: Path = SRC_ROOT) -> list[str]:
    """Problems with :data:`RULES` against the tree: files matching no
    rule or several, and rules matching no file."""
    files = sorted(p.relative_to(src_root).as_posix()
                   for p in src_root.rglob("*.py"))
    problems = []
    for rel in files:
        hits = [pattern for pattern, _layer in _hits(rel)]
        if len(hits) != 1:
            problems.append(f"{rel}: matches {hits or 'no rule'}")
    for pattern, _layer in RULES:
        if not any(_matches(rel, pattern) for rel in files):
            problems.append(f"rule {pattern!r} matches no file")
    return problems


def _layer_of_file(filename: str, cache: dict[str, str | None]) -> str | None:
    """Layer of a profiled function's file; None for code outside the
    repository (built-ins, standard library)."""
    if filename not in cache:
        layer: str | None = None
        if filename != "~" and not filename.startswith("<"):
            path = Path(filename).resolve()
            if SRC_ROOT in path.parents:
                layer = layer_of_source(path.relative_to(SRC_ROOT).as_posix())
            elif HERE in path.parents:
                layer = DRIVER
        cache[filename] = layer
    return cache[filename]


def rollup(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``; ``callers`` maps each caller to the same tuple for that
    edge, whose ``tt`` is the callee's self time spent under that
    caller.  A function outside the repository hands each edge's time
    to the caller's layer; a caller that is itself outside splits it
    by its own callers, resolved recursively.
    """
    files: dict[str, str | None] = {}
    split_memo: dict[tuple, dict[str, float]] = {}

    def split(func: tuple, trail: frozenset) -> dict[str, float]:
        """Fractions (summing to 1) of ``func``'s time per layer."""
        layer = _layer_of_file(func[0], files)
        if layer is not None:
            return {layer: 1.0}
        if func in split_memo:
            return split_memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()
                   if c not in trail}
        total = sum(weights.values())
        out: dict[str, float] = {}
        if total <= 0.0:
            # No timed edge to follow: split evenly over the callers.
            weights = {c: 1.0 for c in weights}
            total = float(len(weights))
        if not weights:
            out = {DRIVER: 1.0}
        for caller, w in weights.items():
            for lay, frac in split(caller, trail | {func}).items():
                out[lay] = out.get(lay, 0.0) + frac * w / total
        split_memo[func] = out
        return out

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0.0:
            continue
        for layer, frac in split(func, frozenset()).items():
            seconds[layer] += tt * frac
    return seconds


def suspects(stats: dict) -> dict[str, tuple[int, float]]:
    """``stem -> (calls, self seconds)`` for each of :data:`SUSPECTS`."""
    out = {}
    for stem, (rel, counted, also) in SUSPECTS.items():
        calls, self_s = 0, 0.0
        for (filename, _line, name), (_cc, nc, tt, _ct, _c) in stats.items():
            if not filename.endswith("/repro/" + rel):
                continue
            if name in counted:
                calls += nc
                self_s += tt
            elif name in also:
                self_s += tt
        out[stem] = (calls, self_s)
    return out
