"""Critical-path and flame analysis over exported span traces.

A span timeline shows *what happened*; an operator debugging a slow
request wants *what the latency was spent on*.  This module consumes
:meth:`SpanTracer.export() <repro.obs.trace.SpanTracer.export>` (the
deterministic dict form, so it works on live tracers and on JSON dumps
alike) and answers three questions:

* :func:`critical_path` — which causal chain of spans determined the
  trace's end-to-end time (root → … → the span whose completion the
  trace waited on, ties broken by lowest span id);
* :func:`analyze_trace` / :func:`aggregate` — where that time went,
  attributed to phases and rolled up per operation kind;
* :func:`folded_stacks` — self-time flame output in Brendan Gregg's
  folded-stack format (``a;b;c <microseconds>``), ready for any
  flamegraph renderer.

Phase attribution rules (docs/protocols.md §19.2).  Walking the
critical path parent→child, each edge splits into:

* ``queue_wait`` — the serving endpoint's service-queue wait, carried
  as the child's ``queue`` tag (stamped by ``RpcNode._execute``);
* ``rpc_flight`` — the rest of the dispatch gap (request on the wire)
  plus, for non-quorum parents, the settle gap (reply on the wire);
* ``quorum_wait`` — the settle gap under a ``coord.*`` parent: time
  between the critical reply's handler finishing and the quorum
  settling at the coordinator (reply flight + waiting out R-th
  agreement);

and the path's terminal span contributes its full duration to its
own phase: ``storage`` for replica/data handlers, ``zk`` for
ZooKeeper handlers, ``serve`` for other RPC handlers, ``coord`` /
``client`` for coordinator and client spans that end the path.

Open spans (no ``end`` at export time) are treated as ending at the
trace's last recorded instant; a span whose parent was dropped by the
tracer's cap starts its own chain.  All outputs are deterministic:
sorted keys, microsecond-rounded integers in flame output.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["PHASES", "phase_of", "critical_path", "analyze_trace",
           "aggregate", "format_breakdown", "folded_stacks",
           "format_flame"]

#: Attribution buckets, in display order.
PHASES = ("client", "coord", "rpc_flight", "queue_wait", "quorum_wait",
          "storage", "zk", "serve")

#: RPC-method prefixes whose handlers run the storage plane.
_STORAGE_PREFIXES = ("rpc.replica.", "rpc.sedna.", "rpc.mc.",
                     "rpc.migrate.", "rpc.stats.")


def phase_of(name: str) -> str:
    """Terminal-span phase for a span name (see module docstring)."""
    for prefix in _STORAGE_PREFIXES:
        if name.startswith(prefix):
            return "storage"
    if name.startswith("rpc.zk."):
        return "zk"
    if name.startswith("rpc."):
        return "serve"
    if name.startswith("coord."):
        return "coord"
    return "client"


def _trace_end(spans: list[dict]) -> float:
    """Last recorded instant of a trace (open spans count their start)."""
    end = 0.0
    for span in spans:
        end = max(end, span["start"] if span["end"] is None else span["end"])
    return end


def _effective_end(span: dict, trace_end: float) -> float:
    """A span's end, with open spans pinned to the trace end."""
    return trace_end if span["end"] is None else span["end"]


def critical_path(spans: list[dict]) -> list[dict]:
    """The causal chain that determined the trace's end time.

    Walks top-down from the trace's root (the first recorded span):
    at each level it descends into the child whose completion the
    parent's own end waited on — the last-ending child that finished
    at or before the parent (ties: lowest span id, hence
    deterministic).  Children that outlive their parent are laggards
    the operation did *not* wait on (a quorum settles at the R-th
    reply; later replies are watched, not awaited) and never join the
    path.  Returned root-first.
    """
    if not spans:
        return []
    trace_end = _trace_end(spans)
    children: dict[Optional[int], list[dict]] = {}
    by_id = {span["span"]: span for span in spans}
    for span in spans:
        if span["parent"] in by_id:
            children.setdefault(span["parent"], []).append(span)
    cursor = spans[0]
    path = [cursor]
    while True:
        limit = _effective_end(cursor, trace_end)
        candidates = [k for k in children.get(cursor["span"], [])
                      if _effective_end(k, trace_end) <= limit]
        if not candidates:
            break
        cursor = max(candidates,
                     key=lambda s: (_effective_end(s, trace_end),
                                    -s["span"]))
        path.append(cursor)
    return path


def analyze_trace(trace: dict) -> dict:
    """Per-trace critical-path breakdown.

    ``trace`` is one entry of ``SpanTracer.export()["traces"]``.
    Returns ``{"name", "duration", "path": [span names], "phases":
    {phase: seconds}}``; phases not on the path are omitted.
    """
    spans = trace["spans"]
    path = critical_path(spans)
    if not path:
        return {"name": trace.get("name", ""), "duration": 0.0,
                "path": [], "phases": {}}
    trace_end = _trace_end(spans)
    root = path[0]
    duration = _effective_end(root, trace_end) - root["start"]
    phases: dict[str, float] = {}

    def credit(phase: str, amount: float) -> None:
        if amount > 0.0:
            phases[phase] = phases.get(phase, 0.0) + amount

    for parent, child in zip(path, path[1:]):
        queued = float(child.get("tags", {}).get("queue", 0.0))
        dispatch = child["start"] - parent["start"] - queued
        settle = (_effective_end(parent, trace_end)
                  - _effective_end(child, trace_end))
        credit("queue_wait", queued)
        credit("rpc_flight", dispatch)
        if parent["name"].startswith("coord."):
            credit("quorum_wait", settle)
        else:
            credit("rpc_flight", settle)
    leaf = path[-1]
    credit(phase_of(leaf["name"]),
           _effective_end(leaf, trace_end) - leaf["start"])
    return {"name": trace.get("name", root["name"]),
            "duration": duration,
            "path": [span["name"] for span in path],
            "phases": {k: round(v, 9) for k, v in sorted(phases.items())}}


def aggregate(export: dict) -> dict:
    """Roll :func:`analyze_trace` up per operation kind (trace name).

    Returns ``{name: {"count", "total_s", "mean_s", "max_s",
    "phases": {phase: seconds}}}`` with sorted keys throughout.
    """
    table: dict[str, dict] = {}
    for tid in sorted(export.get("traces", {}), key=int):
        result = analyze_trace(export["traces"][tid])
        if not result["path"]:
            continue
        row = table.setdefault(result["name"], {
            "count": 0, "total_s": 0.0, "max_s": 0.0, "phases": {}})
        row["count"] += 1
        row["total_s"] += result["duration"]
        row["max_s"] = max(row["max_s"], result["duration"])
        for phase, seconds in result["phases"].items():
            row["phases"][phase] = row["phases"].get(phase, 0.0) + seconds
    out = {}
    for name in sorted(table):
        row = table[name]
        out[name] = {
            "count": row["count"],
            "total_s": round(row["total_s"], 9),
            "mean_s": round(row["total_s"] / row["count"], 9),
            "max_s": round(row["max_s"], 9),
            "phases": {k: round(v, 9)
                       for k, v in sorted(row["phases"].items())},
        }
    return out


def format_breakdown(agg: dict) -> str:
    """Text table of :func:`aggregate` (CLI ``critical`` subcommand)."""
    if not agg:
        return "(no traces)"
    phase_cols = [p for p in PHASES
                  if any(p in row["phases"] for row in agg.values())]
    header = (f"{'op kind':<22} {'count':>5} {'mean ms':>8} {'max ms':>8}  "
              + "  ".join(f"{p:>11}" for p in phase_cols))
    lines = [header, "-" * len(header)]
    for name, row in agg.items():
        cells = []
        for phase in phase_cols:
            seconds = row["phases"].get(phase, 0.0)
            share = seconds / row["total_s"] if row["total_s"] else 0.0
            cells.append(f"{1000 * seconds / row['count']:7.3f}={share:3.0%}")
        lines.append(f"{name:<22} {row['count']:>5} "
                     f"{1000 * row['mean_s']:8.3f} "
                     f"{1000 * row['max_s']:8.3f}  "
                     + "  ".join(f"{c:>11}" for c in cells))
    lines.append("(per-op-kind mean milliseconds on the critical path; "
                 "'=NN%' is the phase's share of the kind's total)")
    return "\n".join(lines)


def folded_stacks(export: dict) -> dict[str, int]:
    """Self-time flame data over *every* span (not just critical paths).

    Each span's self time is its duration minus its children's
    durations (clamped at zero — concurrent fan-out children can
    overlap their parent arbitrarily); stacks are ``;``-joined span
    names from the root.  Values are microseconds, summed across all
    traces, keys sorted — byte-identical across runs of one seed.
    """
    acc: dict[str, int] = {}
    for tid in sorted(export.get("traces", {}), key=int):
        spans = export["traces"][tid]["spans"]
        if not spans:
            continue
        trace_end = _trace_end(spans)
        by_id = {span["span"]: span for span in spans}
        children: dict[Optional[int], list[dict]] = {}
        for span in spans:
            parent = span["parent"]
            if parent is not None and parent not in by_id:
                parent = None  # dropped parent: treat as a root
            children.setdefault(parent, []).append(span)
        # spans are recorded in creation order, so an iterative
        # depth-first walk over the children lists is deterministic.
        stack: list[tuple[dict, str]] = [
            (span, span["name"]) for span in reversed(children.get(None, []))]
        while stack:
            span, path = stack.pop()
            kids = children.get(span["span"], [])
            span_time = _effective_end(span, trace_end) - span["start"]
            child_time = sum(_effective_end(k, trace_end) - k["start"]
                             for k in kids)
            self_us = round(max(span_time - child_time, 0.0) * 1e6)
            acc[path] = acc.get(path, 0) + self_us
            for kid in reversed(kids):
                stack.append((kid, f"{path};{kid['name']}"))
    return {k: acc[k] for k in sorted(acc)}


def format_flame(folded: dict[str, int]) -> str:
    """Folded-stack lines (``stack count``) for flamegraph renderers."""
    return "\n".join(f"{stack} {folded[stack]}"
                     for stack in sorted(folded))
