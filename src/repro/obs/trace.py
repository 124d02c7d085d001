"""Request-scoped tracing over the kernel's ``sim.tracer`` hook.

A trace is minted at the client when an operation starts and follows
the request through every hop: coordinator dispatch, replica RPCs,
read repair, ZK lookups.  Propagation never touches a payload:

* **Event-graph inheritance** (implicit): the tracer is the kernel's
  one ``sim.tracer`` and rides its three hooks (``on_schedule`` /
  ``on_step`` / ``on_step_done`` — plain runs pay one ``is None``
  check per kernel operation).  Any event scheduled
  during a traced event's callback window inherits the active
  ``(trace_id, span_id)`` context, so generators, deferred callbacks
  and network deliveries stay in-trace with zero per-site wiring.
* **``Message.trace``** (explicit): ``Network._transmit`` stamps the
  active context on the :class:`~repro.net.transport.Message`, beside
  the payload, and ``RpcNode._execute`` re-adopts it before running the
  handler — so a request parked in a busy server's service queue is
  still served under its caller's span.  The network tap reads its
  trace id from the same ambient context.  Nothing is added to a
  payload, so simulated sizes, latencies and histories are
  byte-identical with tracing on or off: a traced run is the plain run.

Spans are recorded per trace in creation order, which is causal order
(a child span is always created during its parent's lifetime), so the
span tree and its rendering are deterministic for a given seed.

Tracing never moves the run, under a tie seed too: the tracer follows
the event graph, not the queue order, so an observed run under
``Simulator(tie_seed=k)`` has the plain permuted run's digest.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "SpanTracer", "format_timeline"]

#: ``(trace_id, span_id)`` — what ``Message.trace`` carries.
Context = tuple


class Span:
    """One timed hop of a trace; ``end`` is None while open."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "tags")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, node: str,
                 start: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.tags: dict = {}

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def export(self) -> dict:
        return {"trace": self.trace_id, "span": self.span_id,
                "parent": self.parent_id, "name": self.name,
                "node": self.node, "start": round(self.start, 9),
                "end": None if self.end is None else round(self.end, 9),
                "tags": dict(sorted(self.tags.items()))}

    def __repr__(self) -> str:
        return (f"Span({self.trace_id}/{self.span_id} {self.name!r} "
                f"@{self.node} {self.start:g}..{self.end})")


class SpanTracer:
    """Span recorder installed as the simulator's ``tracer``.

    Instrumentation sites hold a reference (``self.tracer``, default
    ``None``) and call :meth:`start_trace` / :meth:`begin` /
    :meth:`finish`; context flows between sites through the event
    graph automatically.

    ``max_spans`` bounds memory on long chaos runs: past the cap new
    spans are counted in ``dropped_spans`` but not recorded (open
    spans can still be finished).
    """

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.span_count = 0
        self.traces: dict[int, list[Span]] = {}
        self.trace_names: dict[int, str] = {}
        self._sim: Optional[Any] = None
        self._next_trace = 1
        self._next_span = 1
        #: id(event) -> inherited (trace_id, span_id)
        self._ctx: dict[int, Context] = {}
        self._current: Optional[Context] = None
        #: Called with each span as it finishes (flight recorder feed).
        self.on_finish: list = []

    # -- attachment ------------------------------------------------------
    def attach(self, sim: Any) -> "SpanTracer":
        """Install on ``sim``; returns self for chaining."""
        if sim.tracer is not None:
            raise ValueError("simulator already has a tracer")
        sim.tracer = self
        self._sim = sim
        return self

    def detach(self) -> None:
        if self._sim is not None and self._sim.tracer is self:
            self._sim.tracer = None
        self._sim = None
        self._ctx.clear()
        self._current = None

    # -- kernel hooks (called by Simulator) ------------------------------
    def on_schedule(self, event: Any, priority: int, when: float) -> None:
        if self._current is not None:
            self._ctx[id(event)] = self._current

    def on_step(self, event: Any, when: float, priority: int) -> None:
        self._current = self._ctx.pop(id(event), None)

    def on_step_done(self, event: Any) -> None:
        self._current = None

    def on_drop(self, event: Any) -> None:
        """A cancelled deadline will never step: forget its context."""
        self._ctx.pop(id(event), None)

    # -- span API (instrumentation sites) --------------------------------
    def start_trace(self, name: str, node: str = "") -> Span:
        """Mint a new trace with a root span and make it current."""
        trace_id = self._next_trace
        self._next_trace += 1
        self.trace_names[trace_id] = name
        span = self._new_span(trace_id, None, name, node)
        self._current = (trace_id, span.span_id)
        return span

    def begin(self, name: str, node: str = "",
              ctx: Optional[Context] = None) -> Optional[Span]:
        """Open a child span under ``ctx`` (a context carried
        out-of-band: ``Message.trace``) or the ambient context.

        Returns ``None`` when there is no active trace — callers
        finish with :meth:`finish`, which accepts ``None``, so sites
        stay a straight two-liner."""
        context = ctx if ctx is not None else self._current
        if context is None:
            return None
        trace_id, parent_id = context
        span = self._new_span(trace_id, parent_id, name, node)
        self._current = (trace_id, span.span_id)
        return span

    def finish(self, span: Optional[Span], **tags: Any) -> None:
        if span is None:
            return
        if span.end is None:
            span.end = self._now()
        if tags:
            span.tags.update(tags)
        for hook in self.on_finish:
            hook(span)

    def current_ctx(self) -> Optional[Context]:
        return self._current

    def current_trace_id(self) -> Optional[int]:
        return None if self._current is None else self._current[0]

    # -- internals -------------------------------------------------------
    def _now(self) -> float:
        return 0.0 if self._sim is None else self._sim.now

    def _new_span(self, trace_id: int, parent_id: Optional[int],
                  name: str, node: str) -> Span:
        span = Span(trace_id, self._next_span, parent_id, name, node,
                    self._now())
        self._next_span += 1
        if self.span_count >= self.max_spans:
            self.dropped_spans += 1
        else:
            self.span_count += 1
            self.traces.setdefault(trace_id, []).append(span)
        return span

    # -- export ----------------------------------------------------------
    def spans(self, trace_id: int) -> list[Span]:
        return self.traces.get(trace_id, [])

    def export(self) -> dict:
        """Deterministic dump of every recorded trace."""
        return {
            "dropped_spans": self.dropped_spans,
            "traces": {str(tid): {
                "name": self.trace_names.get(tid, ""),
                "spans": [s.export() for s in spans],
            } for tid, spans in sorted(self.traces.items())},
        }


def format_timeline(tracer: SpanTracer, trace_id: int) -> str:
    """Indented per-request timeline (offsets relative to the root)."""
    spans = tracer.spans(trace_id)
    if not spans:
        return f"trace {trace_id}: (no spans)"
    root = spans[0]
    name = tracer.trace_names.get(trace_id, root.name)
    end = max((s.end for s in spans if s.end is not None),
              default=root.start)
    lines = [f"trace {trace_id} {name!r} start={root.start:.6f}s "
             f"total={1000 * (end - root.start):.3f}ms "
             f"spans={len(spans)}"]
    depths = {None: -1}
    for span in spans:
        depth = depths.get(span.parent_id, 0) + 1
        depths[span.span_id] = depth
        offset = 1000 * (span.start - root.start)
        took = ("open" if span.end is None
                else f"{1000 * (span.end - span.start):.3f}ms")
        tags = "".join(f" {k}={v}" for k, v in sorted(span.tags.items()))
        where = f" @{span.node}" if span.node else ""
        lines.append(f"  {'  ' * depth}[+{offset:8.3f}ms {took:>9}] "
                     f"{span.name}{where}{tags}")
    return "\n".join(lines)
