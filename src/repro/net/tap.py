"""Network tap: record message flows for assertions and debugging.

Protocol tests want claims like "one quorum write costs exactly N
replica messages" or "the ZooKeeper changelog refresh touched only two
znodes".  :class:`NetworkTap` observes every transmitted message (via a
pass-through filter, so nothing is dropped) and offers counting and
querying helpers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .transport import Network

__all__ = ["TapRecord", "NetworkTap", "classify"]


@dataclass(frozen=True)
class TapRecord:
    """One observed transmission (pre-delivery, post-filter order).

    ``trace`` is the observability trace id active at transmit time
    (None when request tracing is off) — the first half of the context
    the message itself carries as ``Message.trace``, read from the same
    tracer.  It lets protocol tests slice the tap down to a single
    request's traffic.
    """

    time: float
    src: str
    dst: str
    kind: str
    method: str
    trace: Optional[int] = None


def classify(payload: Any) -> tuple[str, str]:
    """``(kind, method)`` of a payload: ``("req", method)``,
    ``("resp", "")``, ``("notify", zk op)``, ``("wire", "")`` or
    ``("raw", "")`` — the tap's ``TapRecord.kind``/``.method``."""
    if isinstance(payload, dict):
        kind = payload.get("kind", "")
        if kind == "req":
            return "req", str(payload.get("method", ""))
        if kind == "resp":
            return "resp", ""
        if kind == "notify":
            body = payload.get("body")
            if isinstance(body, dict):
                return "notify", str(body.get("zk", ""))
            return "notify", ""
        if "bytes" in payload:
            return "wire", ""
    return "raw", ""


class NetworkTap:
    """Attachable message recorder.

    ::

        tap = NetworkTap(cluster.network)
        ... run workload ...
        assert tap.count(method="replica.write") == 3
        tap.detach()
    """

    def __init__(self, network: Network,
                 predicate: Optional[Callable[[TapRecord], bool]] = None,
                 on_record: Optional[Callable[[TapRecord], None]] = None,
                 keep_records: bool = True,
                 max_records: Optional[int] = None) -> None:
        self.network = network
        self.predicate = predicate
        self.on_record = on_record
        self.keep_records = keep_records
        #: With ``max_records`` set the buffer is a ring holding only
        #: the most recent transmissions (flight-recorder taps stay
        #: O(1) in memory over arbitrarily long runs); unbounded
        #: otherwise.  Assertion helpers work on either.
        self.records: Any = ([] if max_records is None
                             else deque(maxlen=max_records))
        self._attached = True
        network.add_filter(self._observe)

    def _observe(self, src: str, dst: str, payload: Any) -> bool:
        kind, method = classify(payload)
        tracer = self.network.tracer
        trace = tracer.current_trace_id() if tracer is not None else None
        record = TapRecord(time=self.network.sim.now, src=src, dst=dst,
                           kind=kind, method=method, trace=trace)
        if self.predicate is None or self.predicate(record):
            if self.keep_records:
                self.records.append(record)
            if self.on_record is not None:
                # Streaming hook: the flight recorder (repro.obs) feeds
                # its bounded ring from here.  A plain count needs no
                # tap: a filter calling classify() is enough (the chaos
                # history's message tally is one).
                self.on_record(record)
        return True  # pass-through: taps never drop traffic

    def detach(self) -> None:
        """Stop recording."""
        if self._attached:
            self.network.remove_filter(self._observe)
            self._attached = False

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.records.clear()

    def reset(self) -> int:
        """Start a fresh observation window.

        Clears the recorded transmissions and returns how many were
        dropped — the idiom for "settle the cluster, reset, then assert
        on exactly the traffic the next operation causes"."""
        dropped = len(self.records)
        self.records.clear()
        return dropped

    # -- queries ----------------------------------------------------------
    def count(self, src: Optional[str] = None, dst: Optional[str] = None,
              kind: Optional[str] = None, method: Optional[str] = None,
              trace: Optional[int] = None) -> int:
        """Records matching all given criteria."""
        return len(self.select(src=src, dst=dst, kind=kind, method=method,
                               trace=trace))

    def select(self, src: Optional[str] = None, dst: Optional[str] = None,
               kind: Optional[str] = None, method: Optional[str] = None,
               trace: Optional[int] = None) -> list[TapRecord]:
        """Filtered view of the recorded transmissions."""
        out = []
        for record in self.records:
            if src is not None and record.src != src:
                continue
            if dst is not None and record.dst != dst:
                continue
            if kind is not None and record.kind != kind:
                continue
            if method is not None and record.method != method:
                continue
            if trace is not None and record.trace != trace:
                continue
            out.append(record)
        return out

    def between(self, a: str, b: str) -> list[TapRecord]:
        """Transmissions between two endpoints, either direction."""
        return [record for record in self.records
                if (record.src == a and record.dst == b)
                or (record.src == b and record.dst == a)]

    def for_trace(self, trace_id: int) -> list[TapRecord]:
        """Every transmission attributed to one request trace."""
        return [record for record in self.records
                if record.trace == trace_id]

    def methods_histogram(self) -> dict[str, int]:
        """Request count per RPC method (diagnostics)."""
        histogram: dict[str, int] = {}
        for record in self.records:
            if record.kind == "req":
                histogram[record.method] = histogram.get(record.method, 0) + 1
        return histogram
