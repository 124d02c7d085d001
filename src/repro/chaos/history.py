"""Per-operation history of a chaos run.

Every client operation is recorded twice — at *invocation* (timestamp,
kind, key, the write's version timestamp) and at *response* (status,
acking/responding replicas, the value that came back).  The invariant
checkers in :mod:`repro.chaos.invariants` reason over these records;
the sha256 digest over the canonical byte form is the replay-identity
fingerprint (same seed → same digest, byte for byte).

Records are also indexed by key as they open, in op order, so the
per-key queries the checkers ask (:meth:`History.acked_writes`,
:meth:`History.acked_causal_writes`, :meth:`History.ops` with a key)
read one key's records, not the whole log: checking a run stays
linear in its length instead of quadratic.

The recorder also tallies network traffic by (message kind, RPC
method): :meth:`History.observe` is a pass-through network filter
that classifies each transmission with :func:`repro.net.tap.classify`
and bumps one counter — counts only, so a long run does not buffer
every transmission.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from ..net.tap import classify

__all__ = ["OpRecord", "History"]

WRITE_KINDS = ("write_latest", "write_all")


@dataclass
class OpRecord:
    """One client operation, invocation through response."""

    op_id: int
    client: str
    kind: str                 # write_latest/write_all/read_latest/read_all/delete
    key: str                  # encoded full key
    invoked: float
    value: Any = None         # written value (writes only)
    ts: Optional[float] = None        # write version timestamp
    completed: Optional[float] = None
    status: Optional[str] = None      # ok/outdated/failure/found/miss
    acks: tuple = ()                  # replicas that acked (writes/deletes)
    responders: tuple = ()            # replicas that answered (reads)
    result_ts: Optional[float] = None
    result_source: Optional[str] = None
    result_value: Any = None
    result_elements: tuple = ()       # ((source, ts, value), ...) for read_all
    # Causal (DVV) fields — docs/protocols.md §16.  Serialized only
    # when set, so histories of non-causal runs keep the exact byte
    # form (and digest) they had before the causal mode existed.
    ctx: tuple = ()                   # supplied/returned causal context
    dot: Optional[tuple] = None       # (replica, counter) the write minted

    @property
    def done(self) -> bool:
        """Whether the response was recorded."""
        return self.completed is not None

    def to_line(self) -> str:
        """Canonical one-line form (feeds the history digest)."""
        fields = [
            str(self.op_id), self.client, self.kind, self.key,
            repr(self.invoked), repr(self.ts), repr(self.value),
            repr(self.completed), str(self.status),
            ",".join(self.acks), ",".join(self.responders),
            repr(self.result_ts), str(self.result_source),
            repr(self.result_value),
            ";".join(f"{s},{repr(t)},{repr(v)}"
                     for s, t, v in self.result_elements),
        ]
        if self.ctx or self.dot is not None:
            fields.append(";".join(f"{r},{c}" for r, c in self.ctx))
            fields.append(repr(self.dot))
        return "|".join(fields)


class History:
    """Append-only operation log plus message tallies."""

    def __init__(self):
        self.records: list[OpRecord] = []
        # key -> that key's records, op order (the same objects).
        self._by_key: dict[str, list[OpRecord]] = {}
        self.message_counts: dict[tuple[str, str], int] = {}

    # -- recording --------------------------------------------------------
    def begin(self, client: str, kind: str, key: str, now: float,
              value: Any = None, ts: Optional[float] = None,
              ctx: tuple = ()) -> OpRecord:
        """Open a record at invocation time; returns it for completion."""
        record = OpRecord(op_id=len(self.records), client=client, kind=kind,
                          key=key, invoked=now, value=value, ts=ts,
                          ctx=tuple(tuple(pair) for pair in ctx))
        self.records.append(record)
        self._by_key.setdefault(key, []).append(record)
        return record

    def complete(self, record: OpRecord, now: float, status: str,
                 acks: tuple = (), responders: tuple = (),
                 result_ts: Optional[float] = None,
                 result_source: Optional[str] = None,
                 result_value: Any = None,
                 result_elements: tuple = (),
                 ctx: Optional[tuple] = None,
                 dot: Optional[tuple] = None) -> None:
        """Close a record at response time."""
        record.completed = now
        record.status = status
        record.acks = tuple(acks)
        record.responders = tuple(responders)
        record.result_ts = result_ts
        record.result_source = result_source
        record.result_value = result_value
        record.result_elements = tuple(result_elements)
        if ctx is not None:
            record.ctx = tuple(tuple(pair) for pair in ctx)
        if dot is not None:
            record.dot = tuple(dot)

    def observe(self, src: str, dst: str, payload: Any) -> bool:
        """Network filter: count the message by (kind, method), pass it."""
        token = classify(payload)
        self.message_counts[token] = self.message_counts.get(token, 0) + 1
        return True

    # -- queries ----------------------------------------------------------
    def ops(self, kind: Optional[str] = None,
            key: Optional[str] = None) -> list[OpRecord]:
        """Completed records matching the criteria, in op order."""
        records = self.records if key is None else self._by_key.get(key, ())
        return [r for r in records
                if r.done and (kind is None or r.kind == kind)]

    def written_keys(self) -> list[str]:
        """Keys any write (acked or not) was attempted on, sorted."""
        return sorted({r.key for r in self.records
                       if r.kind in WRITE_KINDS})

    def deleted_keys(self) -> set[str]:
        """Keys touched by any delete attempt — even a *failed* delete
        may have removed the row on a minority of replicas, so these
        keys are tainted for the durability-flavoured invariants."""
        return {r.key for r in self.records if r.kind == "delete"}

    def acked_writes(self, key: str, kind: Optional[str] = None
                     ) -> list[OpRecord]:
        """Quorum-acknowledged (status ``ok``) writes on ``key``, op order."""
        return [r for r in self._by_key.get(key, ())
                if r.status == "ok" and r.kind in WRITE_KINDS
                and (kind is None or r.kind == kind)]

    def causal_keys(self) -> list[str]:
        """Keys any causal (DVV) write was attempted on, sorted."""
        return sorted({r.key for r in self.records
                       if r.kind == "write_causal"})

    def acked_causal_writes(self, key: str) -> list[OpRecord]:
        """Quorum-acknowledged causal writes on ``key``, op order."""
        return [r for r in self._by_key.get(key, ())
                if r.kind == "write_causal" and r.status == "ok"]

    # -- fingerprinting ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical byte form of the whole history."""
        lines = [record.to_line() for record in self.records]
        lines.append("messages:" + ",".join(
            f"{kind}/{method}={count}"
            for (kind, method), count in sorted(self.message_counts.items())))
        return "\n".join(lines).encode()

    def digest(self) -> str:
        """sha256 over :meth:`to_bytes` — the replay-identity check."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def __len__(self) -> int:
        return len(self.records)
