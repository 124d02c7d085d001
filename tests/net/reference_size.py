"""The size model's reference: the item-by-item walker, kept as oracle.

This is ``repro.net.transport.estimate_size`` as it stood before it
became a level-order walk, moved here verbatim — the one change is that
the walk starts at ``depth`` instead of 0, which is how a sender sizes
the variable part of an envelope where it sits.  The tests require the
production walker, and every size a sender passes to the network, to
equal this function exactly.
"""

from typing import Any


def reference_size(payload: Any, depth: int = 0) -> int:
    """Rough wire size in bytes of a message payload.

    Good enough for the bandwidth term of the latency model: strings and
    bytes count their length, numbers 8 bytes, containers add a small
    per-item framing overhead.
    """
    total = 0
    stack = [(payload, depth)]
    push = stack.append
    while stack:
        obj, depth = stack.pop()
        kind = type(obj)
        if kind is str:
            # ASCII-dominated payloads: len() is the byte count.
            total += len(obj)
        elif kind is int or kind is float:
            total += 8
        elif kind is bytes:
            total += len(obj)
        elif kind is dict:
            total += 8
            if depth <= 6:
                for k, v in obj.items():
                    push((k, depth + 1))
                    push((v, depth + 1))
            else:
                total += 16 * len(obj)
        elif kind is list or kind is tuple:
            total += 8
            if depth <= 6:
                for v in obj:
                    push((v, depth + 1))
            else:
                total += 16 * len(obj)
        elif obj is None:
            total += 1
        elif kind is bool:
            total += 1
        elif isinstance(obj, (bytearray, memoryview)):
            total += len(obj)
        elif isinstance(obj, (set, frozenset)):
            total += 8
            if depth <= 6:
                for v in obj:
                    push((v, depth + 1))
        elif isinstance(obj, (int, float, str, bytes)):  # subclasses
            total += len(obj) if isinstance(obj, (str, bytes)) else 8
        else:
            d = getattr(obj, "__dict__", None)
            if d:
                total += 16
                push((d, depth + 1))
            else:
                total += 32
    return total
