"""Simulated network substrate: DES kernel, transport, RPC, failures.

This package replaces the paper's physical 9-server gigabit testbed
with a deterministic discrete-event simulation (see DESIGN.md §2 for
the substitution rationale).  It offers what the system uses and no
more: events, ``sim.timeout``, processes and ``AnyOf``/``AllOf`` in the
kernel; push-only endpoints under unique names in the transport;
request/response calls and one quorum fan-in in the RPC layer.
"""

from .simulator import (AllOf, AnyOf, Event, Process, SimulationError,
                        Simulator, Timeout)
from .latency import LanGigabit, LatencyModel, NoLatency, UniformLatency
from .transport import Endpoint, Message, Network, estimate_size
from .rpc import QuorumWait, RpcError, RpcNode, RpcRejected, RpcTimeout
from .failure import FailureInjector, MessageLoss, Partition
from .tap import NetworkTap, TapRecord

__all__ = [
    "AllOf", "AnyOf", "Event", "Process", "SimulationError",
    "Simulator", "Timeout",
    "LanGigabit", "LatencyModel", "NoLatency", "UniformLatency",
    "Endpoint", "Message", "Network", "estimate_size",
    "QuorumWait", "RpcError", "RpcNode", "RpcRejected", "RpcTimeout",
    "FailureInjector", "MessageLoss", "Partition",
    "NetworkTap", "TapRecord",
]
