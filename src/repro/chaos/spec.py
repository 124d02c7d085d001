"""The identity of one chaos run, as one frozen value.

A :class:`RunSpec` holds exactly the inputs that move the fault
schedule or the history digest — nothing that only *watches* a run
(``hazards``, ``obs``, the flight recorder, SLO evaluation: those are
:class:`~repro.chaos.runner.ChaosRunner` keywords, and none of them can
move a byte — a seed has one interleaving, docs/protocols.md §14).  The
CLIs, the golden fixture, the explorer and the regression corpus all
build, pass around and store this one value; ``to_dict`` is a corpus
file's ``"spec"``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional

from ..core.config import SednaConfig

__all__ = ["RunSpec"]


@dataclass(frozen=True)
class RunSpec:
    """What to run.  ``seed`` drives the fault schedule, the workload
    mix and the network jitter; with every other field at its default
    it is the only thing needed to replay a run."""

    seed: int
    profile: str = "mixed"     # fault family (chaos.schedule.PROFILES)
    duration: float = 10.0     # simulated seconds of faults before quiesce
    n_nodes: int = 6
    # Workload-matrix scenario (a workloads.scenarios.ScenarioSpec, or a
    # preset name resolved at construction) replacing the default chaos
    # mix; the fault schedule, history records and invariant checkers
    # are unchanged.  None keeps the historical mix byte-identical.
    scenario: Any = None
    causal: Optional[str] = None   # "dvv" / "lww": add the causal slice
    # Host a load-aware rebalancer so live chunked migrations race the
    # fault schedule (adds the migration invariant).
    rebalance: bool = False
    # With rebalance: keyword overrides for the hosted
    # core.rebalance.Rebalancer (pass_byte_budget, chunk_bytes, weights,
    # ...).  None keeps the historical defaults, digest for digest.
    rebalance_opts: Optional[Mapping[str, Any]] = None
    # SednaConfig field overrides; see sedna_config().
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.causal not in (None, "dvv", "lww"):
            raise ValueError(f"causal must be None, 'dvv' or 'lww': "
                             f"{self.causal!r}")
        if isinstance(self.scenario, str):
            # Local import: plain chaos runs stay import-free of the
            # workload matrix.
            from ..workloads.scenarios import get_scenario
            object.__setattr__(self, "scenario",
                               get_scenario(self.scenario))

    def sedna_config(self) -> SednaConfig:
        """The run's cluster config: a 16-vnode ring (small, to keep a
        run around a second of wall clock) overlaid with ``config``."""
        base: dict[str, Any] = {"num_vnodes": 16}
        if self.causal == "dvv":
            # Keep the causal invariant exact: a capped-out sibling is
            # vv-covered but absent, indistinguishable (to the checker)
            # from a silent loss.  The cap itself is unit-tested; the
            # sweep runs effectively uncapped.
            base["dvv_sibling_cap"] = 1024
        return SednaConfig(**{**base, **self.config})

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.scenario is not None:
            d["scenario"] = self.scenario.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        d = dict(d)
        if d.get("scenario") is not None:
            from ..workloads.scenarios import ScenarioSpec
            d["scenario"] = ScenarioSpec.from_dict(d["scenario"])
        return cls(**d)
