"""Benchmark harness: one runner per paper table/figure plus ablations.

:data:`PAPER` is the whole suite: every runner that returns a
:class:`~repro.bench.harness.FigureResult`, keyed by its name.
``benchmarks/test_paper.py`` runs each entry and asserts its
expectations.  See DESIGN.md §4 for the experiment index and
EXPERIMENTS.md for the recorded paper-vs-measured outcomes.
"""

from typing import Callable

from . import (ablations, bootcost, figures, relatedwork, scalability,
               triggerperf, usecase)
from .harness import FigureResult

__all__ = ["PAPER"]

PAPER: dict[str, Callable[[], FigureResult]] = {
    "fig4": usecase.fig4_ripple,
    "fig6": usecase.fig6_freshness,
    "fig7a": figures.fig7a,
    "fig7b": figures.fig7b,
    "fig8": figures.fig8,
    "table1": ablations.table1,
    "zk_bottleneck": ablations.zk_bottleneck,
    "boot_cost": bootcost.boot_cost,
    "scalability": scalability.scalability,
    "ablation_quorum": ablations.ablation_quorum,
    "ablation_vnodes": ablations.ablation_vnodes,
    "ablation_persistence": ablations.ablation_persistence,
    "ablation_fanout": ablations.ablation_fanout,
    "ablation_triggers": triggerperf.trigger_latency,
    "ablation_routing": relatedwork.ablation_routing,
    "ablation_membership": relatedwork.ablation_membership,
    "ablation_write_protocol": relatedwork.ablation_write_protocol,
}
