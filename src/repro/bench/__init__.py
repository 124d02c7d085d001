"""Benchmark harness: one runner per paper table/figure plus ablations.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured outcomes.
"""

from .harness import FigureResult, ascii_chart, bench_ops, format_table
from .figures import fig7a, fig7b, fig8, memcached_write_read, sedna_write_read
from .usecase import MicroblogSearchEngine, fig4_ripple, fig6_freshness
from .ablations import (ablation_fanout, ablation_persistence,
                        ablation_quorum, ablation_vnodes, table1,
                        zk_bottleneck)

__all__ = [
    "FigureResult", "ascii_chart", "bench_ops", "format_table",
    "fig7a", "fig7b", "fig8", "memcached_write_read", "sedna_write_read",
    "MicroblogSearchEngine", "fig4_ripple", "fig6_freshness",
    "ablation_fanout", "ablation_persistence", "ablation_quorum",
    "ablation_vnodes", "table1", "zk_bottleneck",
]

from .scalability import scalability, throughput_at_size

__all__ += ["scalability", "throughput_at_size"]

from .bootcost import boot_cost, boot_cost_at

__all__ += ["boot_cost", "boot_cost_at"]

from .triggerperf import trigger_latency, trigger_latency_at

__all__ += ["trigger_latency", "trigger_latency_at"]

from .relatedwork import (ablation_membership, ablation_routing,
                          ablation_write_protocol)

__all__ += ["ablation_membership", "ablation_routing",
            "ablation_write_protocol"]
