"""One workload, in one process and one thread; prints one JSON object.

``run.py`` starts this file as a subprocess per workload, so every
workload gets its own interpreter (imports, allocator state and
``ru_maxrss`` are per workload) and set-up is timed from the moment
the parent spawned it.

Order of a run: set-up (imports, cluster build + boot, preload, one
quarter-size warm-up) -> :data:`FIXED_REPS` equal repetitions with the
profiler off -> further such repetitions while ``--seconds`` lasts ->
with ``--trace 1``, repetitions under ``cProfile`` instead.  Everything
simulated (``sim_*``, counters, ``ok_op_ratio``, ``sim_digest``) comes
from the fixed repetitions only, so it repeats exactly per seed
whatever the host's speed; the wall metrics use every untraced
repetition the time box allowed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import pstats
import resource
import statistics
import sys
import time

FIXED_REPS = 5
#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def percentile(ordered: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def beyond(n: int, p: int) -> int:
    """Samples of ``n`` that lie beyond the ``p``-th percentile."""
    return n - math.ceil(p / 100 * n)


def tail_latency(reps: list) -> tuple:
    """``(percentile, seconds, pooled)``: the tail of the latency
    samples of ``reps``.

    The percentile is the highest of the ladder with >= 10 samples
    beyond it in the pooled sample (the median when the sample supports
    none).  When every repetition alone has that many beyond it, the
    value is the median over repetitions of each repetition's tail —
    one repetition that hit a long fault does not set the number; a
    repetition too small for that (a boot has nine joins) is pooled.
    """
    samples = [sorted(r.latencies) for r in reps]
    pooled = sorted(x for s in samples for x in s)
    p = next((p for p in TAIL_LADDER
              if beyond(len(pooled), p) >= TAIL_MIN_BEYOND), 50)
    if all(beyond(len(s), p) >= TAIL_MIN_BEYOND for s in samples):
        return p, statistics.median(percentile(s, p) for s in samples), False
    return p, percentile(pooled, p), True


def end_to_end(fixed: list, untraced: list, setup_s: float,
               rss_mb: float) -> dict:
    """The seven end-to-end metrics, plus what qualifies them."""
    ops = sum(r.ops for r in fixed)
    latencies = sorted(x for r in fixed for x in r.latencies)
    tail, tail_s, pooled = tail_latency(fixed)
    rates = [r.ops / r.wall_seconds for r in untraced]
    quartiles = (statistics.quantiles(rates, n=4) if len(rates) > 1
                 else [rates[0]] * 3)
    return {
        "metrics": {
            "wall_ops_per_s": statistics.median(rates),
            "sim_ops_per_s": ops / sum(r.sim_seconds for r in fixed),
            "sim_lat_p50_ms": 1e3 * percentile(latencies, 50),
            "sim_lat_tail_ms": 1e3 * tail_s,
            "ok_op_ratio": 1.0 - sum(r.failed for r in fixed) / ops,
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        },
        "tail_percentile": tail,
        "tail_pooled": pooled,
        "lat_samples": len(latencies),
        "rate_quartiles": quartiles,
    }


def counter_metrics(fixed: list) -> dict:
    """Per-layer counts from the fixed repetitions (exact per seed)."""
    ops = sum(r.ops for r in fixed)
    c = {k: sum(r.counters[k] for r in fixed) for k in fixed[0].counters}
    kop = ops / 1e3
    return {
        "net.simulator.events_per_op": c["events"] / ops,
        "net.transport.msgs_per_op": c["msgs"] / ops,
        "net.transport.bytes_per_op": c["bytes"] / ops,
        "net.transport.dropped_per_kop": c["dropped"] / kop,
        "net.rpc.calls_per_op": c["rpc_calls"] / ops,
        "net.rpc.timeouts_per_kop": c["rpc_timeouts"] / kop,
        "core.coordinator.read_repairs_per_kop": c["read_repairs"] / kop,
        "core.coordinator.coalesced_reads_per_kop": c["coalesced_reads"] / kop,
        "core.node.replica_writes_per_op": c["replica_writes"] / ops,
        "core.node.replica_reads_per_op": c["replica_reads"] / ops,
        "core.node.recoveries": c["recoveries"],
        "core.node.investigations": c["investigations"],
        "core.node.repairs": c["repairs"],
        "core.cache.full_loads": c["cache_full_loads"],
        "core.cache.incremental_refreshes": c["cache_incremental_refreshes"],
        "core.cache.vnode_reads": c["cache_vnode_reads"],
        "core.cache.invalidations": c["cache_invalidations"],
        "storage.writes_per_op": c["store_writes"] / ops,
        "storage.reads_per_op": c["store_reads"] / ops,
        "storage.writes_outdated_per_kop": c["store_writes_outdated"] / kop,
        "storage.rows": fixed[-1].counters["rows"],
        "zk.reads_per_op": c["zk_reads"] / ops,
        "zk.writes_per_op": c["zk_writes"] / ops,
    }


def profile_metrics(profiler, traced: list, untraced: list) -> dict:
    """Layer self time and the named suspects, from the traced
    repetitions; shares partition the profiled time and sum to 1."""
    import layers

    stats = pstats.Stats(profiler).stats
    ops = sum(r.ops for r in traced)
    seconds = layers.rollup(stats)
    total = sum(seconds.values())
    out = {}
    for layer, s in seconds.items():
        out[f"{layer}.self_share"] = s / total
        out[f"{layer}.self_us_per_op"] = 1e6 * s / ops
    for stem, (calls, self_s) in layers.suspects(stats).items():
        out[f"{stem}.calls_per_op"] = calls / ops
        out[f"{stem}.self_share"] = self_s / total
    traced_per_op = sum(r.wall_seconds for r in traced) / ops
    untraced_per_op = statistics.median(
        r.wall_seconds / r.ops for r in untraced)
    out["trace.overhead_x"] = traced_per_op / untraced_per_op
    return out


def run(name: str, seed: int, scale: float, seconds: float, trace: bool,
        setup_only: bool, spawned_at: float) -> dict:
    from workloads import WARMUP, WORKLOADS, Stopwatch

    workload = WORKLOADS[name](seed, scale)
    workload.setup()
    workload.repetition(WARMUP, Stopwatch())
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}

    started = time.perf_counter()

    def time_left() -> bool:
        return time.perf_counter() - started < seconds

    def repetition(index: int, stopwatch):
        # Start every repetition in the same collector phase: a full
        # collection costs as much as a tenth of a repetition, and
        # where it falls would otherwise depend on what ran before.
        # Collections the repetition itself triggers stay inside it.
        gc.collect()
        return workload.repetition(index, stopwatch)

    untraced = []
    rss_mb = 0.0
    while len(untraced) < FIXED_REPS or (not trace and time_left()):
        untraced.append(repetition(len(untraced), Stopwatch()))
        if len(untraced) == FIXED_REPS:
            # Linux reports ru_maxrss in KiB.  Read here, so that the
            # figure depends neither on how many more repetitions the
            # time box allows nor on the profiler's tables.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fixed = untraced[:FIXED_REPS]

    result = end_to_end(fixed, untraced, setup_s, rss_mb)
    result["per_layer"] = counter_metrics(fixed)
    result["exact_per_layer"] = sorted(result["per_layer"])
    result["per_layer"]["net.simulator.events_per_wall_s"] = (
        sum(r.counters["events"] for r in untraced)
        / sum(r.wall_seconds for r in untraced))
    reps = list(untraced)
    if trace:
        profiler = cProfile.Profile()
        traced = []
        while not traced or time_left():
            traced.append(repetition(len(reps), Stopwatch(profiler)))
            reps.append(traced[-1])
        result["per_layer"].update(profile_metrics(profiler, traced, untraced))

    problems = [p for r in reps for p in r.problems] + workload.verify()
    rejected = sum(r.rejected for r in reps)
    if rejected:
        problems.append(f"{rejected} operations rejected by the output check")
    result.update(
        workload=name, seed=seed, scale=scale,
        repetitions=len(untraced), timed_ops=sum(r.ops for r in fixed),
        attempted=sum(r.ops for r in reps), rejected=rejected,
        problems=problems,
        sim_digest=hashlib.sha256(
            "".join(r.digest for r in fixed).encode()).hexdigest())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())
    result = run(args.workload, args.seed, args.scale, args.seconds,
                 bool(args.trace), args.setup_only, spawned_at)
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
