"""CLI for observability-instrumented runs.

Runs one observed chaos schedule (``ChaosRunner(obs=True)``: the
whole diagnosis pipeline), then dumps the metrics snapshot, renders
per-request span timelines, or verifies that observing did not move the run (the seed
replayed plain must end on the same digest — the CI smoke).

Examples::

    python -m repro.obs --seed 0                       # summary
    python -m repro.obs --seed 0 --json snap.json      # dump snapshot
    python -m repro.obs --seed 0 --text                # flat text form
    python -m repro.obs --seed 0 --timelines 3         # slowest traces
    python -m repro.obs --seed 0 --verify              # observed == plain
    python -m repro.obs --diff before.json after.json  # snapshot diff

Diagnosis-pipeline subcommands (each runs one observed chaos schedule
and prints one stage's view of it)::

    python -m repro.obs series --seed 0                # sparklines
    python -m repro.obs series --pattern '*/coord.*'   # filtered
    python -m repro.obs critical --seed 0              # phase tables
    python -m repro.obs flame --seed 0 --out out.folded  # flamegraph data
    python -m repro.obs slo --seed 0                   # burn-rate report

Exit status: 0 on success; 1 when the run broke an invariant, the
``--verify`` check failed, or a snapshot file could not be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..chaos.runner import ChaosRunner
from ..chaos.schedule import PROFILES
from ..chaos.spec import RunSpec
from .metrics import SNAPSHOT_SCHEMA, diff_snapshots
from .trace import format_timeline


def _run(args: argparse.Namespace, obs: bool = True):
    runner = ChaosRunner(RunSpec(seed=args.seed, profile=args.profile,
                                 duration=args.duration,
                                 n_nodes=args.nodes),
                         obs=obs)
    return runner, runner.run()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"written to {out}")


def _cmd_series(args: argparse.Namespace) -> int:
    runner, report = _run(args)
    _emit(runner.obs_bundle.timeseries.format_series(args.pattern),
          args.out)
    return 0 if report.ok else 1


def _cmd_critical(args: argparse.Namespace) -> int:
    from .critical import aggregate, format_breakdown
    runner, report = _run(args)
    export = runner.obs_bundle.tracer.export()
    _emit(format_breakdown(aggregate(export)), args.out)
    return 0 if report.ok else 1


def _cmd_flame(args: argparse.Namespace) -> int:
    from .critical import folded_stacks, format_flame
    runner, report = _run(args)
    export = runner.obs_bundle.tracer.export()
    _emit(format_flame(folded_stacks(export)), args.out)
    return 0 if report.ok else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    runner, report = _run(args)
    _emit(runner.obs_bundle.slo.format_slo(), args.out)
    return 0 if report.ok else 1


_COMMANDS = {"series": _cmd_series, "critical": _cmd_critical,
             "flame": _cmd_flame, "slo": _cmd_slo}


def _slowest_traces(tracer, n: int) -> list[int]:
    """Trace ids ordered by wall time, longest first (ties by id)."""
    def span_time(tid: int) -> float:
        spans = tracer.spans(tid)
        ends = [s.end for s in spans if s.end is not None]
        return (max(ends) - spans[0].start) if ends else 0.0

    return sorted(tracer.traces,
                  key=lambda tid: (-span_time(tid), tid))[:n]


def _cmd_diff(path_a: str, path_b: str) -> int:
    try:
        with open(path_a) as fh:
            before = json.load(fh)
        with open(path_b) as fh:
            after = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    delta = diff_snapshots(before, after)
    print(json.dumps(delta, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """CI smoke: the seed observed, then plain -> a schema-valid
    snapshot and the same digest (observation does not move the run)."""
    _, report1 = _run(args)
    _, plain = _run(args, obs=False)
    snap1 = report1.obs_snapshot
    problems = []
    if snap1.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(f"schema {snap1.get('schema')!r} != "
                        f"{SNAPSHOT_SCHEMA!r}")
    if not snap1.get("series"):
        problems.append("snapshot has no series")
    if not snap1.get("vnodes"):
        problems.append("snapshot has no per-vnode feed rows")
    if snap1.get("tracing", {}).get("spans", 0) == 0:
        problems.append("tracer recorded no spans")
    if report1.digest != plain.digest:
        problems.append(f"observing moved the run: digest "
                        f"{report1.digest[:16]} observed, "
                        f"{plain.digest[:16]} plain")
    if not report1.ok:
        problems.append("chaos invariants violated")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"OK: seed {args.seed} observed == plain — "
          f"{len(snap1['series'])} series, "
          f"{snap1['tracing']['traces']} traces, "
          f"{snap1['tracing']['spans']} spans, "
          f"digest {report1.digest[:16]}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an observed chaos schedule; dump, verify, "
                    "or diff the resulting snapshots.")
    parser.add_argument("command", nargs="?", default=None,
                        choices=sorted(_COMMANDS),
                        help="diagnosis-pipeline subcommand: 'series' "
                             "(time-series sparklines), 'critical' "
                             "(critical-path phase tables), 'flame' "
                             "(folded-stack flamegraph data), 'slo' "
                             "(burn-rate report)")
    parser.add_argument("--pattern", default="*",
                        help="series: fnmatch filter over labels")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="subcommands: write output to PATH "
                             "instead of stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="mixed")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="simulated seconds of faulted workload")
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the snapshot as JSON ('-' = stdout)")
    parser.add_argument("--text", action="store_true",
                        help="print the flat text export")
    parser.add_argument("--timelines", type=int, metavar="N", default=0,
                        help="print the N slowest request timelines")
    parser.add_argument("--verify", action="store_true",
                        help="run the seed observed and plain; fail "
                             "unless the digests are equal and the "
                             "snapshot is schema-valid")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                        default=None,
                        help="diff two snapshot JSON files and exit")
    args = parser.parse_args(argv)

    if args.diff:
        return _cmd_diff(*args.diff)
    if args.verify:
        return _cmd_verify(args)
    if args.command is not None:
        return _COMMANDS[args.command](args)

    runner, report = _run(args)
    bundle = runner.obs_bundle
    snap = report.obs_snapshot
    print(report.describe())
    tracing = snap.get("tracing", {})
    print(f"obs: {len(snap.get('series', {}))} series, "
          f"{tracing.get('traces', 0)} traces, "
          f"{tracing.get('spans', 0)} spans "
          f"({tracing.get('dropped_spans', 0)} dropped)")

    if args.json:
        payload = json.dumps(snap, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"snapshot -> {args.json}")
    if args.text:
        print(bundle.metrics.to_text())
    if args.timelines:
        for tid in _slowest_traces(bundle.tracer, args.timelines):
            print()
            print(format_timeline(bundle.tracer, tid))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
