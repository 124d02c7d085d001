"""CLI for one-off chaos runs.

Examples::

    python -m repro.chaos --seed 7 --profile mixed
    python -m repro.chaos --seed 7 --hazards        # tie-hazard scan
    python -m repro.chaos --seeds 0-9 --hazards     # sweep
    python -m repro.chaos --seed 7 --slo            # burn-rate alerts
    python -m repro.chaos --seed 7 --scenario flash-crowd
    python -m repro.chaos --seed 7 --record out.json  # flight recorder

Exit status: 0 when every run held all invariants (and, with
``--hazards``, surfaced no tie hazard), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from ..workloads.scenarios import SCENARIOS
from .runner import ChaosRunner
from .schedule import PROFILES
from .spec import RunSpec


def _parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run seeded chaos experiments against the "
                    "simulated Sedna cluster.")
    parser.add_argument("--seed", type=int, default=1,
                        help="single seed to run (default 1)")
    parser.add_argument("--seeds", type=str, default=None,
                        help="comma/range list, e.g. '0-9' or '1,4,7'; "
                             "overrides --seed")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="mixed")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="simulated seconds of faulted workload")
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default=None,
                        help="drive a workload-matrix scenario "
                             "(repro.workloads.scenarios) instead of "
                             "the default chaos mix; faults and "
                             "invariants are unchanged")
    parser.add_argument("--hazards", action="store_true",
                        help="attach the tie-hazard detector "
                             "(repro.analysis.hazards) to the run")
    parser.add_argument("--rebalance", action="store_true",
                        help="host a load-aware rebalancer so live "
                             "chunked migrations race the fault "
                             "schedule (adds the migration invariant)")
    parser.add_argument("--causal", choices=("dvv", "lww"), default=None,
                        help="add a causal workload slice: 'dvv' runs "
                             "it through the dotted-version-vector "
                             "mode (checked by the no-silent-loss "
                             "invariant), 'lww' runs the identical "
                             "concurrency pattern through plain "
                             "write_latest for comparison")
    parser.add_argument("--slo", action="store_true",
                        help="evaluate the default SLOs with "
                             "multi-window burn-rate alerting "
                             "(implies the observability bundle)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="arm the flight recorder; on any hard "
                             "invariant violation its dump is written "
                             "to PATH (seed suffix added on sweeps)")
    parser.add_argument("--record-always", action="store_true",
                        help="with --record: dump even on clean runs "
                             "(CI artifact collection)")
    args = parser.parse_args(argv)

    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    base = RunSpec(seed=args.seed, profile=args.profile,
                   duration=args.duration, n_nodes=args.nodes,
                   scenario=args.scenario, rebalance=args.rebalance,
                   causal=args.causal)
    failed = 0
    for seed in seeds:
        report = ChaosRunner(replace(base, seed=seed),
                             hazards=args.hazards, slo=args.slo,
                             record=args.record is not None,
                             record_always=(args.record is not None
                                            and args.record_always)).run()
        print(report.describe())
        if args.record is not None and report.flight_dump:
            path = args.record if len(seeds) == 1 else \
                f"{args.record}.seed{seed}"
            with open(path, "w") as fh:
                json.dump(report.flight_dump, fh, indent=1, sort_keys=True)
            print(f"  flight dump written to {path}")
        if not report.ok or report.hazards:
            failed += 1
    if len(seeds) > 1:
        print(f"{len(seeds) - failed}/{len(seeds)} runs clean")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
