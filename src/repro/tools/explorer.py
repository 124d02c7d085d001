"""Deterministic config explorer over the adversarial scenario matrix.

Archgym-style parameter search, minus the wall-clock: every cell of
the (scenario × config) matrix is one seeded
:class:`~repro.chaos.runner.ChaosRunner` run on the deterministic sim,
scored by :func:`repro.obs.fitness.extract_fitness`.  Same seeds →
byte-identical best-config tables, which is what makes the search a
*test generator*: any cell that violates an invariant — or whose
fitness regresses past ``corpus_bound`` × the scenario's best — is
frozen into a replayable corpus entry under
``tests/chaos/regressions/`` that the tier-1 suite auto-discovers and
re-runs with byte-identical digests (``tests/chaos/
test_regression_corpus.py``).

The searched config space (``DIMENSIONS``):

* ``rw`` — (R, W) quorum pairs, all satisfying R + W > N and W > N/2;
* ``lease_base`` — the §III.E mapping-cache lease starting period;
* ``pass_byte_budget`` — the rebalancer's per-pass migration budget;
* ``heat_write_weight`` — the ``writes`` entry of ``HEAT_WEIGHTS``;
* ``scan_interval`` — the §IV.C trigger dirty-column sweep cadence.

CLI (``python -m repro.explore``)::

    python -m repro.explore                    # matrix × 8 random configs
    python -m repro.explore --mode grid --evals 16
    python -m repro.explore --scenarios flash-crowd,trigger-storm

Outputs land in ``benchmarks/results/``: ``BENCH_scenarios.json``
(best config + full table + fitness trajectory per scenario) and
``scenario_matrix.txt`` (the human-readable tables).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from ..chaos.runner import ChaosReport, ChaosRunner
from ..chaos.spec import RunSpec
from ..core.hashring import HEAT_WEIGHTS
from ..obs.fitness import extract_fitness
from ..workloads.scenarios import (SCENARIOS, ScenarioSpec, get_scenario,
                                   scenario_matrix)

__all__ = ["ConfigPoint", "DIMENSIONS", "grid_points", "random_points",
           "run_cell", "explore", "format_tables", "write_outputs",
           "corpus_entry", "write_corpus_entry", "load_corpus",
           "replay_corpus_entry", "CORPUS_SCHEMA", "BENCH_SCHEMA", "main"]

CORPUS_SCHEMA = "repro.chaos.regression/3"
BENCH_SCHEMA = "repro.bench.scenarios/1"

#: The searched axes.  Every (R, W) pair satisfies the paper's §III.C
#: constraints for N=3 (R + W > N, W > N/2) — ``SednaConfig`` would
#: reject anything else at construction.
DIMENSIONS: dict[str, tuple] = {
    "rw": ((1, 3), (2, 2), (2, 3), (3, 2)),
    "lease_base": (0.5, 1.0, 2.0),
    "pass_byte_budget": (32 * 1024, 64 * 1024, 128 * 1024),
    "heat_write_weight": (1.0, 2.0, 4.0),
    "scan_interval": (0.05, 0.2),
}


@dataclass(frozen=True)
class ConfigPoint:
    """One point of the config space."""

    read_quorum: int = 2
    write_quorum: int = 2
    lease_base: float = 1.0
    pass_byte_budget: int = 64 * 1024
    heat_write_weight: float = 2.0
    scan_interval: float = 0.05
    num_vnodes: int = 16

    def label(self) -> str:
        """Stable human-readable cell id (table rows, corpus names)."""
        return (f"R{self.read_quorum}W{self.write_quorum}"
                f"-lease{self.lease_base:g}"
                f"-budget{self.pass_byte_budget // 1024}k"
                f"-hw{self.heat_write_weight:g}"
                f"-scan{self.scan_interval:g}")

    def apply(self, spec: RunSpec) -> RunSpec:
        """``spec`` run at this point.  The rebalancer axes only exist
        when the run hosts one; without it they are inert."""
        opts = None
        if spec.rebalance:
            opts = {"pass_byte_budget": self.pass_byte_budget,
                    "weights": {**HEAT_WEIGHTS,
                                "writes": self.heat_write_weight}}
        return replace(spec, rebalance_opts=opts, config={
            **spec.config, "num_vnodes": self.num_vnodes,
            "read_quorum": self.read_quorum,
            "write_quorum": self.write_quorum,
            "lease_base": self.lease_base,
            "scan_interval": self.scan_interval})


def grid_points(limit: Optional[int] = None) -> list[ConfigPoint]:
    """The full cartesian grid (|rw|·|lease|·|budget|·|hw|·|scan| =
    216 points), optionally truncated to the first ``limit``."""
    points = []
    for rw, lease, budget, hw, scan in itertools.product(
            *(DIMENSIONS[dim] for dim in ("rw", "lease_base",
                                          "pass_byte_budget",
                                          "heat_write_weight",
                                          "scan_interval"))):
        points.append(ConfigPoint(read_quorum=rw[0], write_quorum=rw[1],
                                  lease_base=lease,
                                  pass_byte_budget=budget,
                                  heat_write_weight=hw,
                                  scan_interval=scan))
    return points[:limit] if limit else points


def random_points(n: int, seed: int = 0) -> list[ConfigPoint]:
    """``n`` distinct seeded draws from the grid, default point first
    (so every search carries the shipped config as its baseline)."""
    rng = random.Random(f"{seed}/explorer/points")
    out = [ConfigPoint()]
    seen = {out[0]}
    attempts = 0
    while len(out) < n and attempts < n * 50:
        attempts += 1
        rw = DIMENSIONS["rw"][rng.randrange(len(DIMENSIONS["rw"]))]
        point = ConfigPoint(
            read_quorum=rw[0], write_quorum=rw[1],
            lease_base=rng.choice(DIMENSIONS["lease_base"]),
            pass_byte_budget=rng.choice(DIMENSIONS["pass_byte_budget"]),
            heat_write_weight=rng.choice(DIMENSIONS["heat_write_weight"]),
            scan_interval=rng.choice(DIMENSIONS["scan_interval"]))
        if point not in seen:
            seen.add(point)
            out.append(point)
    return out[:n]


def run_cell(spec: RunSpec, point: ConfigPoint) -> ChaosReport:
    """One (scenario, config) cell: ``spec`` run at ``point``, watched
    by the obs bundle (fitness is read off the metrics snapshot)."""
    return ChaosRunner(point.apply(spec), obs=True).run()


# -- corpus entries -------------------------------------------------------
def corpus_entry(spec: RunSpec, label: str, digest: str, fitness: dict,
                 reason: str) -> dict:
    """A replayable regression record: the exact run (``report.spec``)
    plus the digest and fitness it must reproduce.  The name is
    ``<workload>--<config label>--seed<N>``."""
    workload = spec.scenario.name if spec.scenario else spec.profile
    return {"schema": CORPUS_SCHEMA,
            "name": f"{workload}--{label}--seed{spec.seed}",
            "reason": reason, "spec": spec.to_dict(),
            "digest": digest, "fitness": fitness}


def write_corpus_entry(corpus_dir: Path, entry: dict) -> Path:
    """Write one entry under a deterministic, collision-free file name:
    the workload part of its name plus a hash of the whole name."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    stem = hashlib.sha256(entry["name"].encode()).hexdigest()[:10]
    path = corpus_dir / f"{entry['name'].partition('--')[0]}-{stem}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir: Path) -> list[tuple[Path, dict]]:
    """Every ``*.json`` entry under ``corpus_dir``, sorted by name."""
    if not corpus_dir.is_dir():
        return []
    return [(path, json.loads(path.read_text()))
            for path in sorted(corpus_dir.glob("*.json"))]


def replay_corpus_entry(entry: dict) -> ChaosReport:
    """Re-run one corpus entry exactly as it was recorded."""
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"unknown corpus schema {entry.get('schema')!r}")
    return ChaosRunner(RunSpec.from_dict(entry["spec"])).run()


# -- the search -----------------------------------------------------------
def explore(scenarios: Sequence[ScenarioSpec],
            points: Sequence[ConfigPoint], base: RunSpec,
            corpus_dir: Optional[Path] = None, corpus_bound: float = 3.0,
            log: Any = None) -> dict:
    """Run the whole matrix; returns the ``BENCH_scenarios`` payload.

    Every cell is ``base`` with one scenario and one config point.
    ``corpus_dir=None`` disables corpus promotion; otherwise every
    violating cell and every cell whose score exceeds ``corpus_bound``
    × the scenario best is written out as a regression entry.
    """
    scenarios_out: dict[str, dict] = {}
    for scenario in scenarios:
        evals: list[dict] = []
        cells: list[RunSpec] = []
        trajectory: list[dict] = []
        best_so_far: Optional[float] = None
        for point in points:
            report = run_cell(replace(base, scenario=scenario), point)
            cells.append(report.spec)
            fitness = extract_fitness(report)
            score = fitness["score"]
            best_so_far = score if best_so_far is None \
                else min(best_so_far, score)
            evals.append({"label": point.label(),
                          "point": asdict(point),
                          "fitness": fitness,
                          "digest": report.digest,
                          "ok": report.ok})
            trajectory.append({"label": point.label(), "score": score,
                               "best_so_far": best_so_far})
            if log is not None:
                log(f"[{scenario.name}] {point.label()} score={score:g}"
                    + ("" if report.ok else "  INVARIANT VIOLATION"))
        table = sorted(evals,
                       key=lambda row: (row["fitness"]["score"],
                                        row["label"]))
        best = table[0]
        promoted: list[str] = []
        if corpus_dir is not None:
            best_score = best["fitness"]["score"]
            for row, cell in zip(evals, cells):
                fit = row["fitness"]
                reason = None
                if fit["violations"]:
                    reason = (f"invariant-violation: {fit['violations']} "
                              f"hard anomalies")
                elif (corpus_bound > 0 and best_score > 0
                        and fit["score"] > corpus_bound * best_score):
                    reason = (f"fitness-regression: score {fit['score']:g} "
                              f"> {corpus_bound:g}x scenario best "
                              f"{best_score:g}")
                if reason is not None:
                    entry = corpus_entry(cell, row["label"], row["digest"],
                                         fit, reason)
                    path = write_corpus_entry(corpus_dir, entry)
                    promoted.append(path.name)
                    if log is not None:
                        log(f"[{scenario.name}] promoted {path.name}: "
                            f"{reason}")
        scenarios_out[scenario.name] = {
            "spec": scenario.to_dict(), "best": best, "table": table,
            "trajectory": trajectory, "promoted": promoted}
    return {"schema": BENCH_SCHEMA, "seed": base.seed,
            "duration": base.duration, "profile": base.profile,
            "n_nodes": base.n_nodes, "rebalance": base.rebalance,
            "n_configs": len(points),
            "corpus_bound": corpus_bound, "scenarios": scenarios_out}


# -- output ---------------------------------------------------------------
_COLUMNS = ("score", "p99_read_s", "p99_write_s", "op_rate_spread",
            "failure_ratio", "failures", "aborts", "violations")


def format_tables(out: dict) -> str:
    """Human-readable per-scenario best-config tables (deterministic:
    derived from the sorted JSON payload only)."""
    lines = [f"scenario matrix  seed={out['seed']} "
             f"duration={out['duration']:g} profile={out['profile']} "
             f"configs={out['n_configs']}"]
    for name in sorted(out["scenarios"]):
        result = out["scenarios"][name]
        lines.append("")
        lines.append(f"== {name}  (best: {result['best']['label']}) ==")
        header = f"{'config':<38}" + "".join(f"{c:>16}" for c in _COLUMNS)
        lines.append(header)
        for row in result["table"]:
            fit = row["fitness"]
            lines.append(f"{row['label']:<38}"
                         + "".join(f"{fit[c]:>16g}" for c in _COLUMNS))
        if result["promoted"]:
            lines.append("promoted to regression corpus: "
                         + ", ".join(result["promoted"]))
    return "\n".join(lines) + "\n"


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def default_results_dir() -> Path:
    return _repo_root() / "benchmarks" / "results"


def default_corpus_dir() -> Path:
    return _repo_root() / "tests" / "chaos" / "regressions"


def write_outputs(out: dict, results_dir: Path) -> list[Path]:
    """Write ``BENCH_scenarios.json`` + the text tables; returns paths."""
    results_dir.mkdir(parents=True, exist_ok=True)
    bench = results_dir / "BENCH_scenarios.json"
    bench.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    tables = results_dir / "scenario_matrix.txt"
    tables.write_text(format_tables(out))
    return [bench, tables]


# -- CLI ------------------------------------------------------------------
def _resolve_scenarios(spec: str) -> list[ScenarioSpec]:
    if spec == "matrix":
        return scenario_matrix()
    if spec == "all":
        return [SCENARIOS[name] for name in sorted(SCENARIOS)]
    return [get_scenario(name.strip()) for name in spec.split(",")]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Deterministic (scenario x config) search over the "
                    "simulated Sedna cluster; regressions land as "
                    "replayable seed-corpus tests.")
    parser.add_argument("--scenarios", default="matrix",
                        help="'matrix' (zipf theta sweep + drift/flash/"
                             "storm, the default), 'all' (the presets), "
                             "or a comma list of preset names")
    parser.add_argument("--mode", choices=("random", "grid"),
                        default="random",
                        help="config sampling: seeded random draws "
                             "(default) or the cartesian grid prefix")
    parser.add_argument("--evals", type=int, default=8,
                        help="configs evaluated per scenario (default 8)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=4.0,
                        help="simulated seconds of faulted workload "
                             "per cell")
    parser.add_argument("--profile", default="mixed")
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--no-rebalance", action="store_true",
                        help="leave the rebalancer off (the migration "
                             "budget/heat axes become inert)")
    parser.add_argument("--results-dir", type=Path,
                        default=default_results_dir())
    parser.add_argument("--corpus-dir", type=Path,
                        default=default_corpus_dir())
    parser.add_argument("--no-corpus", action="store_true",
                        help="never write regression-corpus entries")
    parser.add_argument("--corpus-bound", type=float, default=3.0,
                        help="promote cells scoring worse than BOUND x "
                             "the scenario best (0 disables the fitness "
                             "rule; violations always promote)")
    args = parser.parse_args(argv)

    scenarios = _resolve_scenarios(args.scenarios)
    points = (random_points(args.evals, args.seed)
              if args.mode == "random" else grid_points(args.evals))
    base = RunSpec(seed=args.seed, duration=args.duration,
                   profile=args.profile, n_nodes=args.nodes,
                   rebalance=not args.no_rebalance)
    out = explore(scenarios, points, base,
                  corpus_dir=None if args.no_corpus else args.corpus_dir,
                  corpus_bound=args.corpus_bound, log=print)
    for path in write_outputs(out, args.results_dir):
        print(f"wrote {path}")
    violations = sum(1 for result in out["scenarios"].values()
                     for row in result["table"]
                     if row["fitness"]["violations"])
    if violations:
        print(f"{violations} cell(s) violated invariants")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
