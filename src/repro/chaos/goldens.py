"""Golden end-state digests: the kernel-refactor regression guard.

A chaos run's history digest is its replay identity — byte-identical
digests mean the exact same interleaving executed.  The sweeps used to
prove that by running every seed *twice* per change; this module pins
the digests once as a checked-in fixture instead, so a kernel or RPC
refactor is validated against the recorded interleavings with a single
run per seed.

Three canonical sweep configurations are covered (the same shapes the
tier-1 sweep tests and CI jobs run):

* ``chaos`` — the mixed fault profile every PR exercises;
* ``migration`` — rebalancer live, chunked migrations racing faults;
* ``causal`` — DVV mode under partition schedules.

The fixture lives at ``tests/chaos/golden_digests.json``.  Regenerate
it (ONLY when a deliberate protocol/workload change legitimately moves
the interleaving — never to paper over an unexplained mismatch) with::

    python -m repro.chaos.goldens --regen

and review the diff: a digest that moved for a seed you did not expect
is a determinism regression, not noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .runner import ChaosReport, ChaosRunner
from .spec import RunSpec

__all__ = ["GOLDEN_CONFIGS", "GOLDEN_SEEDS", "golden_path", "run_config",
           "load_goldens", "generate"]

#: Canonical sweep configurations (``RunSpec`` fields minus the seed).
#: Keep in lockstep with the quick sweep tests (tests/chaos/) — the
#: point is that the guarded shapes are the ones every PR already runs.
GOLDEN_CONFIGS: dict[str, dict] = {
    "chaos": {"profile": "mixed", "duration": 6.0},
    "migration": {"profile": "migration", "duration": 8.0,
                  "rebalance": True},
    "causal": {"profile": "partition", "duration": 8.0, "causal": "dvv"},
    # One workload-matrix scenario per kind (repro.workloads.scenarios):
    # the scenario stream layers on the same seeded substrate, so its
    # interleavings deserve the same refactor guard as the default mix.
    "scenario-zipf": {"profile": "mixed", "duration": 5.0,
                      "scenario": "zipf-hot"},
    "scenario-drift": {"profile": "mixed", "duration": 5.0,
                       "scenario": "drift-diurnal", "rebalance": True},
    "scenario-flash": {"profile": "crash", "duration": 5.0,
                       "scenario": "flash-crowd"},
    "scenario-storm": {"profile": "partition", "duration": 5.0,
                       "scenario": "trigger-storm"},
}

GOLDEN_SEEDS = tuple(range(8))


def golden_path() -> Path:
    """Location of the checked-in fixture."""
    return (Path(__file__).resolve().parents[3]
            / "tests" / "chaos" / "golden_digests.json")


def run_config(name: str, seed: int) -> ChaosReport:
    """Run one canonical configuration at ``seed``."""
    return ChaosRunner(RunSpec(seed=seed, **GOLDEN_CONFIGS[name])).run()


def load_goldens(path: Optional[Path] = None) -> dict:
    """Parse the fixture into {config: {seed(int): digest}}."""
    raw = json.loads((path or golden_path()).read_text())
    return {name: {int(seed): digest
                   for seed, digest in entry["digests"].items()}
            for name, entry in raw.items()}


def generate(seeds: tuple = GOLDEN_SEEDS) -> dict:
    """Run every config × seed and return the fixture dict."""
    out: dict[str, dict] = {}
    for name, params in GOLDEN_CONFIGS.items():
        digests = {}
        for seed in seeds:
            report = run_config(name, seed)
            if not report.ok:
                raise RuntimeError(
                    f"golden run {name} seed={seed} violated invariants:\n"
                    + report.describe())
            digests[str(seed)] = report.digest
        out[name] = {"params": params, "digests": digests}
    return out


def main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.goldens",
        description="Verify (default) or regenerate the golden "
                    "chaos-digest fixture.")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite tests/chaos/golden_digests.json "
                             "from fresh runs")
    args = parser.parse_args(argv)

    if args.regen:
        fixture = generate()
        golden_path().write_text(json.dumps(fixture, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote {golden_path()}")
        return 0

    goldens = load_goldens()
    bad = 0
    for name, digests in goldens.items():
        for seed, want in digests.items():
            got = run_config(name, seed).digest
            status = "ok" if got == want else "MISMATCH"
            bad += got != want
            print(f"{name} seed={seed}: {status}")
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
