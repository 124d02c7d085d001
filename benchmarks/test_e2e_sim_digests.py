"""Digest identity of the repo benchmark, as a test (``perf-smoke`` job).

A performance change must not move a simulated event: each workload's
``sim_digest`` hashes its outcomes and ``events_scheduled``, so equal
digests mean the same interleaving ran.  This replays the five
workloads small (``--scale 0.05 --seed 1 --trace 0``, ~12 s) through
``benchmarks/e2e/run.py``'s own entry points and compares each digest
with ``benchmarks/results/e2e_sim_digests.json``.

Outside tier-1 (it spawns 25 interpreters) and outside
``benchmarks/e2e/`` (a PR that claims a gain may not edit the benchmark
it is measured by).  Edit the JSON only in a PR that means to move the
interleaving, and say which workload moved and why; the new values are
the ``sim_digest`` lines of
``python3 benchmarks/e2e/run.py --scale 0.05 --seed 1 --trace 0``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))   # run.py imports its siblings by name

import run as bench  # noqa: E402

RECORDED = HERE / "results" / "e2e_sim_digests.json"


def replay(scale: float, seed: int) -> dict:
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = bench.run_set(spec, names, seed, scale, 0.0, 0, quiet=True)
    assert not any(r["problems"] for r in results.values()), {
        name: r["problems"] for name, r in results.items() if r["problems"]}
    return {name: results[name]["sim_digest"] for name in names}


def test_sim_digests_are_the_recorded_ones():
    recorded = json.loads(RECORDED.read_text())
    got = replay(recorded["scale"], recorded["seed"])
    moved = {name: (want[:12], got.get(name, "absent")[:12])
             for name, want in recorded["sim_digest"].items()
             if got.get(name) != want}
    assert not moved and set(got) == set(recorded["sim_digest"]), (
        f"sim_digest moved (recorded, now): {moved} — the simulated "
        f"interleaving changed; see this file's docstring")

