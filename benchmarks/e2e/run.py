"""The repo benchmark: five whole-cluster workloads, one command.

    python3 benchmarks/e2e/run.py                      # whole set, both clocks
    python3 benchmarks/e2e/run.py --workload zk_join   # one workload
    python3 benchmarks/e2e/run.py --check              # repeatability gate
    python3 benchmarks/e2e/run.py --record             # + results/ envelope

Each workload runs in its own single-threaded subprocess (worker.py);
set-up is done five times, in five processes, and ``setup_s`` is
their median.  ``--trace 0`` measures only the end-to-end metrics,
``--trace 1`` only the per-layer ones (counters, then a ``cProfile``
rollup by package); without ``--trace`` one process does both, the
profiled repetition after the unprofiled ones.  With ``--workload``
the last line of stdout is one JSON object for the PR driver:
``{"correct", "attempted", "failed", "metrics"}``.

Metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repository root; README.md beside this file says what each
workload and metric is for and which clock it reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import FIXED_REPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
SCHEMA = "sedna-bench-e2e/1"
SETUPS = 5
#: The PR driver allows one invocation 180 s; leave it some slack.
DEADLINE_S = 170.0
#: End-to-end metrics that read the simulated clock (or count): exact
#: per seed.  The others read the host's clock or memory.
SIM_CLOCK = ("sim_ops_per_s", "sim_lat_p50_ms", "sim_lat_tail_ms",
             "ok_op_ratio")


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, scale: float, deadline: float,
          *extra: str) -> dict:
    """Run worker.py to completion; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--spawned-at", repr(time.monotonic()), *extra]
    # run() kills the child and waits for it when the timeout expires.
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, scale: float, seconds: float,
            trace: int | None) -> dict:
    """One workload's result; ``trace`` None means both metric sets."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if trace != 1:      # setup_s is an end-to-end metric
        setups = [spawn(workload, seed, scale, deadline,
                        "--setup-only")["setup_s"]
                  for _ in range(SETUPS - 1)]
    result = spawn(workload, seed, scale, deadline,
                   "--seconds", repr(seconds),
                   "--trace", "0" if trace == 0 else "1")
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    if trace == 0:
        del result["per_layer"]
    return result


def check_names(spec: dict, result: dict) -> list:
    """The worker and BENCHMARK.json must name the same metrics."""
    problems = []
    for section, got in (("end_to_end", result["metrics"]),
                         ("per_layer", result.get("per_layer"))):
        if got is None:
            continue
        want = {m["name"] for m in spec[section]}
        if want != set(got):
            problems.append(f"{section} names differ from BENCHMARK.json: "
                            f"{sorted(want ^ set(got))}")
    return problems


def units(spec: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def driver_line(spec: dict, result: dict, trace: int | None) -> str:
    """The PR driver's result object.  ``failed`` counts operations the
    output check rejects; a chaos operation that times out under an
    injected fault is expected behaviour and shows in ``ok_op_ratio``."""
    unit = units(spec)
    values = {}
    if trace != 1:
        values.update(result["metrics"])
    if trace != 0:
        values.update(result["per_layer"])
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["rejected"],
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in values.items()},
    })


def print_result(spec: dict, result: dict) -> None:
    unit = units(spec)
    print(f"== {result['workload']}  seed={result['seed']} "
          f"scale={result['scale']:g}  {result['repetitions']} repetitions, "
          f"{result['timed_ops']} ops in the first {FIXED_REPS} ==")
    for name, value in result["metrics"].items():
        note = ""
        if name == "sim_lat_tail_ms":
            how = ("pooled" if result["tail_pooled"]
                   else "median over repetitions")
            note = (f"  (p{result['tail_percentile']}, {how}, "
                    f"{result['lat_samples']} samples)")
        elif name == "wall_ops_per_s":
            q1, _q2, q3 = result["rate_quartiles"]
            note = f"  (quartiles {q1:.6g} .. {q3:.6g})"
        print(f"  {name:<44}{value:>16.6g} {unit[name]}{note}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<44}{value:>16.6g} {unit[name]}")
    print(f"  sim_digest  {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def run_set(spec: dict, names: list, seed: int, scale: float,
            seconds: float, trace: int | None, quiet: bool = False) -> dict:
    results = {}
    for name in names:
        result = measure(name, seed, scale, seconds, trace)
        result["problems"] += check_names(spec, result)
        results[name] = result
        if not quiet:
            print_result(spec, result)
            sys.stdout.flush()
    return results


# -- --check: same seed twice, then another seed ---------------------------

def compare(spec: dict, first: dict, second: dict) -> list:
    """Rows ``(workload, metric, a, b, ratio, verdict)``; a verdict other
    than ``ok`` fails the check.  Simulated metrics, exact counters and
    the digest must be identical; wall metrics agree within the bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name, a in first.items():
        b = second[name]
        for metric, va in a["metrics"].items():
            vb = b["metrics"][metric]
            if metric in SIM_CLOCK:
                verdict = "ok" if va == vb else "NOT IDENTICAL"
            else:
                m = bounds[metric]
                worse = (va / vb if m["better"] == "higher" else vb / va) - 1
                verdict = "ok" if worse <= m["bound"] else "OUT OF BOUND"
            rows.append((name, metric, va, vb, vb / va, verdict))
        for metric in a["exact_per_layer"]:
            va, vb = a["per_layer"][metric], b["per_layer"][metric]
            if va != vb:
                rows.append((name, metric, va, vb,
                             vb / va if va else float("nan"),
                             "NOT IDENTICAL"))
        same = a["sim_digest"] == b["sim_digest"]
        rows.append((name, "sim_digest", a["sim_digest"][:12],
                     b["sim_digest"][:12], 1.0 if same else float("nan"),
                     "ok" if same else "NOT IDENTICAL"))
    return rows


def check(spec: dict, names: list, seed: int, scale: float) -> int:
    first = run_set(spec, names, seed, scale, 0.0, None, quiet=True)
    second = run_set(spec, names, seed, scale, 0.0, None, quiet=True)
    other = run_set(spec, names, seed + 1, scale, 0.0, None, quiet=True)
    rows = compare(spec, first, second)
    print(f"{'workload':<12} {'metric':<18} {'run 1':>14} {'run 2':>14} "
          f"{'run2/run1':>10}  verdict")
    for name, metric, va, vb, ratio, verdict in rows:
        fmt = "{:>14}" if isinstance(va, str) else "{:>14.6g}"
        print(f"{name:<12} {metric:<18} {fmt.format(va)} {fmt.format(vb)} "
              f"{ratio:>10.4f}  {verdict}")
    failures = [r for r in rows if r[-1] != "ok"]
    for results, label in ((first, "run 1"), (second, "run 2"),
                           (other, f"seed {seed + 1}")):
        for name, result in results.items():
            for problem in result["problems"]:
                failures.append((name, label, problem))
                print(f"FAILED CHECK {name} ({label}): {problem}")
    print("check:", "FAILED" if failures else "passed")
    return 1 if failures else 0


# -- --record: envelope + trajectory -----------------------------------------

def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(spec: dict, results: dict, seed: int, scale: float) -> None:
    unit = units(spec)
    envelope = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "unix_time": round(time.time()),
        "seed": seed,
        "scale": scale,
        "workloads": {
            name: {
                "end_to_end": {k: {"value": v, "unit": unit[k]}
                               for k, v in r["metrics"].items()},
                "per_layer": {k: {"value": v, "unit": unit[k]}
                              for k, v in r.get("per_layer", {}).items()},
                "tail_percentile": r["tail_percentile"],
                "tail_pooled": r["tail_pooled"],
                "lat_samples": r["lat_samples"],
                "rate_quartiles": r["rate_quartiles"],
                "repetitions": r["repetitions"],
                "timed_ops": r["timed_ops"],
                "sim_digest": r["sim_digest"],
                "correct": not r["problems"],
            } for name, r in results.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "BENCH_e2e.json", "w") as fh:
        json.dump(envelope, fh, indent=1, sort_keys=True)
        fh.write("\n")
    row = {k: envelope[k] for k in ("schema", "python", "nproc", "git_rev",
                                    "unix_time", "seed", "scale")}
    row["workloads"] = {
        name: dict({k: v["value"] for k, v in w["end_to_end"].items()},
                   sim_digest=w["sim_digest"][:16], correct=w["correct"])
        for name, w in envelope["workloads"].items()}
    with open(RESULTS / "trajectory.jsonl", "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's size")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating beyond the 5 fixed repetitions "
                             "until this much time was measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "absent: both")
    parser.add_argument("--check", action="store_true",
                        help="run the set twice on one seed and once on "
                             "seed+1; fail unless they agree")
    parser.add_argument("--record", action="store_true",
                        help="write results/BENCH_e2e.json and append to "
                             "results/trajectory.jsonl")
    args = parser.parse_args(argv)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    if not (ROOT / "src" / "repro").is_dir():
        print("src/repro not found: nothing to benchmark", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known

    if args.check:
        return check(spec, names, args.seed, args.scale)
    results = run_set(spec, names, args.seed, args.scale, args.seconds,
                      args.trace)
    if args.record:
        record(spec, results, args.seed, args.scale)
    if args.workload:
        print(driver_line(spec, results[args.workload], args.trace))
    return 1 if any(r["problems"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
