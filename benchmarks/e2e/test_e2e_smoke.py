"""Smoke test of the repo benchmark (``pytest benchmarks/e2e -q``).

Outside tier-1 ``testpaths`` on purpose: it spawns fifteen-odd
interpreters.  It checks the contract, not the numbers — BENCHMARK.json
is well-formed and names exactly what the workers emit, the layer table
covers the source tree, a 5 % scale run of the whole set passes its own
output checks inside 20 s, the layer shares partition the profile, and
the simulated side of two runs of one seed is identical.
"""

import json
import re
import time

import pytest

import layers
import run as bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = 0.05
SEED = 3


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec()


@pytest.fixture(scope="module")
def small_run(spec):
    names = [w["name"] for w in spec["workloads"]]
    t0 = time.perf_counter()
    results = bench.run_set(spec, names, SEED, SCALE, 0.0, None, quiet=True)
    return results, time.perf_counter() - t0


def test_layer_table_covers_every_source_file():
    assert layers.check_coverage() == []


def test_benchmark_json_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert len(spec["workloads"]) == 5
    assert len(spec["end_to_end"]) == 7
    assert 1 <= len(spec["per_layer"]) <= 128
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    everything = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [x["name"] for x in everything]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_small_run_passes_its_checks_in_time(small_run):
    results, seconds = small_run
    for name, result in results.items():
        # run_set already compared the emitted names with BENCHMARK.json.
        assert result["problems"] == [], name
        assert all(v == v and v not in (float("inf"), float("-inf"))
                   for v in result["metrics"].values()), name
    assert seconds < 20.0


def test_layer_shares_partition_the_profile(small_run):
    results, _seconds = small_run
    for name, result in results.items():
        shares = {k: v for k, v in result["per_layer"].items()
                  if k.endswith(".self_share")
                  and k[:-len(".self_share")] in layers.LAYERS}
        assert len(shares) == len(layers.LAYERS)
        assert abs(sum(shares.values()) - 1.0) <= 0.01, name
        # Built-in and library time is pushed to its callers; if much
        # stays with the driver, the rollup is hiding work.
        assert shares["driver.self_share"] < 0.05, name
        chaos = shares["chaos.self_share"]
        assert (chaos > 0) == (name == "chaos_mixed"), name


def test_simulated_side_repeats_exactly(spec, small_run):
    results, _seconds = small_run
    again = bench.run_set(spec, list(results), SEED, SCALE, 0.0, 1,
                          quiet=True)
    # Wall metrics of a 5 % run are noise; only exactness is asserted.
    rows = bench.compare(spec, results, again)
    assert [r for r in rows if r[-1] == "NOT IDENTICAL"] == []
