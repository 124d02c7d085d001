"""RunSpec: the one value that says what a chaos run is."""

import inspect
import json
from dataclasses import fields

import pytest

from repro.chaos import ChaosRunner
from repro.chaos.spec import RunSpec
from repro.core.config import SednaConfig
from repro.workloads.scenarios import SCENARIOS

SPECS = {
    "plain": RunSpec(seed=3),
    "scenario": RunSpec(seed=1, profile="crash", duration=3.0, n_nodes=4,
                        scenario=SCENARIOS["drift-diurnal"]),
    "causal": RunSpec(seed=2, profile="partition", causal="dvv"),
    "rebalance": RunSpec(seed=0, profile="migration", rebalance=True,
                         rebalance_opts={"pass_byte_budget": 32 * 1024,
                                         "weights": {"writes": 4.0}},
                         config={"read_quorum": 3, "lease_base": 0.5}),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_json_roundtrip(name):
    spec = SPECS[name]
    assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_preset_name_resolves_to_the_object():
    assert RunSpec(seed=1, scenario="zipf-hot") == \
        RunSpec(seed=1, scenario=SCENARIOS["zipf-hot"])


def test_bad_values_raise_at_construction():
    with pytest.raises(ValueError):
        RunSpec(seed=1, causal="x")
    with pytest.raises(ValueError):
        RunSpec(seed=1, scenario="zipf-imaginary")


def test_sedna_config_base_and_overrides():
    assert SPECS["plain"].sedna_config() == SednaConfig(num_vnodes=16)
    assert SPECS["causal"].sedna_config() == SednaConfig(
        num_vnodes=16, dvv_sibling_cap=1024)
    assert SPECS["rebalance"].sedna_config() == SednaConfig(
        num_vnodes=16, read_quorum=3, lease_base=0.5)


def test_runner_takes_a_spec_or_its_fields_not_both():
    spec = RunSpec(seed=3, duration=2.0)
    assert ChaosRunner(spec).spec == ChaosRunner(seed=3, duration=2.0).spec
    with pytest.raises(TypeError):
        ChaosRunner(spec, seed=1)


@pytest.mark.parametrize("observer", ["hazards", "obs", "slo", "record",
                                      "record_always", "timeseries"])
def test_observers_are_not_part_of_the_spec(observer):
    spec = RunSpec(seed=3)
    runner = ChaosRunner(spec, **{observer: True})
    assert runner.spec is spec
    assert (runner.obs_bundle is None) == (observer == "hazards")
    with pytest.raises(TypeError):
        RunSpec.from_dict({**spec.to_dict(), observer: True})


def test_surface_stays_small():
    """The nine knobs no caller ever set are constants, not inputs."""
    gone = {"zk_size", "n_clients", "num_vnodes", "n_lw_keys", "n_va_keys",
            "n_del_keys", "n_cw_keys", "max_down", "zk_config"}
    params = set(inspect.signature(ChaosRunner.__init__).parameters)
    names = {f.name for f in fields(RunSpec)}
    assert not gone & (params | names)
    assert len(params - {"self", "fields"}) <= 7
    assert len(names) <= 10
