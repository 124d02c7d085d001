"""The paper suite's table and the checks it gates.

``benchmarks/test_paper.py`` runs every :data:`repro.bench.PAPER`
entry; these tier-1 tests keep that table complete and keep its
expectations able to fail.
"""

import importlib
import inspect
import pkgutil

import repro.bench
from repro.bench import PAPER
from repro.bench import scalability as scalability_module
from repro.bench.harness import FigureResult


def _figure_runners():
    """Every public ``repro.bench`` function annotated ``-> FigureResult``."""
    for info in pkgutil.iter_modules(repro.bench.__path__):
        module = importlib.import_module(f"repro.bench.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if (fn.__module__ == module.__name__ and not name.startswith("_")
                    and fn.__annotations__.get("return")
                    in ("FigureResult", FigureResult)):
                yield fn


def test_every_figure_runner_is_in_the_paper_table():
    runners = set(_figure_runners())
    ungated = sorted(fn.__qualname__ for fn in runners - set(PAPER.values()))
    assert not ungated, f"paper figures missing from PAPER: {ungated}"
    assert len(PAPER) == len(runners)   # one entry each, nothing else


def _scalability_with(monkeypatch, throughput: dict[int, float]):
    def fake_throughput_at_size(n_nodes, ops_per_client=400):
        return {"nodes": n_nodes, "throughput": throughput[n_nodes],
                "duration_s": 1.0, "failures": 0}

    monkeypatch.setattr(scalability_module, "throughput_at_size",
                        fake_throughput_at_size)
    result = scalability_module.scalability()
    return {name: ok for name, ok, _detail in result.expectations}, result


EFFICIENCY = "weak-scaling efficiency T(12) / (4 * T(3)) >= 0.5"


def test_scalability_fails_a_flat_curve(monkeypatch):
    # Grows at every size, but 1,200 / (4 * 1,000) = 0.3.
    checks, result = _scalability_with(
        monkeypatch, {3: 1_000.0, 6: 1_100.0, 12: 1_200.0})
    assert checks["throughput grows with cluster size"]
    assert not checks[EFFICIENCY]
    assert not result.all_expectations_met


def test_scalability_passes_half_linear_scaling(monkeypatch):
    checks, result = _scalability_with(
        monkeypatch, {3: 1_000.0, 6: 1_500.0, 12: 2_000.0})
    assert checks[EFFICIENCY]
    assert "E = 0.50; per doubling 1.50x, 1.33x" in result.render()
