"""Config-explorer tests: determinism, promotion, corpus roundtrip."""

import json
from dataclasses import asdict, replace

import pytest

from repro.chaos.spec import RunSpec
from repro.obs.fitness import SCORE_WEIGHTS, extract_fitness
from repro.tools.explorer import (CORPUS_SCHEMA, ConfigPoint, corpus_entry,
                                  explore, format_tables, grid_points,
                                  load_corpus, random_points,
                                  replay_corpus_entry, run_cell,
                                  write_corpus_entry)
from repro.workloads.scenarios import SCENARIOS

TINY = RunSpec(seed=0, duration=2.0, profile="crash", n_nodes=4)


@pytest.fixture(scope="module")
def tiny_search():
    specs = [SCENARIOS["zipf-hot"], SCENARIOS["flash-crowd"]]
    points = random_points(2, seed=0)
    return explore(specs, points, TINY)


class TestPoints:
    def test_random_points_deterministic_and_distinct(self):
        a = random_points(6, seed=3)
        b = random_points(6, seed=3)
        assert a == b
        assert len(set(a)) == 6
        assert a[0] == ConfigPoint(), "baseline config leads every search"
        assert random_points(6, seed=4) != a

    def test_grid_covers_space(self):
        grid = grid_points()
        assert len(grid) == 4 * 3 * 3 * 3 * 2
        assert len(set(grid)) == len(grid)
        assert grid_points(limit=5) == grid[:5]

    def test_point_roundtrip_and_config(self):
        for point in random_points(4, seed=1):
            assert ConfigPoint(**asdict(point)) == point
            spec = point.apply(replace(TINY, rebalance=True))
            config = spec.sedna_config()
            assert config.read_quorum == point.read_quorum
            assert config.write_quorum == point.write_quorum
            opts = spec.rebalance_opts
            assert opts["weights"]["writes"] == point.heat_write_weight
            assert point.apply(TINY).rebalance_opts is None
            assert replace(spec, config={}, rebalance_opts=None) == \
                replace(TINY, rebalance=True), "only those two fields move"


class TestSearch:
    def test_search_is_deterministic(self, tiny_search):
        again = explore([SCENARIOS["zipf-hot"], SCENARIOS["flash-crowd"]],
                        random_points(2, seed=0), TINY)
        assert json.dumps(tiny_search, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_payload_shape(self, tiny_search):
        assert set(tiny_search["scenarios"]) == {"zipf-hot", "flash-crowd"}
        for result in tiny_search["scenarios"].values():
            assert result["best"] == result["table"][0]
            scores = [row["fitness"]["score"] for row in result["table"]]
            assert scores == sorted(scores)
            bests = [t["best_so_far"] for t in result["trajectory"]]
            assert bests == [min(scores[:i + 1])
                             for i in range(len(scores))]

    def test_score_matches_weights(self, tiny_search):
        for result in tiny_search["scenarios"].values():
            for row in result["table"]:
                fit = row["fitness"]
                want = round(sum(w * fit[f]
                                 for f, w in sorted(SCORE_WEIGHTS.items())),
                             6)
                assert fit["score"] == want

    def test_tables_render(self, tiny_search):
        text = format_tables(tiny_search)
        assert "== zipf-hot" in text and "== flash-crowd" in text
        for row in tiny_search["scenarios"]["zipf-hot"]["table"]:
            assert row["label"] in text


class TestCorpusRoundtrip:
    def test_promotion_writes_replayable_entries(self, tmp_path):
        """With corpus_bound=0.5 every non-best cell regresses past the
        bound, so promotion must trigger and the entry must replay to
        the recorded digest."""
        out = explore([SCENARIOS["zipf-hot"]], random_points(2, seed=0),
                      TINY, corpus_dir=tmp_path, corpus_bound=0.5)
        promoted = out["scenarios"]["zipf-hot"]["promoted"]
        corpus = load_corpus(tmp_path)
        assert [p.name for p, _ in corpus] == sorted(promoted)
        assert corpus, "bound 0.5 must promote at least one cell"
        path, entry = corpus[0]
        assert entry["schema"] == CORPUS_SCHEMA
        report = replay_corpus_entry(entry)
        assert report.digest == entry["digest"]
        assert report.spec.to_dict() == entry["spec"]
        assert not report.obs_snapshot, \
            "the cell was scored observed; its replay is the plain run"

    def test_replay_rejects_unknown_schema(self):
        # /1 spelled the run as runner + scenario + config blocks; /2
        # carried an "obs" key in the spec.
        for schema in ("bogus/9", "repro.chaos.regression/1",
                       "repro.chaos.regression/2"):
            with pytest.raises(ValueError, match="unknown corpus schema"):
                replay_corpus_entry({"schema": schema})

    def test_write_entry_name_is_stable(self, tmp_path):
        point = ConfigPoint()
        report = run_cell(replace(TINY, scenario="zipf-hot"), point)
        entry = corpus_entry(report.spec, point.label(),
                             digest=report.digest,
                             fitness=extract_fitness(report), reason="test")
        p1 = write_corpus_entry(tmp_path, entry)
        p2 = write_corpus_entry(tmp_path, entry)
        assert p1 == p2, "same cell → same filename (idempotent)"
        assert p1.name.startswith("zipf-hot-")


class TestFitness:
    def test_fitness_requires_obs(self):
        from repro.chaos.runner import ChaosRunner
        report = ChaosRunner(seed=1, duration=2.0, profile="crash",
                             scenario="zipf-hot").run()
        with pytest.raises(ValueError):
            extract_fitness(report)

    def test_fitness_fields(self, tiny_search):
        fit = tiny_search["scenarios"]["zipf-hot"]["best"]["fitness"]
        assert fit["ops"] > 0
        assert fit["violations"] == 0
        assert 0.0 <= fit["failure_ratio"] <= 1.0
        assert fit["p99_read_s"] >= 0.0
