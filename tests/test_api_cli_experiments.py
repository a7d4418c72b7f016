"""Tests for the top-level API, the CLI, and experiment smoke runs."""

import json
import os

import pytest

from repro.api import Session
from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, geometric_mean
from repro.metrics.jaccard import jaccard_pairwise


class TestApi:
    def test_compare_sets_in_memory(self, tile_pair):
        a, b = tile_pair
        with Session() as session:
            result = session.compare_sets(a, b)
        pw = jaccard_pairwise(a, b)
        assert result.jaccard_mean == pytest.approx(pw.mean_ratio)
        assert result.intersecting_pairs == pw.intersecting_pairs
        assert "J'" in str(result)

    def test_compare_files(self, small_dataset):
        dir_a, dir_b = small_dataset
        with Session() as session:
            result = session.compare_files(dir_a, dir_b)
        assert 0.3 < result.jaccard_mean < 1.0
        assert result.tiles == 4

    def test_lazy_api_import(self):
        import repro

        assert callable(repro.Session)
        with pytest.raises(AttributeError):
            _ = repro.not_a_symbol


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig7", "--full"])
        assert args.experiment == "fig7" and args.full

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table1" in out

    def test_compare_command(self, small_dataset, capsys):
        dir_a, dir_b = small_dataset
        assert main(["compare", str(dir_a), str(dir_b)]) == 0
        assert "J' =" in capsys.readouterr().out

    def test_backends_json(self, capsys):
        assert main(["backends", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in listing] == [
            "batch", "cluster", "multiprocess"
        ]
        for entry in listing:
            assert entry["available"] is True
            assert "description" in entry
            assert set(entry["capabilities"]) == {
                "persistent_pooling", "stateful_lifecycle",
                "configurable_workers", "max_workers", "remote", "notes",
            }

    def test_explain_command(self, tmp_path, capsys):
        spec = {
            "kind": "pairs",
            "pairs": [[
                "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
                "POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))",
            ]],
            "options": {"backend": "multiprocess"},
        }
        path = tmp_path / "request.json"
        path.write_text(json.dumps(spec))
        assert main(["explain", str(path)]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["backend"] == "multiprocess"
        assert plan["workload"]["n_pairs"] == 1
        assert plan["sizing"]["shard_pairs"] == 1

    def test_explain_command_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "request.json"
        path.write_text(json.dumps({"kind": "pairs"}))
        assert main(["explain", str(path)]) == 1
        assert "does not resolve" in capsys.readouterr().err
        assert main(["explain", str(tmp_path / "missing.json")]) == 1

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            main(["run", "fig99"])


class TestExperimentHarness:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 0.0]) == 0.0

    def test_result_render(self):
        result = ExperimentResult(
            name="demo",
            headers=["a", "b"],
            rows=[["x", 1.5]],
            paper_expectation="n/a",
            notes=["hello"],
        )
        text = result.render()
        assert "demo" in text and "1.500" in text and "hello" in text

    def test_registry_lists_all_figures(self):
        from repro.experiments.registry import experiment_names

        assert experiment_names() == [
            "fig2", "fig7", "fig8", "fig9", "fig10", "table1", "fig11",
            "fig12",
        ]

    def test_registry_rejects_unknown(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(ExperimentError):
            run_experiment("fig0")


@pytest.mark.slow
class TestExperimentSmoke:
    """Every experiment runs end-to-end at quick scale."""

    @pytest.fixture(autouse=True, scope="class")
    def _data_dir(self, tmp_path_factory):
        # One workload cache for the class: experiments share datasets
        # (table1 and fig11 the same one) whose generation costs more
        # than the experiments themselves.
        root = tmp_path_factory.mktemp("exp-data")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_DATA_DIR", str(root))
            yield

    @pytest.mark.parametrize(
        "name", ["fig2", "fig7", "fig8", "fig9", "fig10", "table1", "fig11"]
    )
    def test_experiment_runs(self, name):
        from repro.experiments.registry import run_experiment

        result = run_experiment(name, quick=True)
        assert result.rows
        assert result.render()

    def test_fig12_runs(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("fig12", quick=True)
        assert result.rows[-1][0] == "geometric mean"
        # Every dataset's similarity must agree between the two systems.
        for row in result.rows[:-1]:
            assert row[-1] == "yes"
