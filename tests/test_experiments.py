"""Tests for the experiment harness: reporting, runner, per-artefact modules."""

import numpy as np
import pytest

from repro.analysis import reporting
from repro.experiments.runner import (
    ALL_METHOD_NAMES,
    MethodResult,
    load_suite,
    make_config,
    run_method,
    scale_params,
)


class TestReporting:
    def test_render_table_alignment(self):
        text = reporting.render_table(
            ["a", "bb"], [["x", 1.23456], ["yyyy", 2]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.2346" in text
        assert all(len(line) == len(lines[1]) for line in lines[1:3])

    def test_render_table_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            reporting.render_table(["a"], [["x", "y"]])

    def test_render_series(self):
        text = reporting.render_series(
            "mfr", [0.2, 0.4], {"m1": [0.5, 0.6], "m2": [0.4, 0.7]}
        )
        assert "m1" in text and "0.6000" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError, match="points"):
            reporting.render_series("x", [1, 2], {"m": [0.5]})

    def test_winner_summary(self):
        summary = reporting.winner_summary({"a": 0.3, "b": 0.9})
        assert summary.startswith("best=b")

    def test_winner_summary_lower_better(self):
        summary = reporting.winner_summary({"a": 0.3, "b": 0.9}, higher_is_better=False)
        assert summary.startswith("best=a")

    def test_format_cell(self):
        assert reporting.format_cell(1.23456, 2) == "1.23"
        assert reporting.format_cell(True) == "True"
        assert reporting.format_cell("x") == "x"


class TestRunnerInfrastructure:
    def test_scale_params_known(self):
        for scale in ("smoke", "mini", "full"):
            params = scale_params(scale)
            assert params["n_iterations"] >= 1

    def test_scale_params_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scale_params("giant")

    def test_load_suite_caps(self):
        suite = load_suite("yeast", "smoke")
        assert suite.table.n_rows == scale_params("smoke")["max_rows"]

    def test_make_config_ablations(self):
        config = make_config("smoke", use_its=False, use_pe=False)
        assert not config.use_its
        assert not config.ite.use_policy_exploitation

    def test_method_registry_complete(self):
        expected = {
            "pa-feat", "popart", "go-explore", "rr",
            "pa-feat-no-its", "pa-feat-no-ite", "pa-feat-no-both", "pa-feat-no-pe",
            "k-best", "rfe", "sadrlfs", "marlfs",
            "grro-ls", "ant-td", "mdfs", "all-features",
        }
        assert set(ALL_METHOD_NAMES) == expected


@pytest.fixture(scope="module")
def smoke_split():
    suite = load_suite("water-quality", "smoke")
    return suite.split_rows(0.7, np.random.default_rng(0))


class TestRunMethod:
    @pytest.mark.parametrize("method", ["k-best", "grro-ls", "all-features"])
    def test_cheap_methods(self, smoke_split, method):
        train, test = smoke_split
        result = run_method(method, train, test, scale="smoke")
        assert isinstance(result, MethodResult)
        assert 0.0 <= result.avg_f1 <= 1.0
        assert 0.0 <= result.avg_auc <= 1.0
        assert len(result.per_task) == train.n_unseen

    def test_feat_method_records_timing(self, smoke_split):
        train, test = smoke_split
        result = run_method("pa-feat", train, test, scale="smoke")
        assert result.prepare_seconds > 0
        assert result.iteration_seconds > 0
        assert result.select_seconds < result.prepare_seconds

    def test_single_task_cost_in_select(self, smoke_split):
        train, test = smoke_split
        result = run_method("sadrlfs", train, test, scale="smoke")
        assert result.prepare_seconds < result.select_seconds * train.n_unseen

    def test_ablation_variant_runs(self, smoke_split):
        train, test = smoke_split
        result = run_method("pa-feat-no-both", train, test, scale="smoke")
        assert result.subsets

    def test_unknown_method_raises(self, smoke_split):
        train, test = smoke_split
        with pytest.raises(ValueError, match="unknown simple method"):
            run_method("magic", train, test, scale="smoke")


class TestExperimentModules:
    def test_table1_rows_match_catalog(self):
        from repro.experiments import table1

        rows = table1.run(scale="mini", verify=False)
        assert len(rows) == 8
        text = table1.render(rows)
        assert "yeast" in text and "2417" in text

    def test_table1_verification(self):
        from repro.experiments import table1

        rows = table1.run(scale="mini", verify=True)
        assert rows

    def test_fig5_sweep_structure(self):
        from repro.experiments import fig5

        results = fig5.run(
            datasets=("water-quality",),
            scale="smoke",
            methods=("k-best", "grro-ls"),
            ratios=(0.4, 0.8),
        )
        assert len(results) == 1
        sweep = results[0]
        assert set(sweep.series) == {"k-best", "grro-ls"}
        assert all(len(v) == 2 for v in sweep.series.values())
        assert "Fig. 5" in fig5.render(results)

    def test_fig6_uses_auc(self):
        from repro.experiments import fig6

        results = fig6.run(
            datasets=("water-quality",),
            scale="smoke",
            methods=("k-best",),
            ratios=(0.6,),
        )
        assert results[0].metric == "auc"
        assert "Avg AUC" in fig6.render(results)

    def test_fig5_rejects_bad_metric(self):
        from repro.experiments.fig5 import run_sweep

        with pytest.raises(ValueError, match="metric"):
            run_sweep("water-quality", metric="rmse", scale="smoke")

    def test_fig9_refines_each_task_from_the_fitted_model(self, tiny_split):
        """A task's further-training records do not depend on which tasks
        were refined before it."""
        from repro.experiments import fig9
        from tests.conftest import fast_config

        train, _ = tiny_split
        config = fast_config()
        first, second = train.unseen_tasks
        together = fig9.refine_tasks(train, config, [first, second], 8, 4)
        alone = fig9.refine_tasks(train, config, [second], 8, 4)
        assert together[second.name] == alone[second.name]
        assert [record.iteration for record in alone[second.name]] == [4, 8]
