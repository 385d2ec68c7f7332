"""Tests for the summary / cell dict exporters."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import cell_dict, summary_dict
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.faults.spec import random_drop_start, schedule


def small_result(**overrides):
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
        lb="ecmp",
        workload="web-search",
        load=0.4,
        n_flows=12,
        seed=1,
        size_scale=0.05,
    )
    defaults.update(overrides)
    return run_experiment(ExperimentConfig(**defaults))


class TestSummary:
    def test_nan_becomes_null(self):
        result = small_result(size_scale=0.01)  # likely no "large" flows
        data = summary_dict(result)
        large = data["fct_ms"]["large_mean"]
        assert large is None or large > 0

    def test_failure_recorded(self):
        """The summary says what was injected and what watched for it."""
        result = small_result(
            faults=schedule(random_drop_start(0, spine=0, drop_rate=0.01)),
            detector="bfd",
        )
        config = summary_dict(result)["config"]
        (event,) = config["faults"]
        assert (event["action"], event["time_ns"], event["drop_rate"]) == (
            "random_drop_start", 0, 0.01)
        assert config["detector"] == "bfd"
        assert "failure" not in config

    def test_no_failure_is_null(self):
        config = summary_dict(small_result())["config"]
        assert config["faults"] is None
        assert config["detector"] is None


class TestCellDict:
    def test_finished_cell_is_its_summary(self):
        result = small_result()
        assert cell_dict(result) == summary_dict(result)

    def test_failed_cell_is_its_reason(self):
        from dataclasses import replace

        failed = replace(small_result(), error="cell timed out after 1.0s")
        assert cell_dict(failed) == {"error": "cell timed out after 1.0s"}
