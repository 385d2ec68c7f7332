"""Experiment harness: configs, the runner, scenario presets, reporting.

Every table and figure of the paper maps to a scenario preset here and a
bench under ``benchmarks/`` (see DESIGN.md §3 for the full index).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    ResultCache,
    resolve_jobs,
    run_cell,
    run_cells,
)
from repro.experiments.result import ExperimentResult, ResultSummary
from repro.experiments.runner import run_experiment
from repro.experiments.report import format_table, gbps
from repro.experiments.scenarios import (
    testbed_topology,
    simulation_topology,
    asymmetric_overrides,
    bench_topology,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ResultCache",
    "ResultSummary",
    "resolve_jobs",
    "run_cell",
    "run_cells",
    "run_experiment",
    "format_table",
    "gbps",
    "testbed_topology",
    "simulation_topology",
    "asymmetric_overrides",
    "bench_topology",
]
