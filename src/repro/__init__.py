"""repro — reproduction of "Resilient Datacenter Load Balancing in the
Wild" (Hermes, SIGCOMM 2017).

A packet-level discrete-event datacenter simulator plus the Hermes load
balancer and every baseline the paper compares against.  The stable
public surface lives in :mod:`repro.api` (re-exported here).  Quick
start::

    from repro.api import ExperimentConfig, run_experiment, bench_topology

    result = run_experiment(
        ExperimentConfig(
            topology=bench_topology(),
            lb="hermes",
            workload="web-search",
            load=0.5,
            n_flows=200,
            size_scale=0.1,
        )
    )
    print(result.mean_fct_ms, "ms")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.api import (
    ResultSummary,
    load_result,
    run_grid,
    save_result,
)
from repro.core import HermesParams, HermesLB, probe_overhead_model
from repro.hooks import HookSet
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    format_table,
    testbed_topology,
    simulation_topology,
    bench_topology,
    asymmetric_overrides,
)
from repro.lb import LB_REGISTRY, install_lb
from repro.metrics import FctStats, FlowRecord
from repro.net import Fabric, TopologyConfig
from repro.sim import Simulator, RngStreams
from repro.workload import WEB_SEARCH, DATA_MINING, FlowGenerator
from repro.workload.patterns import incast, permutation, staggered_elephants
from repro.core.tuning import tune_hermes, TuningOutcome
from repro.experiments.export import write_flow_csv, write_summary_json, summary_dict

__version__ = "1.0.0"

__all__ = [
    "HermesParams",
    "HermesLB",
    "probe_overhead_model",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_grid",
    "ResultSummary",
    "save_result",
    "load_result",
    "HookSet",
    "format_table",
    "testbed_topology",
    "simulation_topology",
    "bench_topology",
    "asymmetric_overrides",
    "LB_REGISTRY",
    "install_lb",
    "FctStats",
    "FlowRecord",
    "Fabric",
    "TopologyConfig",
    "Simulator",
    "RngStreams",
    "WEB_SEARCH",
    "DATA_MINING",
    "FlowGenerator",
    "incast",
    "permutation",
    "staggered_elephants",
    "tune_hermes",
    "TuningOutcome",
    "write_flow_csv",
    "write_summary_json",
    "summary_dict",
    "__version__",
]
