"""The opt-in observers stay cold while they are off.

``repro.telemetry`` (tracing, audit, profiler) and ``repro.validate``
(invariant checks) are switched on per run, and ``repro.hooks`` wires
them in; an untraced, unvalidated run — exact or streaming statistics —
must not call a single function in any of them.  A profiler hook counts
every Python call made during the run; the benchmark suite's
``observe.calls_when_off`` counter asserts the same on its workloads.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology

OBSERVERS = (
    *(
        os.sep + os.path.join("repro", package) + os.sep
        for package in ("telemetry", "validate")
    ),
    os.sep + os.path.join("repro", "hooks.py"),
)


def _observer_calls(config: ExperimentConfig) -> Counter:
    calls: Counter = Counter()

    def profile(frame, event, arg) -> None:
        if event == "call":
            path = frame.f_code.co_filename
            if any(package in path for package in OBSERVERS):
                calls[f"{path}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        run_experiment(config)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("streaming", [False, True])
def test_untraced_cell_never_enters_an_observer(streaming):
    config = ExperimentConfig(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
        lb="hermes",
        workload="web-search",
        load=0.5,
        n_flows=60,
        seed=1,
        size_scale=0.05,
        time_scale=0.05,
        streaming_stats=streaming,
    )
    assert not config.trace and not config.validate
    assert _observer_calls(config) == Counter()
