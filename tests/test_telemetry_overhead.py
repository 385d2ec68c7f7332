"""Tracing must observe, never perturb.

A traced run of the reference cell must produce bit-identical per-flow
statistics to an untraced run — the hooks only read simulator state, so
any divergence means a hook mutated something.  Also pins the cache
semantics: traced cells never hit or populate the result cache.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_experiment
from repro.faults.spec import random_drop_start, schedule
from repro.net.topology import TopologyConfig


def reference_config(**overrides) -> ExperimentConfig:
    base = dict(
        topology=TopologyConfig(),
        lb="hermes",
        workload="web-search",
        load=0.5,
        n_flows=60,
        seed=3,
        size_scale=0.05,
        time_scale=0.05,
        faults=schedule(random_drop_start(0, spine=0, drop_rate=0.04)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def flow_tuples(result):
    return [
        (r.flow_id, r.src, r.dst, r.size_bytes, r.start_ns, r.fct_ns,
         r.retransmissions, r.timeouts)
        for r in result.stats.records
    ]


class TestTracingIsPureObservation:
    def test_traced_run_identical_to_untraced(self):
        plain = run_experiment(reference_config())
        traced = run_experiment(reference_config(trace=True))
        assert flow_tuples(plain) == flow_tuples(traced)
        assert plain.sim_time_ns == traced.sim_time_ns
        assert plain.events == traced.events
        assert plain.total_reroutes == traced.total_reroutes
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert traced.telemetry.tracer.recorded > 0
        assert traced.telemetry.audit.recorded > 0

    def test_traced_cells_bypass_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = reference_config(n_flows=20, trace=True)
        run_cells([config], jobs=1, use_cache=True, cache_dir=cache_dir)
        # Nothing was stored for the traced cell.
        import os

        stored = [
            name
            for name in (os.listdir(cache_dir) if os.path.isdir(cache_dir) else [])
            if name.endswith(".pkl")
        ]
        assert stored == []
        # The untraced twin is cached normally and differs in cache key.
        plain = dataclasses.replace(config, trace=False)
        run_cells([plain], jobs=1, use_cache=True, cache_dir=cache_dir)
        stored = [
            name for name in os.listdir(cache_dir) if name.endswith(".pkl")
        ]
        assert len(stored) == 1

    def test_repro_trace_env_forces_cache_off(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        config = reference_config(n_flows=20)
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_cells(
            [config], jobs=1, use_cache=True, cache_dir=cache_dir
        )[0]
        assert result.stats.records
        import os

        assert not os.path.isdir(cache_dir) or not any(
            name.endswith(".pkl") for name in os.listdir(cache_dir)
        )
