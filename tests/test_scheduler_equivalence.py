"""Scheduler equivalence: the calendar wheel IS the binary heap.

The wheel engine is a pure performance substitution — every observable
output (per-flow records, event counts, reroutes, fault timelines) must
be bit-identical to the heap's on the same config.  This file enforces
that contract three ways:

1. the committed golden reference grid, recomputed under each engine;
2. a per-cell record-level differential on the golden configs;
3. a chaos-seed differential: randomized configs (failures, faults,
   transports) run under both engines and compared record-by-record.

Plus the knob plumbing: ``ExperimentConfig.scheduler`` validation, the
``REPRO_SCHEDULER`` environment override, and the cache bypass when an
override forces a non-default engine.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.engine import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    Simulator,
    WheelSimulator,
    make_simulator,
    resolve_scheduler,
    scheduler_forced,
)
from repro.validate import golden
from repro.validate.fuzz import chaos_config

#: Differential chaos seeds: enough to cover every scheme/transport/
#: failure bucket the generator rotates through.
CHAOS_SEEDS = range(1, 11)


# --------------------------------------------------------------------- #
# Golden grid under both engines
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_golden_grid_matches_committed_reference(scheduler):
    """Both engines must reproduce the committed (heap-computed)
    reference statistics exactly."""
    expected = golden.load_reference(golden.DEFAULT_PATH)
    assert expected is not None, (
        f"missing golden reference at {golden.DEFAULT_PATH}"
    )
    actual = golden.compute_reference(scheduler=scheduler)
    mismatches = golden.compare_reference(expected, actual)
    assert not mismatches, (
        f"{scheduler} engine drifted from the committed reference:\n"
        + "\n".join(mismatches)
    )


def test_golden_cells_bit_identical_across_engines():
    """Stronger than the summary check: the full per-flow record lists
    must match, flow by flow, field by field."""
    for config in golden.golden_configs()[:4]:
        heap = run_experiment(dataclasses.replace(config, scheduler="heap"))
        wheel = run_experiment(dataclasses.replace(config, scheduler="wheel"))
        assert heap.stats.records == wheel.stats.records, (
            f"records diverged on {config.lb}@{config.load}"
        )
        assert heap.events == wheel.events
        assert heap.sim_time_ns == wheel.sim_time_ns
        assert heap.total_reroutes == wheel.total_reroutes


# --------------------------------------------------------------------- #
# Chaos-seed differential
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_seed_bit_identical_across_engines(seed):
    """Randomized configs (scheme x transport x failure rotation) must
    produce identical results under heap and wheel."""
    config = chaos_config(seed)
    # The differential is about the engines, not the invariant layer;
    # drop validate so the comparison runs at full speed.
    config = dataclasses.replace(config, validate=False)
    heap = run_experiment(dataclasses.replace(config, scheduler="heap"))
    wheel = run_experiment(dataclasses.replace(config, scheduler="wheel"))
    assert heap.stats.records == wheel.stats.records, (
        f"seed {seed} ({config.lb}/{config.transport}) diverged"
    )
    assert heap.events == wheel.events
    assert heap.total_reroutes == wheel.total_reroutes
    assert list(heap.fault_timeline or ()) == list(wheel.fault_timeline or ())


# --------------------------------------------------------------------- #
# Knob plumbing
# --------------------------------------------------------------------- #


def test_config_rejects_unknown_scheduler():
    topology = golden.golden_configs()[0].topology
    with pytest.raises(ValueError, match="unknown scheduler"):
        ExperimentConfig(topology=topology, lb="ecmp", scheduler="quantum")


def test_make_simulator_engine_selection():
    assert type(make_simulator("heap")) is Simulator
    assert type(make_simulator("wheel")) is WheelSimulator


def test_env_override_wins(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "wheel")
    assert resolve_scheduler("heap") == "wheel"
    assert scheduler_forced()
    assert type(make_simulator("heap")) is WheelSimulator


def test_env_override_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "abacus")
    with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
        resolve_scheduler("heap")


def test_no_override_defaults_to_config(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert DEFAULT_SCHEDULER == "wheel"
    assert resolve_scheduler(None) == DEFAULT_SCHEDULER
    assert resolve_scheduler("heap") == "heap"
    assert resolve_scheduler("wheel") == "wheel"
    assert not scheduler_forced()


def test_config_default_scheduler_is_wheel():
    topology = golden.golden_configs()[0].topology
    config = ExperimentConfig(topology=topology, lb="ecmp")
    assert config.scheduler == "wheel"
