"""Engine equivalence: the calendar wheel IS the binary heap.

Every run executes on the wheel; the heap :class:`Simulator` is the
reference it is compared against (the ``on_heap`` fixture substitutes it
for one block of runs).  Every observable output (per-flow records, event
counts, reroutes, fault timelines) must be bit-identical.  This file
enforces that contract three ways:

1. the committed golden reference grid, recomputed on the heap (the
   wheel's grid is ``test_golden_grid.py``'s);
2. a per-cell record-level differential on the golden configs;
3. a chaos-seed differential: randomized configs (failures, faults,
   transports) run on both engines and compared record-by-record.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator, WheelSimulator, make_simulator
from repro.validate import golden
from repro.validate.fuzz import chaos_config

#: Differential chaos seeds: enough to cover every scheme/transport/
#: failure bucket the generator rotates through.
CHAOS_SEEDS = range(1, 11)


# --------------------------------------------------------------------- #
# Golden grid on the reference engine
# --------------------------------------------------------------------- #


def test_golden_grid_on_heap_matches_committed_reference(on_heap):
    """The reference engine must reproduce the committed statistics
    exactly."""
    expected = golden.load_reference(golden.DEFAULT_PATH)
    assert expected is not None, (
        f"missing golden reference at {golden.DEFAULT_PATH}"
    )
    with on_heap():
        actual = golden.compute_reference()
    mismatches = golden.compare_reference(expected, actual)
    assert not mismatches, (
        "heap engine drifted from the committed reference:\n"
        + "\n".join(mismatches)
    )


def test_golden_cells_bit_identical_across_engines(on_heap):
    """Stronger than the summary check: the full per-flow record lists
    must match, flow by flow, field by field."""
    for config in golden.golden_configs()[:4]:
        wheel = run_experiment(config)
        with on_heap():
            heap = run_experiment(config)
        assert type(wheel.fabric.sim) is WheelSimulator
        assert type(heap.fabric.sim) is Simulator
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
def test_chaos_seed_bit_identical_across_engines(seed, on_heap):
    """Randomized configs (scheme x transport x failure rotation) must
    produce identical results on heap and wheel."""
    config = chaos_config(seed)
    # The differential is about the engines, not the invariant layer;
    # drop validate so the comparison runs at full speed.
    config = dataclasses.replace(config, validate=False)
    wheel = run_experiment(config)
    with on_heap():
        heap = run_experiment(config)
    assert heap.stats.records == wheel.stats.records, (
        f"seed {seed} ({config.lb}/{config.transport}) diverged"
    )
    assert heap.events == wheel.events
    assert heap.total_reroutes == wheel.total_reroutes
    assert list(heap.fault_timeline or ()) == list(wheel.fault_timeline or ())


# --------------------------------------------------------------------- #
# One engine per run
# --------------------------------------------------------------------- #


def test_config_rejects_unknown_scheduler():
    """The engine is not a config field: a config dict (or a service
    request body) that still names one is refused like any unknown key."""
    data = golden.golden_configs()[0].to_dict()
    data["scheduler"] = "heap"
    with pytest.raises(ValueError, match=r"unknown config keys: \['scheduler'\]"):
        ExperimentConfig.from_dict(data)


def test_make_simulator_engine_selection():
    assert type(make_simulator()) is WheelSimulator
    assert type(make_simulator("heap")) is Simulator
    assert type(make_simulator("wheel")) is WheelSimulator
    with pytest.raises(ValueError, match="unknown engine 'abacus'"):
        make_simulator("abacus")


def test_config_default_scheduler_is_wheel():
    """Every run builds the wheel."""
    config = dataclasses.replace(golden.golden_configs()[0], n_flows=5)
    assert type(run_experiment(config).fabric.sim) is WheelSimulator
