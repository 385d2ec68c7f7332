"""Golden regression pinning for the reference experiment grid.

The simulator is deterministic: the same config produces bit-identical
flow records on every run.  That makes regression pinning cheap and
brutal — this module runs the reference grid (the ``bench_perf_core``
shape: every factory scheme x 2 loads) and compares its summary
statistics (avg/p99 FCT per scheme, unfinished counts, reroutes, event
counts) against a committed JSON file, so a perf refactor that changes
*any* result — event ordering, byte accounting, timer behaviour — fails
loudly instead of silently shifting every figure.

Refresh after an *intentional* behaviour change with one command::

    PYTHONPATH=src python -m repro golden --refresh

Comparisons use a tiny relative tolerance (1e-9) purely to absorb libm
differences across platforms; any genuine behaviour change is many
orders of magnitude larger.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.lb.factory import SPRAYING_SCHEMES, scheme_names

#: Every registered scheme gets a golden row — derived from the factory
#: so a scheme cannot land without pinning its reference behaviour
#: (tests/test_golden_grid.py asserts the counts stay in lockstep).
GOLDEN_SCHEMES = scheme_names()
GOLDEN_LOADS = (0.5, 0.7)
GOLDEN_FLOWS = 40
GOLDEN_SIZE_SCALE = 0.05
GOLDEN_SEED = 1

#: Relative tolerance for float comparison: absorbs cross-platform libm
#: jitter, catches every real change.
REL_TOL = 1e-9

#: Default location of the committed reference (repo-relative).
DEFAULT_PATH = os.path.join("tests", "golden", "reference_grid.json")


def golden_configs() -> List[ExperimentConfig]:
    """The full reference grid (scheme-major, then load): every factory
    scheme x every load.  Sprayers get the same reordering mask the CLI
    gives them so dup-ACK retransmits reflect loss, not spraying."""
    topology = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)
    return [
        ExperimentConfig(
            topology=topology,
            lb=lb,
            workload="web-search",
            load=load,
            n_flows=GOLDEN_FLOWS,
            seed=GOLDEN_SEED,
            size_scale=GOLDEN_SIZE_SCALE,
            time_scale=GOLDEN_SIZE_SCALE,
            reorder_mask_us=100.0 if lb in SPRAYING_SCHEMES else None,
        )
        for lb in GOLDEN_SCHEMES
        for load in GOLDEN_LOADS
    ]


def compute_reference(detector: Optional[str] = None) -> Dict:
    """Run the grid in-process and summarize every cell.

    ``detector`` attaches a :mod:`repro.detect` spec to every cell: the
    *passive* detector (transport) must also reproduce the committed
    reference bit-for-bit — the clean grid gives it no evidence to act
    on, so any deviation means the detector perturbed a run it was only
    supposed to watch.
    """
    cells: Dict[str, Dict] = {}
    for config in golden_configs():
        if detector is not None:
            config = replace(config, detector=detector)
        result = run_experiment(config)
        stats = result.stats
        cells[f"{config.lb}@{config.load}"] = {
            "avg_fct_ms": stats.mean_ms(),
            "p99_fct_ms": stats.p99_ms(),
            "small_avg_ms": stats.small.mean_ms(),
            "small_p99_ms": stats.small.p99_ms(),
            "large_avg_ms": stats.large.mean_ms(),
            "unfinished": stats.unfinished_count,
            "total_reroutes": result.total_reroutes,
            "events": result.events,
        }
    return {
        "meta": {
            "schemes": list(GOLDEN_SCHEMES),
            "loads": list(GOLDEN_LOADS),
            "n_flows": GOLDEN_FLOWS,
            "size_scale": GOLDEN_SIZE_SCALE,
            "seed": GOLDEN_SEED,
            "refresh": "PYTHONPATH=src python -m repro golden --refresh",
        },
        "cells": cells,
    }


def load_reference(path: str) -> Optional[Dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError:
        return None


def write_reference(reference: Dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare_reference(expected: Dict, actual: Dict) -> List[str]:
    """All mismatches between a committed and a freshly computed
    reference, as human-readable lines (empty list = match)."""
    mismatches: List[str] = []
    expected_cells = expected.get("cells", {})
    actual_cells = actual.get("cells", {})
    for cell in sorted(set(expected_cells) | set(actual_cells)):
        if cell not in expected_cells:
            mismatches.append(f"{cell}: missing from committed reference")
            continue
        if cell not in actual_cells:
            mismatches.append(f"{cell}: missing from computed grid")
            continue
        want, got = expected_cells[cell], actual_cells[cell]
        for key in sorted(set(want) | set(got)):
            a, b = want.get(key), got.get(key)
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or abs(a - b) > REL_TOL * max(
                    abs(a), abs(b), 1.0
                ):
                    mismatches.append(f"{cell}.{key}: expected {a}, got {b}")
            elif a != b:
                mismatches.append(f"{cell}.{key}: expected {a}, got {b}")
    return mismatches
