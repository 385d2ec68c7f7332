"""The detection-quality gates (``benchmarks/bench_detection_quality.py``)
can fail: each bar is fed a frontier that breaks it, and the committed
``BENCH_detection.json`` is the sweep's grid and passes every bar."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_detection_quality as bench  # noqa: E402  (not a package)


def _row(cell: dict, members=()) -> SimpleNamespace:
    """A stand-in summary carrying what the gates read."""
    metrics = {k: cell[k] for k in (
        "detection_ns", "detections", "false_positive_count",
        "flap_suppressions",
    )}
    metrics["detector"] = "stub"
    if members:
        metrics["members"] = list(members)
    return SimpleNamespace(
        detector_metrics=metrics,
        mean_fct_ms=cell["avg_fct_ms"],
        fault_timeline=({"detail": {"dropped": cell["fault_drops"]}},),
    )


def _committed() -> dict:
    with open(ROOT / "BENCH_detection.json") as fh:
        return json.load(fh)


def _grid(cells: dict) -> dict:
    grid: dict = {}
    for key, cell in cells.items():
        detector, shape = key.rsplit("@", 1)
        grid.setdefault(detector, {})[shape] = _row(cell)
    return grid


def test_committed_report_is_the_sweep_and_passes_its_gates():
    report = _committed()
    assert report["meta"]["detectors"] == list(bench.DETECTORS)
    assert sorted(report["cells"]) == sorted(
        f"{d}@{s}" for d in bench.DETECTORS for s in bench.FAULT_SHAPES
    )
    assert bench.check_gates(_grid(report["cells"])) == []


def test_a_fault_that_drops_nothing_fails():
    cells = _committed()["cells"]
    cells["transport@blackhole"]["fault_drops"] = 0
    assert bench.check_gates(_grid(cells)) == [
        "transport@blackhole: the fault dropped no packet"
    ]


def test_degrade_needs_no_drops():
    cells = _committed()["cells"]
    assert all(
        cells[f"{d}@degrade"]["fault_drops"] == 0 for d in bench.DETECTORS
    )
    assert bench.check_gates(_grid(cells)) == []


def test_a_member_firing_on_the_clean_grid_fails():
    cells = _committed()["cells"]
    grid = _grid(cells)
    noisy = {"detector": "bfd", "detections": 1, "false_positive_count": 1}
    quiet = {"detector": "transport", "detections": 0,
             "false_positive_count": 0}
    grid[bench.COMBINER]["clean"] = _row(
        cells[f"{bench.COMBINER}@clean"], members=(quiet, noisy)
    )
    (violation,) = bench.check_gates(grid)
    assert violation.startswith(f"{bench.COMBINER}: bfd fired on the clean")


def test_a_combiner_no_faster_than_a_member_on_flap_fails():
    cells = _committed()["cells"]
    cells[f"{bench.COMBINER}@flap"]["avg_fct_ms"] = (
        cells["bfd@flap"]["avg_fct_ms"]
    )
    (violation,) = bench.check_gates(_grid(cells))
    assert "is not below bfd's" in violation
