"""Detection-quality frontier: detector x fault shape on the Fig. 16 grid.

The pluggable detection plane (:mod:`repro.detect`) trades detection
latency against false positives: transport-evidence detection is free
but waits out an RTO; BFD heartbeats detect in ``mult x tx`` but burn
bandwidth and can condemn a path that was merely slow; circuit breakers
sit in between, tripping on observed traffic only.  This bench maps
that frontier empirically.

Every cell runs the Fig. 16 recovery shape (4x4 fabric, web-search at
50% load, one leaf-spine link faulted mid-run) under ECMP — a scheme
with *no* detector of its own, so every detection, false positive and
suppression in the summary belongs to the detection plane alone — and
sweeps detector x fault shape:

* ``clean``      — no fault; any detection at all is a false positive;
* ``link_down``  — admin-down at 20 ms, healed at 55 ms (Fig. 16);
* ``flap``       — 2 ms period down/up cycling, the flap-suppression
  stress case;
* ``blackhole``  — silent partial drop (no link-down signal at all);
* ``degrade``    — link squeezed to 0.1 Gbps: alive but useless, the
  gray-failure case that splits liveness from usefulness.

Gates (the ISSUE's acceptance bars):

* BFD ``detection_ns`` on ``link_down`` must be >= 10x lower than
  transport detection on the same shape;
* every detector must report zero detections and zero false positives
  on the ``clean`` shape.

Run directly (CI uses ``--smoke``, which keeps only clean+link_down)::

    PYTHONPATH=src python benchmarks/bench_detection_quality.py \
        [--smoke] [--jobs N] [--out BENCH_detection.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from figures import emit
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultSummary, run_cells
from repro.experiments.report import format_table
from repro.experiments.scenarios import bench_topology
from repro.faults.spec import (
    blackhole_off,
    blackhole_on,
    flap,
    link_degrade,
    link_down,
    link_restore,
    link_up,
    schedule,
)

MS = 1_000_000
LOAD = 0.5
N_FLOWS = 100
SEED = 2

#: The detection planes under test.  Defaults throughout: BFD at
#: tx=100us mult=3 (300 us detection), breaker at 50% failure rate /
#: 50 ms open; the combiners compose the first two.
DETECTORS = (
    "transport",
    "bfd",
    "breaker",
    "quorum:transport+bfd",
    "fastest:transport+bfd",
)

FAULT_SHAPES = {
    "clean": None,
    "link_down": schedule(
        link_down(20 * MS, leaf=0, spine=0),
        link_up(55 * MS, leaf=0, spine=0),
    ),
    "flap": schedule(
        flap(20 * MS, leaf=0, spine=0, period_ns=2 * MS, duty=0.5,
             until_ns=40 * MS),
    ),
    "blackhole": schedule(
        blackhole_on(20 * MS, spine=0, src_leaf=0, dst_leaf=1, fraction=0.5),
        blackhole_off(55 * MS, spine=0),
    ),
    "degrade": schedule(
        link_degrade(20 * MS, leaf=0, spine=0, rate_gbps=0.1),
        link_restore(55 * MS, leaf=0, spine=0),
    ),
}

#: CI subset: the bit-identity shape plus the shape the latency gate
#: runs on.  The full sweep adds the qualitative columns.
SMOKE_SHAPES = ("clean", "link_down")


def _configs(shapes: Sequence[str]) -> List[ExperimentConfig]:
    topology = bench_topology(n_leaves=4, n_spines=4, hosts_per_leaf=3)
    return [
        ExperimentConfig(
            topology=topology,
            lb="ecmp",
            workload="web-search",
            load=LOAD,
            n_flows=N_FLOWS,
            seed=SEED,
            size_scale=1.0,
            faults=FAULT_SHAPES[shape],
            detector=detector,
            extra_drain_ns=40 * MS,
        )
        for detector in DETECTORS
        for shape in shapes
    ]


def reproduce(
    shapes: Sequence[str] = tuple(FAULT_SHAPES),
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, ResultSummary]]:
    """detector -> shape -> summary for the requested fault shapes."""
    summaries = run_cells(_configs(shapes), jobs=jobs)
    grid: Dict[str, Dict[str, ResultSummary]] = {}
    it = iter(summaries)
    for detector in DETECTORS:
        grid[detector] = {shape: next(it) for shape in shapes}
    return grid


def _fmt_ms(value_ns) -> str:
    return "-" if value_ns is None else f"{value_ns / MS:.3f}"


def frontier_rows(grid: Dict[str, Dict[str, ResultSummary]]) -> List[List]:
    """One frontier point per (detector, shape): latency vs noise."""
    rows = []
    for detector, by_shape in grid.items():
        for shape, r in by_shape.items():
            m = r.detector_metrics
            rows.append([
                detector,
                shape,
                _fmt_ms(m.get("detection_ns")),
                m.get("detections", 0),
                m.get("false_positive_count", 0),
                m.get("flap_suppressions", 0),
                r.probe_losses,
                r.stats.unfinished_count,
            ])
    return rows


FRONTIER_HEADERS = [
    "detector", "fault", "detect (ms)", "detections", "false pos",
    "suppressed", "probe losses", "unfinished",
]


def check_gates(grid: Dict[str, Dict[str, ResultSummary]]) -> List[str]:
    """The acceptance bars, as a list of violations (empty = pass)."""
    violations: List[str] = []
    for detector, by_shape in grid.items():
        clean = by_shape.get("clean")
        if clean is not None:
            m = clean.detector_metrics
            if m.get("detections", 0) or m.get("false_positive_count", 0):
                violations.append(
                    f"{detector}: fired on the clean grid "
                    f"(detections={m.get('detections')}, "
                    f"fp={m.get('false_positive_count')})"
                )
    down = {d: by_shape.get("link_down") for d, by_shape in grid.items()}
    for detector, r in down.items():
        if r is not None and r.detector_metrics.get("detection_ns") is None:
            violations.append(
                f"{detector}: no finite detection_ns on link_down"
            )
    transport = down.get("transport")
    bfd = down.get("bfd")
    if transport is not None and bfd is not None:
        t_ns = transport.detector_metrics.get("detection_ns")
        b_ns = bfd.detector_metrics.get("detection_ns")
        if t_ns is None or b_ns is None:
            violations.append(
                f"link_down went undetected (transport={t_ns}, bfd={b_ns})"
            )
        elif b_ns * 10 > t_ns:
            violations.append(
                f"bfd detection {b_ns} ns is not >=10x faster than "
                f"transport {t_ns} ns on link_down"
            )
        if bfd.detector_metrics.get("false_positive_count", 0):
            violations.append(
                "bfd reported false positives on the link_down shape"
            )
    return violations


def report_dict(grid: Dict[str, Dict[str, ResultSummary]]) -> Dict:
    cells = {}
    for detector, by_shape in grid.items():
        for shape, r in by_shape.items():
            m = r.detector_metrics
            cells[f"{detector}@{shape}"] = {
                "detection_ns": m.get("detection_ns"),
                "detections": m.get("detections", 0),
                "false_positive_count": m.get("false_positive_count", 0),
                "flap_suppressions": m.get("flap_suppressions", 0),
                "probe_losses": r.probe_losses,
                "unfinished": r.stats.unfinished_count,
                "avg_fct_ms": r.mean_fct_ms,
            }
    return {
        "meta": {
            "shape": "bench_topology(4,4,3) ecmp web-search "
                     f"load={LOAD} flows={N_FLOWS} seed={SEED}",
            "detectors": list(DETECTORS),
            "gates": [
                "bfd >= 10x faster than transport on link_down",
                "zero detections / false positives on clean",
            ],
        },
        "cells": cells,
    }


def test_detection_quality():
    grid = reproduce(SMOKE_SHAPES)
    body = format_table(FRONTIER_HEADERS, frontier_rows(grid))
    emit("detection_quality", "Detection-quality frontier (smoke subset)",
         body)
    violations = check_gates(grid)
    assert not violations, "\n".join(violations)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="clean + link_down only (the gated shapes)")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", default="BENCH_detection.json",
                        help="machine-readable frontier report")
    args = parser.parse_args(argv)

    shapes = SMOKE_SHAPES if args.smoke else tuple(FAULT_SHAPES)
    grid = reproduce(shapes, jobs=args.jobs)
    body = format_table(FRONTIER_HEADERS, frontier_rows(grid))
    emit("detection_quality",
         "Detection-quality frontier (detector x fault shape)", body)

    with open(args.out, "w") as fh:
        json.dump(report_dict(grid), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.out}")

    violations = check_gates(grid)
    if violations:
        for line in violations:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    print("gates passed: bfd >=10x transport on link_down; "
          "clean grid silent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
