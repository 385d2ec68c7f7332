"""Result export: per-flow CSV traces and JSON summaries.

Downstream analysis (pandas, gnuplot, spreadsheets) wants flat files;
these helpers serialize a :class:`ResultSummary` (or the
:class:`ExperimentResult` extending it) without pulling any dependency
into the library.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import IO, Any, Dict

from repro.experiments.result import ResultSummary

FLOW_FIELDS = [
    "flow_id",
    "src",
    "dst",
    "size_bytes",
    "start_ns",
    "fct_ns",
    "retransmissions",
    "timeouts",
    "finished",
]


def write_flow_csv(result: ResultSummary, stream: IO[str]) -> int:
    """Write one row per flow; returns the number of rows written."""
    writer = csv.writer(stream)
    writer.writerow(FLOW_FIELDS)
    count = 0
    for record in result.stats.records:
        writer.writerow(
            [
                record.flow_id,
                record.src,
                record.dst,
                record.size_bytes,
                record.start_ns,
                record.fct_ns if record.fct_ns is not None else "",
                record.retransmissions,
                record.timeouts,
                int(record.finished),
            ]
        )
        count += 1
    return count


def summary_dict(result: ResultSummary) -> Dict[str, Any]:
    """A JSON-serializable summary of one experiment: the headline
    config knobs, FCT aggregates and flow counts, plus — under ``run`` —
    every other :class:`ResultSummary` field by name."""
    config = result.config
    stats = result.stats

    def safe(value: float) -> Any:
        return None if value != value else value  # NaN -> null

    return {
        "config": {
            "lb": config.lb,
            "transport": config.transport,
            "workload": config.workload,
            "load": config.load,
            "n_flows": config.n_flows,
            "seed": config.seed,
            "size_scale": config.size_scale,
            "time_scale": config.time_scale,
            "topology": {
                "n_leaves": config.topology.n_leaves,
                "n_spines": config.topology.n_spines,
                "hosts_per_leaf": config.topology.hosts_per_leaf,
                "host_link_gbps": config.topology.host_link_gbps,
                "spine_link_gbps": config.topology.spine_link_gbps,
                "degraded_links": len(config.topology.link_overrides),
            },
            "faults": (
                [asdict(event) for event in config.faults.events]
                if config.faults
                else None
            ),
            "detector": config.detector,
        },
        "fct_ms": {
            "mean": safe(stats.mean_ms()),
            "median": safe(stats.median_ms()),
            "p99": safe(stats.p99_ms()),
            "mean_with_penalty": safe(result.mean_fct_ms_with_penalty()),
            "small_mean": safe(stats.small.mean_ms()),
            "small_p99": safe(stats.small.p99_ms()),
            "large_mean": safe(stats.large.mean_ms()),
        },
        "percentile_estimators": result.percentile_estimators,
        "flows": {
            "total": stats.count,
            "finished": stats.finished_count,
            "unfinished": stats.unfinished_count,
            "retransmissions": stats.total_retransmissions(),
        },
        "run": result.totals(),
    }


def cell_dict(result: ResultSummary) -> Dict[str, Any]:
    """One grid cell as JSON: ``{"error": reason}`` for a cell that
    produced no result (timed out, crashed), else :func:`summary_dict`.
    ``GET /result`` serves a job's cells in this shape and the CLI
    prints every results table from it."""
    if result.error is not None:
        return {"error": result.error}
    return summary_dict(result)


def write_summary_json(result: ResultSummary, stream: IO[str]) -> None:
    """Serialize :func:`summary_dict` as indented JSON."""
    json.dump(summary_dict(result), stream, indent=2, sort_keys=True)
    stream.write("\n")
