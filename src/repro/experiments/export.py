"""Result export: one run as a JSON-serializable summary dict.

The CLI prints every results table from these dicts and the service's
``GET /result`` serves them; :func:`repro.api.save_result` is the
persisted form of a whole run.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict

from repro.experiments.result import ResultSummary

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

