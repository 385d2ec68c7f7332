"""repro.api — the stable public facade.

Everything an external caller (examples, notebooks, downstream tooling)
needs, in one import, with compatibility guarantees the internal modules
don't make::

    from repro.api import ExperimentConfig, bench_topology, run_experiment

    result = run_experiment(
        ExperimentConfig(topology=bench_topology(), lb="hermes", load=0.5)
    )
    print(result.mean_fct_ms, "ms")

The surface:

* :class:`ExperimentConfig` / :class:`TopologyConfig` /
  :class:`FaultScheduleSpec` — declarative run description (a switch
  broken from the start is a :class:`FaultEventSpec` at t=0), JSON round
  trip via ``ExperimentConfig.to_dict()`` / ``ExperimentConfig.from_dict()``;
* :func:`run_experiment` — one config → one
  :class:`~repro.experiments.result.ExperimentResult`, in-process;
* :func:`run_grid` — many configs → :class:`ResultSummary` list, with
  process-pool fan-out and the on-disk result cache;
* :func:`save_result` / :func:`load_result` — persist a run's summary +
  per-flow records to JSON and get an equal :class:`ResultSummary` back,
  field for field (config round-tripped through ``from_dict``);
* topology builders (:func:`bench_topology`, :func:`testbed_topology`,
  :func:`simulation_topology`, :func:`asymmetric_overrides`) matching
  the paper's setups;
* :func:`serve` / :class:`ExperimentService` / :class:`ServiceClient` —
  the always-on experiment service (bounded job queue, crash-tolerant
  worker pool, HTTP JSON API + SSE; see :mod:`repro.serve`);
* :class:`StreamingFctStats` / :class:`TDigest` — bounded-memory
  statistics for million-flow cells
  (``ExperimentConfig(streaming_stats=True)``).

Internal layers (``repro.sim``, ``repro.net``, ``repro.telemetry``, ...)
remain importable but may reshuffle between releases; this module is the
contract.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Optional, Sequence, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import summary_dict
from repro.experiments.parallel import run_cells as _run_cells
from repro.experiments.result import ExperimentResult, ResultSummary
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    asymmetric_overrides,
    bench_topology,
    simulation_topology,
    testbed_topology,
)
from repro.experiments.report import format_table
from repro.faults.spec import FaultEventSpec, FaultScheduleSpec
from repro.hooks import HookSet
from repro.lb.base import LoadBalancer
from repro.lb.factory import (
    LB_REGISTRY,
    SPRAYING_SCHEMES,
    install_lb,
    scheme_names,
)
from repro.metrics.fct import FctStats, FlowRecord
from repro.metrics.streaming import STREAMING_AUTO_FLOWS, StreamingFctStats
from repro.metrics.tdigest import TDigest
from repro.net.fabric import Fabric
from repro.serve import (
    BackpressureError,
    ExperimentService,
    QueueFull,
    ServiceClient,
    serve,
)
from repro.net.topology import TopologyConfig
from repro.sim.engine import (
    SCHEDULERS,
    Simulator,
    WheelSimulator,
    make_simulator,
)
from repro.sim.rng import RngStreams
from repro.telemetry.series import QueueSampler
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import TcpFlow
from repro.workload.patterns import incast

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ResultSummary",
    "TopologyConfig",
    "FaultScheduleSpec",
    "FaultEventSpec",
    "FctStats",
    "FlowRecord",
    "StreamingFctStats",
    "STREAMING_AUTO_FLOWS",
    "TDigest",
    "serve",
    "ExperimentService",
    "ServiceClient",
    "QueueFull",
    "BackpressureError",
    "run_experiment",
    "run_grid",
    "save_result",
    "load_result",
    "summary_dict",
    "bench_topology",
    "testbed_topology",
    "simulation_topology",
    "asymmetric_overrides",
    "format_table",
    # Extension surface: build custom harnesses and schemes on these.
    "LoadBalancer",
    "LB_REGISTRY",
    "SPRAYING_SCHEMES",
    "install_lb",
    "scheme_names",
    "Fabric",
    "Simulator",
    "WheelSimulator",
    "SCHEDULERS",
    "make_simulator",
    "RngStreams",
    "HookSet",
    "QueueSampler",
    "DctcpFlow",
    "TcpFlow",
    "incast",
]


def run_grid(
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> List[ResultSummary]:
    """Run many experiment cells, fanning out over worker processes.

    Results are bit-identical to running each config serially through
    :func:`run_experiment` (asserted by the test suite); finished cells
    are served from the on-disk result cache when enabled.

    Args:
        configs: the grid cells, in the order results are returned.
        jobs: worker processes (default: ``REPRO_JOBS`` or the CPU
            count); ``1`` runs everything in-process.
        use_cache: override the ``REPRO_CACHE`` switch.
        cache_dir: override the cache location (``REPRO_CACHE_DIR``).
    """
    return _run_cells(
        configs, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir
    )


#: save_result file format version (bumped on incompatible change).
_RESULT_FORMAT = 2


def save_result(
    result: ResultSummary,
    path_or_stream: Union[str, "os.PathLike[str]", IO[str]],
) -> None:
    """Persist one run to JSON: full config (``to_dict``), either
    per-flow records (exact run) or the serialized streaming collector
    (``streaming_stats`` run — there are no records; the kept FCTs or
    the digest round-trip instead), and every other :class:`ResultSummary`
    field under its own name.  :func:`load_result` restores it as a
    :class:`ResultSummary` either way."""
    stats = result.stats
    doc = {
        "format": _RESULT_FORMAT,
        "config": result.config.to_dict(),
        "records": [vars(r) for r in stats.records],
        "streaming_stats": stats.to_dict() if stats.is_streaming else None,
        "small_bytes": stats.small_bytes,
        "large_bytes": stats.large_bytes,
        **result.totals(),
    }
    if hasattr(path_or_stream, "write"):
        json.dump(doc, path_or_stream, indent=2, sort_keys=True)
        path_or_stream.write("\n")
    else:
        with open(path_or_stream, "w", encoding="utf-8") as stream:
            json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")


def load_result(
    path_or_stream: Union[str, "os.PathLike[str]", IO[str]],
) -> ResultSummary:
    """Load a :func:`save_result` file back into a :class:`ResultSummary`
    (same stats/query surface as a fresh run; no live fabric)."""
    if hasattr(path_or_stream, "read"):
        doc = json.load(path_or_stream)
    else:
        with open(path_or_stream, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
    version = doc.get("format")
    if version != _RESULT_FORMAT:
        raise ValueError(
            f"unsupported result file format {version!r} "
            f"(this build reads format {_RESULT_FORMAT})"
        )
    streaming_doc = doc.get("streaming_stats")
    if streaming_doc is not None:
        stats: Any = StreamingFctStats.from_dict(streaming_doc)
    else:
        records = [FlowRecord(**record) for record in doc["records"]]
        stats = FctStats(
            records,
            small_bytes=doc["small_bytes"],
            large_bytes=doc["large_bytes"],
        )
    # Keys a file lacks (written before the field existed) keep the
    # field's default.  JSON has no tuple: a field whose default is one
    # is restored as one.
    totals = {
        f.name: (
            tuple(doc[f.name]) if isinstance(f.default, tuple) else doc[f.name]
        )
        for f in ResultSummary.total_fields()
        if f.name in doc
    }
    return ResultSummary(
        config=ExperimentConfig.from_dict(doc["config"]), stats=stats, **totals
    )
