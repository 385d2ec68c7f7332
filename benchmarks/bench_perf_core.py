"""Core performance microbenchmark: engine throughput + grid scaling.

Tracks the repo's performance trajectory from PR 1 onward.  Phases over
one (scheme x load x seed) grid:

1. **serial** — every cell in-process on the **default engine** (the
   calendar wheel since PR 7), timed per cell: ``events_per_sec`` (and
   its alias ``events_per_sec_wheel``, kept for cross-PR diffing) plus
   per-scheme wall-clock;
2. **parallel cold** — the same grid through
   :func:`repro.experiments.parallel.run_cells` with ``--jobs`` workers
   and an empty cache.  On single-core machines the speedup number is
   meaningless (pure process-spawn overhead), so ``parallel_speedup`` is
   ``null`` with a ``parallel_speedup_skipped`` reason and ``cpu_count``
   recorded — the determinism cross-check still runs;
3. **warm** — the same call again, now served entirely from the cache;
4. **traced** — the serial grid re-run with ``trace=True``
   (:mod:`repro.telemetry` fully attached), to record what observability
   costs when it is ON;
5. **heap** — the serial grid re-run with ``scheduler="heap"`` (the
   reference binary-heap engine), asserting bit-identical per-flow
   records and recording ``events_per_sec_heap`` + the heap→wheel
   speedup ratio ``wheel_speedup_x``;
6. **streaming** — the serial grid re-run with ``streaming_stats=True``
   (bounded-memory collector, per-flow records dropped),
   asserting event counts and exact aggregates match the exact-mode run
   and recording ``events_per_sec_streaming``, plus a pure-estimator
   accuracy probe: a seeded heavy-tailed stream through
   :class:`~repro.metrics.tdigest.TDigest` whose p99 relative error
   against the sorted truth lands in ``digest_p99_rel_err``.

It also asserts that the parallel run's per-flow records are
bit-identical to the serial run's — the determinism contract, checked on
every invocation, not just in the test suite.

Results land in ``BENCH_core.json`` at the repo root so successive PRs
can diff events/sec, parallel speedup, and warm-cache latency.  The
layered hot-path breakdown (engine-only, port-chain, allocation counts)
lives in ``benchmarks/bench_hotpath.py`` → ``BENCH_hotpath.json``.

Run directly (CI uses ``--smoke --jobs 2``)::

    PYTHONPATH=src python benchmarks/bench_perf_core.py [--smoke] [--jobs N]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(__file__))  # for direct execution

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    code_version,
    resolve_jobs,
    run_cells,
)
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_core.json"
)

#: Default grid: 4 schemes x 2 loads = 8 cells, the shape of a small
#: paper figure.  ``--smoke`` shrinks it to 4 fast cells for CI.
SCHEMES = ("ecmp", "letflow", "conga", "hermes")
LOADS = (0.5, 0.7)
SMOKE_SCHEMES = ("ecmp", "letflow")
SMOKE_LOADS = (0.4, 0.6)


def build_grid(
    schemes: Sequence[str],
    loads: Sequence[float],
    seeds: Sequence[int],
    n_flows: int,
    size_scale: float,
) -> List[ExperimentConfig]:
    topology = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)
    return [
        ExperimentConfig(
            topology=topology,
            lb=lb,
            workload="web-search",
            load=load,
            n_flows=n_flows,
            seed=seed,
            size_scale=size_scale,
            time_scale=size_scale,
        )
        for lb in schemes
        for load in loads
        for seed in seeds
    ]


def measure(
    configs: List[ExperimentConfig], jobs: Optional[int] = None
) -> Dict:
    """Time the phases over ``configs``; returns the report dict."""
    jobs = resolve_jobs(jobs)
    cpu_count = os.cpu_count() or 1

    # Untimed warm-up: the first cell otherwise pays one-off costs
    # (scheme module imports, method-cache warm-up) that belong to
    # process start, not engine throughput.
    run_experiment(configs[0])

    # Phase 1: serial on the default engine (wheel), timed per cell.
    per_scheme_wall: Dict[str, float] = {}
    serial_results = []
    total_events = 0
    serial_start = time.perf_counter()
    for config in configs:
        cell_start = time.perf_counter()
        result = run_experiment(config)
        elapsed = time.perf_counter() - cell_start
        per_scheme_wall[config.lb] = per_scheme_wall.get(config.lb, 0.0) + elapsed
        total_events += result.events
        serial_results.append(result)
    serial_wall = time.perf_counter() - serial_start
    default_engine = serial_results[0].scheduler_info.get("name", "?")

    # Phases 2 + 3: parallel cold then warm, against a throwaway cache.
    # Always run — they double as the determinism + cache correctness
    # check — but only *report* a speedup where it can physically exist.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_start = time.perf_counter()
        parallel_results = run_cells(
            configs, jobs=jobs, use_cache=True, cache_dir=cache_dir
        )
        cold_wall = time.perf_counter() - cold_start

        warm_start = time.perf_counter()
        warm_results = run_cells(
            configs, jobs=jobs, use_cache=True, cache_dir=cache_dir
        )
        warm_wall = time.perf_counter() - warm_start

    # Determinism contract: parallel == serial == warm, bit for bit.
    for serial, cold, warm in zip(serial_results, parallel_results, warm_results):
        assert serial.stats.records == cold.stats.records, (
            "parallel run diverged from serial run"
        )
        assert cold.stats.records == warm.stats.records, (
            "cache returned different records"
        )

    parallel_speedup: Optional[float]
    parallel_speedup_skipped: Optional[str]
    if cpu_count < 2 or jobs < 2:
        # A "speedup" measured here is process-spawn overhead wearing a
        # misleading costume (the 0.93x this used to report on 1-core
        # CI runners); refuse to publish a number.
        parallel_speedup = None
        parallel_speedup_skipped = (
            f"needs >=2 cpus and >=2 jobs (cpu_count={cpu_count}, "
            f"jobs={jobs}); cold run kept for determinism check only"
        )
    else:
        parallel_speedup = round(serial_wall / cold_wall, 2)
        parallel_speedup_skipped = None

    # Phase 4: the same serial grid with full telemetry attached.  The
    # traced run must reproduce the untraced records exactly (tracing is
    # pure observation); the wall-clock ratio is the cost of having it ON.
    traced_events = 0
    traced_start = time.perf_counter()
    for config, untraced in zip(configs, serial_results):
        traced = run_experiment(dataclasses.replace(config, trace=True))
        traced_events += traced.events
        assert traced.stats.records == untraced.stats.records, (
            "traced run diverged from untraced run"
        )
    traced_wall = time.perf_counter() - traced_start

    # Phase 5: the same grid on the reference heap engine.  The default
    # wheel must reproduce the heap's records bit-for-bit (the scheduler
    # equivalence contract); the throughput ratio is the payoff.
    heap_events = 0
    heap_start = time.perf_counter()
    for config, wheel_result in zip(configs, serial_results):
        heap = run_experiment(dataclasses.replace(config, scheduler="heap"))
        heap_events += heap.events
        assert heap.stats.records == wheel_result.stats.records, (
            "heap scheduler diverged from wheel scheduler"
        )
        assert heap.events == wheel_result.events, (
            "heap scheduler fired a different event count"
        )
    heap_wall = time.perf_counter() - heap_start

    # Phase 6: streaming statistics.  Same simulation with the bounded-
    # memory collector: event counts and exact aggregates (count, mean)
    # must match the exact-mode run; the throughput delta is what the
    # fold-on-completion path costs.
    import random as _random

    from repro.metrics.fct import percentile
    from repro.metrics.tdigest import TDigest

    streaming_events = 0
    streaming_start = time.perf_counter()
    for config, exact_result in zip(configs, serial_results):
        streaming = run_experiment(
            dataclasses.replace(config, streaming_stats=True)
        )
        streaming_events += streaming.events
        assert streaming.events == exact_result.events, (
            "streaming-stats run fired a different event count"
        )
        assert streaming.stats.count == exact_result.stats.count
        exact_mean = exact_result.stats.mean_ms()
        if exact_mean == exact_mean:  # skip NaN (no finished flows)
            assert abs(streaming.stats.mean_ms() - exact_mean) <= (
                1e-9 * abs(exact_mean)
            ), "streaming mean diverged from exact mean"
        assert streaming.stats.records == (), (
            "streaming run retained per-flow records"
        )
    streaming_wall = time.perf_counter() - streaming_start

    # Estimator accuracy probe, decoupled from the (small) grid: a
    # seeded heavy-tailed stream large enough that the digest — not the
    # kept FCTs — is the estimator of record.
    rng = _random.Random(1)
    digest_values = [rng.lognormvariate(12.0, 1.6) for _ in range(100_000)]
    digest = TDigest()
    digest_start = time.perf_counter()
    digest.extend(digest_values)
    digest_wall = time.perf_counter() - digest_start
    digest_values.sort()
    p99_truth = percentile(digest_values, 99.0)
    digest_p99_rel_err = abs(digest.quantile(0.99) - p99_truth) / p99_truth
    assert digest_p99_rel_err < 0.01, (
        f"digest p99 off by {digest_p99_rel_err:.2%} (contract: <1%)"
    )

    events_per_sec = round(total_events / serial_wall, 1)
    return {
        "code_version": code_version(),
        "grid_cells": len(configs),
        "n_flows": configs[0].n_flows,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "default_scheduler": default_engine,
        "total_events": total_events,
        "events_per_sec": events_per_sec,
        # Alias of events_per_sec now that the wheel IS the default
        # engine; kept so cross-PR diffs and the hotpath gate have a
        # stable key.
        "events_per_sec_wheel": events_per_sec,
        "serial_wall_s": round(serial_wall, 3),
        "per_scheme_wall_s": {
            lb: round(wall, 3) for lb, wall in per_scheme_wall.items()
        },
        "parallel_cold_wall_s": round(cold_wall, 3),
        "parallel_speedup": parallel_speedup,
        "parallel_speedup_skipped": parallel_speedup_skipped,
        "warm_cache_wall_s": round(warm_wall, 3),
        "warm_cache_fraction_of_cold": round(warm_wall / cold_wall, 4),
        "events_per_sec_traced": round(traced_events / traced_wall, 1),
        "traced_wall_s": round(traced_wall, 3),
        "tracing_overhead_x": round(traced_wall / serial_wall, 3),
        "events_per_sec_heap": round(heap_events / heap_wall, 1),
        "heap_wall_s": round(heap_wall, 3),
        "wheel_speedup_x": round(heap_wall / serial_wall, 3),
        "events_per_sec_streaming": round(streaming_events / streaming_wall, 1),
        "streaming_wall_s": round(streaming_wall, 3),
        "streaming_overhead_x": round(streaming_wall / serial_wall, 3),
        "digest_p99_rel_err": round(digest_p99_rel_err, 6),
        "digest_ingest_values_per_sec": round(
            len(digest_values) / digest_wall, 1
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers (default: $REPRO_JOBS, "
                             "else all cores)")
    parser.add_argument("--flows", type=int, default=None,
                        help="flows per cell (default 200; smoke 40)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="seeds per (scheme, load) cell")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 4-cell grid for CI")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--min-wheel-speedup", type=float, default=None,
                        help="fail (exit 1) if the wheel engine's "
                             "speedup over the heap falls below this "
                             "ratio (CI uses 0.95 as a regression gate)")
    args = parser.parse_args(argv)

    schemes = SMOKE_SCHEMES if args.smoke else SCHEMES
    loads = SMOKE_LOADS if args.smoke else LOADS
    n_flows = args.flows or (40 if args.smoke else 200)
    size_scale = 0.05 if args.smoke else 0.1
    configs = build_grid(
        schemes, loads, range(1, args.seeds + 1), n_flows, size_scale
    )

    report = measure(configs, jobs=args.jobs)
    report["smoke"] = args.smoke
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwritten to {out}")
    if (
        args.min_wheel_speedup is not None
        and report["wheel_speedup_x"] < args.min_wheel_speedup
    ):
        print(
            f"FAIL: wheel speedup {report['wheel_speedup_x']}x < "
            f"required {args.min_wheel_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_perf_core_smoke(tmp_path):
    """Pytest entry point: the CI smoke run (4 cells, 2 workers)."""
    out = tmp_path / "BENCH_core.json"
    assert main(["--smoke", "--jobs", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["grid_cells"] == 4
    assert report["default_scheduler"] == "wheel"
    assert report["events_per_sec"] > 0
    assert report["events_per_sec_heap"] > 0
    assert report["events_per_sec_streaming"] > 0
    assert report["digest_p99_rel_err"] < 0.01
    # A warm rerun must come from the cache, far faster than simulating.
    assert report["warm_cache_fraction_of_cold"] < 0.5
    # The speedup field is either a real multi-core number or an
    # explicit skip — never a misleading 1-core artifact.
    if report["cpu_count"] < 2:
        assert report["parallel_speedup"] is None
        assert report["parallel_speedup_skipped"]
    else:
        assert report["parallel_speedup"] is not None


if __name__ == "__main__":
    sys.exit(main())
