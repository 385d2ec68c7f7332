"""The four workloads: what each one runs and how a run is timed.

Three of them are lists of ``ExperimentConfig`` cells run serially
in-process through ``repro.api.run_experiment``; ``serve_jobs`` drives a
live ``ExperimentService`` over loopback HTTP.  README.md records why
each exists; this module only builds the inputs and times them.

Every cell takes its flows from ``--seed``.  Flow sizes are heavy-tailed,
so the work in a cell swings several-fold between seeds.  Two things
keep a run's numbers a property of the code rather than of the seed: a
cell's cost is always taken per unit of simulated work and reported for
the workload's *reference input* - the same cells at a fixed, round
amount of work each - and a run draws several inputs per cell
(``draws``), one per pass.

The unit of simulated work is the packet transmission: every DATA, ACK,
probe or heartbeat packet a port puts on its wire (``pkts_sent`` summed
over ``topology.all_ports()``).  It is a simulated statistic, fixed by
the input and the protocols, not an engine unit: batching events away
leaves it alone.  Payload MB was tried first and is a worse yardstick -
a faulted cell's heartbeats cost time and carry no payload.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from statistics import median

from harness import DEFAULT_SEED, Stopwatch, load_expected, result_digest

from repro.api import (
    SPRAYING_SCHEMES,
    BackpressureError,
    ExperimentConfig,
    ExperimentService,
    ServiceClient,
    bench_topology,
    run_experiment,
    scheme_names,
)
from repro.faults import parse_schedule

#: A ``fresh`` job slower than this counts as failed.
LATENCY_LIMIT_MS = 5000.0


@dataclass(frozen=True)
class Cell:
    name: str
    config: ExperimentConfig


@dataclass
class CellSample:
    """One timed execution of one cell."""

    cal_s: float
    digest: str
    flows: int
    finished: int
    #: Packets put on a wire, over all ports: the unit of simulated work.
    transmissions: int
    #: Which of the run's inputs this was (see ``CellWorkload.draws``).
    draw: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class CellWorkload:
    name: str
    #: One cell of the reference input: its transmissions, which costs
    #: are scaled to, and the payload and flows that stand behind them.
    ref_transmissions: int
    ref_mb: float
    ref_flows: int
    #: Inputs per cell and run: pass ``p`` runs every cell on draw
    #: ``p % draws``, whose flows come from seed ``seed * 100 + draw``.
    draws: int
    #: ``make_cells(cell_seed, smoke)`` -> the workload's cells, in order.
    make_cells: Callable[[int, bool], List[Cell]]

    def passes(self, seed: int, smoke: bool) -> List[List[Cell]]:
        """The cells of every draw of a ``--seed`` run."""
        return [
            self.make_cells(seed * 100 + draw, smoke)
            for draw in range(self.draws)
        ]


def _small_fabric():
    return bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)


# --------------------------------------------------------------------- #
# bulk_ecmp
# --------------------------------------------------------------------- #


def bulk_ecmp_cells(seed: int, smoke: bool) -> List[Cell]:
    # Small enough that a cell takes a fraction of a second: dozens of
    # timed cells per run is what makes the medians steady on this host.
    scale = 0.005
    return [
        Cell(
            f"{transport}@{load}",
            ExperimentConfig(
                topology=_small_fabric(),
                lb="ecmp",
                transport=transport,
                workload="data-mining",
                load=load,
                n_flows=60 if smoke else 200,
                seed=seed,
                size_scale=scale,
                time_scale=scale,
            ),
        )
        for transport in ("dctcp", "tcp")
        for load in (0.5, 0.8)
    ]


# --------------------------------------------------------------------- #
# scheme_grid
# --------------------------------------------------------------------- #

#: One uplink of leaf 0 goes away while flows are arriving and comes
#: back before the last of them starts; ``bfd`` heartbeats find it.
SCHEME_GRID_FAULTS = (
    "link_down@100us:leaf=0,spine=1; link_up@500us:leaf=0,spine=1"
)


def scheme_grid_cells(seed: int, smoke: bool) -> List[Cell]:
    topology = bench_topology(
        asymmetric=True, n_leaves=2, n_spines=4, hosts_per_leaf=8
    )
    faults = parse_schedule(SCHEME_GRID_FAULTS)
    cells = []
    for faulted in (False, True):
        for lb in scheme_names():
            extra: Dict[str, Any] = {}
            if lb in SPRAYING_SCHEMES:
                extra["reorder_mask_us"] = 100.0
            if lb == "presto":
                extra["lb_params"] = {"flowcell_bytes": 1500}
            if faulted:
                extra.update(faults=faults, detector="bfd")
            cells.append(
                Cell(
                    f"{lb}.fault" if faulted else lb,
                    ExperimentConfig(
                        topology=topology,
                        lb=lb,
                        workload="web-search",
                        load=0.7,
                        n_flows=30 if smoke else 70,
                        seed=seed,
                        # More, smaller flows than size_scale=0.05 would
                        # give: the payload of a cell then varies by a
                        # quarter between seeds instead of by half.
                        size_scale=0.02,
                        time_scale=0.05,
                        **extra,
                    ),
                )
            )
    return cells


# --------------------------------------------------------------------- #
# mice_churn
# --------------------------------------------------------------------- #


def mice_churn_cells(seed: int, smoke: bool) -> List[Cell]:
    return [
        Cell(
            f"{lb}.{'streaming' if streaming else 'exact'}",
            ExperimentConfig(
                topology=_small_fabric(),
                lb=lb,
                workload="web-search",
                load=0.5,
                n_flows=800 if smoke else 2000,
                seed=seed,
                size_scale=0.002,
                time_scale=0.05,
                streaming_stats=streaming,
            ),
        )
        for lb in ("ecmp", "hermes")
        for streaming in (False, True)
    ]


CELL_WORKLOADS = {
    w.name: w
    for w in (
        # Reference cells: round numbers near what an average draw holds.
        # Draws: as many as still leaves each one about two passes a run.
        CellWorkload("bulk_ecmp", 80_000, 12.5, 200, 8, bulk_ecmp_cells),
        CellWorkload("scheme_grid", 25_000, 3.2, 70, 4, scheme_grid_cells),
        CellWorkload("mice_churn", 64_000, 9.3, 2000, 6, mice_churn_cells),
    )
}

WORKLOAD_NAMES = tuple(CELL_WORKLOADS) + ("serve_jobs",)


# --------------------------------------------------------------------- #
# Timing cells
# --------------------------------------------------------------------- #


def run_cell(
    cell: Cell, watch: Stopwatch, draw: int = 0, run=run_experiment
) -> Tuple[CellSample, Any]:
    """Time one execution of ``cell``; returns the sample and the live
    result (the traced run reads counters off its fabric).  A cell that
    raises is a sample with ``error`` set - every flow of it failed."""
    flows = cell.config.n_flows
    try:
        result, _, cal_s = watch.time(run, cell.config)
    except Exception as exc:  # noqa: BLE001 - a failed cell is a result
        traceback.print_exc()
        return (
            CellSample(0.0, "", flows, 0, 0, draw,
                       error=f"{type(exc).__name__}: {exc}"),
            None,
        )
    transmissions = sum(
        port.pkts_sent for port in result.fabric.topology.all_ports()
    )
    return (
        CellSample(
            cal_s, result_digest(result), flows,
            result.stats.finished_count, transmissions, draw,
        ),
        result,
    )


def warm_up(cells: List[Cell], watch: Stopwatch) -> CellSample:
    """The untimed first cell of set-up: the workload's first cell cut
    to a few flows, enough to pull in every lazy import and fill the
    method caches without making set-up time depend on the seed's
    largest flow."""
    first = cells[0]
    small = dataclasses.replace(
        first.config, n_flows=min(20, first.config.n_flows)
    )
    return run_cell(Cell(first.name, small), watch)[0]


def time_cells(
    passes: List[List[Cell]], seconds: float, watch: Stopwatch
) -> Dict[str, List[CellSample]]:
    """Pass after pass over the cells for ``seconds``, each pass on the
    next draw; returns every sample by cell name.

    The first pass always completes, so every cell has a sample; the
    first cell's first draw always gets a second one, so at least one
    digest per run is checked against a repeat of itself on any seed."""
    samples: Dict[str, List[CellSample]] = {c.name: [] for c in passes[0]}
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        draw = n % len(passes)
        for cell in passes[draw]:
            if n > 0 and time.perf_counter() >= deadline:
                break
            samples[cell.name].append(run_cell(cell, watch, draw)[0])
        n += 1
    first = passes[0][0]
    if sum(1 for s in samples[first.name] if s.draw == 0) < 2:
        samples[first.name].append(run_cell(first, watch)[0])
    return samples


# --------------------------------------------------------------------- #
# serve_jobs
# --------------------------------------------------------------------- #

#: Callers wait for their reply, so the loop is closed; two clients keep
#: the single worker busy without exceeding the container's cores.
N_CLIENTS = 2
#: ``i % 5`` -> kind: three jobs nobody has seen, one sharing a cell with
#: the job before it (served from the result cache), one verbatim repeat
#: (deduplicated onto the finished job).
JOB_KINDS = ("fresh", "fresh", "fresh", "half_warm", "dup")


def _job_cell(lb: str, cell_seed: int, smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        topology=_small_fabric(),
        lb=lb,
        workload="web-search",
        load=0.5,
        # Many tiny flows rather than a few heavy-tailed ones: every job
        # then costs about the same (~50 ms a cell), and a run's latency
        # percentiles are not at the mercy of which seeds drew an
        # elephant.
        n_flows=80 if smoke else 250,
        seed=cell_seed,
        size_scale=0.002,
        time_scale=0.05,
    )


def job_configs(
    seed: int, client: int, index: int, smoke: bool
) -> Tuple[str, List[ExperimentConfig]]:
    """Job ``index`` of ``client``: its kind and its two cells."""
    kind = JOB_KINDS[index % len(JOB_KINDS)]

    def cell_seed(i: int) -> int:
        return seed * 1_000_000 + client * 100_000 + i + 1

    if kind == "dup":
        return kind, job_configs(seed, client, index - 1, smoke)[1]
    first = cell_seed(index - 1 if kind == "half_warm" else index)
    return kind, [
        _job_cell("ecmp", first, smoke),
        _job_cell("hermes", cell_seed(index), smoke),
    ]


#: How much of a job's latency follows the host's CPU speed.  The rest
#: is waiting that a slow core does not stretch: poll sleeps, process
#: start, wake-ups across the two vCPUs.  Measured on this container
#: over host speeds 0.49-0.78: raw job rate ~ speed ** 0.55.
SERVE_CPU_SHARE = 0.5


#: Jobs in the reference input of ``serve_jobs``: ``wall_s`` is the host
#: time this many jobs take at the measured rate, ``peak_rss_mb`` the
#: service process's peak when this many are done.
SERVE_REF_JOBS = 60


def serve_time_scale(host_speed: float) -> float:
    """Raw -> calibrated factor for ``serve_jobs`` times (a cell's time,
    all CPU, is scaled by ``host_speed`` itself)."""
    return host_speed ** SERVE_CPU_SHARE


@dataclass
class JobSample:
    client: int
    index: int
    kind: str
    job_id: Optional[str]
    raw_ms: float
    queue_wait_ms: float
    run_ms: float
    fetch_ms: float
    deduplicated: bool
    #: ``None`` when the job is done and every cell has a result.
    error: Optional[str] = None
    #: ``raw_ms`` in calibrated time; ``ServeRun.load`` fills it in once
    #: the loop's speed is known.
    cal_ms: float = 0.0


def _one_job(
    client: ServiceClient, configs: List[ExperimentConfig]
) -> Dict[str, Any]:
    submitted = client.submit(configs, jobs_per_cell=os.cpu_count() or 1)
    status = client.wait(submitted["job_id"], timeout_s=60.0, poll_s=0.02)
    fetch_start = time.perf_counter()
    cells = None
    if status["state"] == "done":
        cells = client.result(submitted["job_id"])["cells"]
    return {
        "submitted": submitted,
        "status": status,
        "cells": cells,
        "fetch_ms": (time.perf_counter() - fetch_start) * 1e3,
    }


def _client_loop(
    url: str, seed: int, client_no: int, deadline: float, smoke: bool,
    out: List[JobSample], speeds: List[float], rss_kb_at_ref: List[int],
) -> None:
    client = ServiceClient(url)
    watch = Stopwatch()
    index = 0
    while time.perf_counter() < deadline:
        kind, configs = job_configs(seed, client_no, index, smoke)
        try:
            reply, raw_s, _ = watch.time(_one_job, client, configs)
        except BackpressureError as exc:
            out.append(JobSample(client_no, index, kind, None, 0.0, 0.0,
                                 0.0, 0.0, False, error=f"429: {exc}"))
            index += 1
            continue
        status = reply["status"]
        error = None
        if status["state"] != "done":
            error = f"job {status['state']}: {status.get('error')}"
        elif any("error" in cell for cell in reply["cells"]):
            error = "cell error"
        started = status["started_s"] or status["submitted_s"]
        finished = status["finished_s"] or started
        out.append(
            JobSample(
                client_no, index, kind, status["job_id"],
                raw_s * 1e3,
                (started - status["submitted_s"]) * 1e3,
                (finished - started) * 1e3,
                reply["fetch_ms"],
                bool(reply["submitted"]["deduplicated"]),
                error,
            )
        )
        index += 1
        if len(out) >= SERVE_REF_JOBS and not rss_kb_at_ref:
            rss_kb_at_ref.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
    speeds.extend(watch.speeds)


class ServeRun:
    """A live service on loopback plus the closed loop that loads it."""

    def __init__(self, workdir: str) -> None:
        self.service = ExperimentService(
            n_workers=1,
            use_cache=True,
            cache_dir=os.path.join(workdir, "cache"),
        )
        self.service.start()
        httpd = self.service.start_http(port=0)
        self.url = f"http://127.0.0.1:{httpd.server_address[1]}"
        self.client = ServiceClient(self.url)
        self.client.healthz()
        #: Median host speed over the last ``load``.
        self.host_speed = 1.0
        #: Peak RSS of this process when the last ``load`` had completed
        #: its reference number of jobs.
        self.peak_rss_mb = 0.0

    def warm_up(self, seed: int, smoke: bool) -> None:
        """One untimed job (a client number no loop uses), so the first
        timed job does not pay the first fork and the first cache
        directory."""
        _one_job(self.client, job_configs(seed, N_CLIENTS, 0, smoke)[1])

    def load(
        self, seed: int, seconds: float, smoke: bool
    ) -> Tuple[List[JobSample], float, float]:
        """Run the closed loop for ``seconds``; returns the job samples,
        the factor that turns the loop's raw times into calibrated ones,
        and the loop's raw wall time.

        The job table keeps every finished job's results, so the
        process grows with each job (~0.15 MB) and a faster host ends a
        run with more of them.  ``peak_rss_mb`` is therefore read when
        job number ``SERVE_REF_JOBS`` completes - the same input on any host -
        or at the end of a loop too short to get there."""
        samples: List[JobSample] = []
        speeds: List[float] = []
        rss_kb: List[int] = []
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(self.url, seed, n, deadline, smoke, samples, speeds,
                      rss_kb),
                name=f"suite-client-{n}",
            )
            for n in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        raw_s = time.perf_counter() - start
        if not rss_kb:
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        self.peak_rss_mb = rss_kb[0] / 1024.0
        # One speed for the whole loop.  A job's own bracket of samples
        # is taken while the other client's job keeps both cores busy,
        # which says more about the job next door than about the host;
        # the median of all of them does track the host's state.
        self.host_speed = median(speeds)
        scale = serve_time_scale(self.host_speed)
        for job in samples:
            job.cal_ms = job.raw_ms * scale
        return samples, scale, raw_s

    def stop(self) -> None:
        self.service.stop()


# --------------------------------------------------------------------- #
# Checking
# --------------------------------------------------------------------- #


def check_cells(
    workload: str, seed: int, smoke: bool, samples: Dict[str, List[Any]]
) -> Dict[str, Any]:
    """Failure accounting for cell samples: unfinished flows, cells that
    raised, digests that differ between repeats or from the pin."""
    pinned = {}
    if seed == DEFAULT_SEED and not smoke:
        pinned = load_expected().get(workload, {})
    attempted = failed = 0
    notes: List[str] = []
    for name, reps in samples.items():
        first: Dict[int, str] = {}
        for sample in reps:
            label = f"{name}#{sample.draw}"
            want = pinned.get(label, first.setdefault(sample.draw, sample.digest))
            attempted += sample.flows
            if sample.error is not None:
                failed += sample.flows
                notes.append(f"{label}: {sample.error}")
            elif sample.digest != want:
                failed += sample.flows
                notes.append(f"{label}: digest {sample.digest[:12]} != {want[:12]}")
            else:
                failed += sample.flows - sample.finished
                if sample.finished != sample.flows:
                    notes.append(
                        f"{label}: {sample.flows - sample.finished} unfinished"
                    )
    return {"attempted": attempted, "failed": failed, "notes": notes}


def check_jobs(
    run: Any, seed: int, smoke: bool, jobs: List[Any]
) -> Dict[str, Any]:
    """Failure accounting for ``serve_jobs`` plus the simulated work the
    done jobs stand for.  A job fails when it was refused, did not end
    ``done``, carries a cell error, took longer than the limit (fresh
    jobs), or returned statistics that differ from the pin, from the
    job it repeats, or from a direct in-process run of the same cells
    (first job of client 0)."""
    pinned = {}
    if seed == DEFAULT_SEED and not smoke:
        pinned = load_expected().get("serve_jobs", {})
    by_slot = {(j.client, j.index): j for j in jobs}
    digests: Dict[tuple, List[str]] = {}
    failed = 0
    notes: List[str] = []
    payload_mb = flows = 0.0
    for job in jobs:
        problem = job.error
        if problem is None and job.kind == "fresh" and job.cal_ms > LATENCY_LIMIT_MS:
            problem = f"{job.cal_ms:.0f} ms is over the limit"
        if problem is None:
            # Read in-process: the HTTP view carries no per-flow records.
            results = run.service.result(job.job_id)
            mine = digests[(job.client, job.index)] = [
                result_digest(r) for r in results
            ]
            for result, digest in zip(results, mine):
                want = pinned.get(f"{result.config.lb}.s{result.config.seed}")
                if want is not None and digest != want:
                    problem = f"digest differs from pin for seed {result.config.seed}"
            before = by_slot.get((job.client, job.index - 1))
            theirs = digests.get((job.client, job.index - 1))
            if job.kind == "dup" and before is not None and before.error is None:
                if not job.deduplicated or job.job_id != before.job_id:
                    problem = "verbatim repeat was not deduplicated"
            if job.kind == "half_warm" and theirs and mine[0] != theirs[0]:
                problem = "cached cell differs from the run that cached it"
            if (job.client, job.index) == (0, 0):
                direct = [
                    result_digest(run_experiment(r.config))
                    for r in results
                ]
                if direct != mine:
                    problem = "service result differs from a direct run"
            simulated = {"fresh": results, "half_warm": results[1:], "dup": []}
            for result in simulated[job.kind]:
                done = [r for r in result.stats.records if r.fct_ns is not None]
                flows += len(done)
                payload_mb += sum(r.size_bytes for r in done) / 1e6
                if len(done) != result.config.n_flows:
                    problem = "unfinished flows"
        if problem is not None:
            failed += 1
            notes.append(f"client {job.client} job {job.index} ({job.kind}): {problem}")
    return {
        "attempted": len(jobs),
        "failed": failed,
        "notes": notes,
        "payload_mb": payload_mb,
        "flows": flows,
    }
