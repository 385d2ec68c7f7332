"""The traced run: per-layer metrics from outside the program.

Two sources, neither of which adds anything to ``src/``:

* **rungs** - the suite calls into one layer's public functions and
  times that alone (engine dispatch with no packets, a port chain with
  no transport, a transport with a constant-path load balancer, ...).
  Rungs do not depend on the workload; every traced run repeats them.
* **ledger** - a fixed, named subset of the workload's cells is run
  again under ``cProfile``.  Each function's own time goes to the layer
  (``repro.<package>``) its file belongs to, a builtin's time to the
  layer of whoever called it, so the shares are self time by
  construction and the call counts are exact and repeatable.

A metric that belongs to one workload (``lb.<scheme>.cell_ms``,
``serve.*``, ...) reads 0 on the others, as does a layer's share and
call count where the workload never enters it.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pickle
import sys
import threading
import time
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

import harness
from harness import Stopwatch, quantile

import repro
import workloads
from repro.api import (
    DctcpFlow,
    ExperimentConfig,
    Fabric,
    FctStats,
    FlowRecord,
    LoadBalancer,
    ResultSummary,
    RngStreams,
    StreamingFctStats,
    install_lb,
    make_simulator,
    run_experiment,
    run_grid,
    scheme_names,
)
from repro.experiments.parallel import ResultCache, config_key
from repro.net.packet import HEADER_BYTES, PacketKind
from repro.workload.distributions import distribution_by_name
from repro.workload.generator import FlowGenerator

#: Layers with a share and a call count of their own; everything else
#: (stdlib, the suite, ``repro.api``/``hooks``/``shard``/...) is
#: ``harness.other_share``.
LAYERS = (
    "sim", "net", "transport", "lb", "core", "detect", "faults",
    "metrics", "workload", "experiments", "serve",
)
#: Packages that must stay cold while ``trace`` and ``validate`` are off.
OBSERVERS = ("telemetry", "validate")

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


# --------------------------------------------------------------------- #
# Rungs
# --------------------------------------------------------------------- #


def _rung_sim_dispatch(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """256 self-rescheduling pooled timers: dispatch with no net
    allocation, no packets, no ports."""
    out = {}
    n_events = 40_000
    for engine, name in (("wheel", "sim.dispatch_ns_per_event"),
                         ("heap", "sim.dispatch_ns_per_event_heap")):
        sim = make_simulator(engine)
        budget = [n_events]
        # Spacing co-prime with the wheel's slot width, so timers scatter
        # over slots.
        delays = [(i * 131) % 4093 + 1 for i in range(256)]
        schedule = sim.schedule_pooled

        def tick(idx: int) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                schedule(delays[idx], tick, idx)

        for i in range(256):
            budget[0] -= 1
            schedule(delays[i], tick, i)
        fired, _, cal_s = watch.time(sim.run)
        out[name] = cal_s * 1e9 / fired
    return out


def _rung_sim_churn(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """Schedule, cancel every second one, run: the RTO arm/disarm
    pattern."""
    n_ops = 40_000
    sim = make_simulator()

    def churn() -> None:
        noop = lambda: None  # noqa: E731
        for i in range(n_ops):
            event = sim.schedule_pooled((i * 37) % 65_536 + 1, noop)
            if i & 1:
                event.cancel()
        sim.run()

    _, _, cal_s = watch.time(churn)
    return {"sim.churn_ns_per_op": cal_s * 1e9 / n_ops}


def _rung_net_port_chain(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """Pooled DATA packets host -> leaf -> spine -> leaf -> host with no
    transport above: unknown flow ids are dropped at the receiving host,
    so packets traverse, deliver and recycle."""
    n_packets, wave = 8_000, 64
    fabric = Fabric(make_simulator(), workloads._small_fabric(), RngStreams(1))
    sim, pool, topology = fabric.sim, fabric.packet_pool, fabric.topology
    half = topology.config.n_hosts // 2
    n_spines = topology.config.n_spines
    size = HEADER_BYTES + 1460
    sent = [0]

    def inject() -> None:
        base = sent[0]
        burst = min(wave, n_packets - base)
        for j in range(base, base + burst):
            fabric.send(pool.acquire(
                j, j % half, half + j % half, j, size, PacketKind.DATA,
                path_id=j % n_spines,
            ))
        sent[0] += burst
        if sent[0] < n_packets:
            # About one wave's serialization time: queues stay busy
            # without overflowing.
            sim.schedule_pooled(wave * 1_200, inject)

    inject()
    _, _, cal_s = watch.time(sim.run)
    stats = pool.stats()
    return {
        "net.port_chain_ns_per_pkt": cal_s * 1e9 / n_packets,
        "net.pool_reuse_frac": stats["reused"] / (stats["reused"] + stats["allocated"]),
    }


def _rung_net_fabric_build(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    n = 20
    topology = workloads._small_fabric()

    def build() -> None:
        for _ in range(n):
            Fabric(make_simulator(), topology, RngStreams(1))

    _, _, cal_s = watch.time(build)
    return {"net.fabric_build_ms": cal_s * 1e3 / n}


class _ConstantPath(LoadBalancer):
    """The cheapest possible decision, so the transport rungs measure
    the transport."""

    name = "suite-constant"

    def select_path(self, flow, wire_bytes):
        return 0


def _fabric_with_constant_path() -> Fabric:
    fabric = Fabric(make_simulator(), workloads._small_fabric(), RngStreams(1))
    for host in fabric.hosts:
        host.lb = _ConstantPath(host, fabric, fabric.rng.get("lb"))
    return fabric


def _rung_transport_data(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """One long DCTCP flow across the spine, alone on the fabric."""
    fabric = _fabric_with_constant_path()
    flow = DctcpFlow(fabric, 0, 4, 6_000 * 1460)
    fabric.register_flow(flow)
    flow.start()
    _, _, cal_s = watch.time(fabric.sim.run)
    if not flow.finished:
        raise RuntimeError("transport rung: the flow did not finish")
    return {"transport.ns_per_data_pkt": cal_s * 1e9 / flow.n_pkts}


def _rung_transport_setup(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """Construct, register, start and finish one-packet flows, 10 us
    apart."""
    n = 2_000
    fabric = _fabric_with_constant_path()
    done = [0]

    def count(flow) -> None:
        done[0] += 1

    fabric.on_flow_done = count

    def start(i: int) -> None:
        flow = DctcpFlow(fabric, i % 4, 4 + i % 4, 1_000)
        fabric.register_flow(flow)
        flow.start()

    def churn() -> None:
        for i in range(n):
            fabric.sim.schedule_at(i * 10_000, start, i)
        fabric.sim.run()

    _, _, cal_s = watch.time(churn)
    if done[0] != n:
        raise RuntimeError(f"transport rung: {done[0]}/{n} flows finished")
    return {"transport.flow_setup_us": cal_s * 1e6 / n}


def _rung_lb_install(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    n = 10
    out = {}
    for scheme in ("ecmp", "hermes"):
        fabrics = [
            Fabric(make_simulator(), workloads._small_fabric(), RngStreams(1))
            for _ in range(n)
        ]
        _, _, cal_s = watch.time(
            lambda: [install_lb(fabric, scheme) for fabric in fabrics]
        )
        out[f"lb.install_ms_{scheme}"] = cal_s * 1e3 / n
    return out


def _rung_metrics_fold(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    n = 30_000
    records = [
        FlowRecord(i, i % 4, 4 + i % 4, 1_000 + (i * 7919) % 100_000, i * 1_000,
                   20_000 + (i * 104_729) % 1_000_000, i % 3, 0)
        for i in range(n)
    ]

    def exact() -> None:
        stats = FctStats(records)
        stats.mean_ms(), stats.median_ms(), stats.p99_ms()

    def streaming() -> None:
        stats = StreamingFctStats()
        for r in records:
            stats.add(r.size_bytes, r.fct_ns, r.retransmissions, r.timeouts)

    _, _, exact_s = watch.time(exact)
    _, _, streaming_s = watch.time(streaming)
    return {
        "metrics.exact_fold_us_per_flow": exact_s * 1e6 / n,
        "metrics.streaming_add_us_per_flow": streaming_s * 1e6 / n,
    }


def _rung_workload_arrivals(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    n = 30_000
    generator = FlowGenerator(
        workloads._small_fabric(),
        distribution_by_name("web-search").scaled(0.002),
        0.5,
        RngStreams(1).get("workload"),
    )
    arrivals, _, cal_s = watch.time(generator.arrival_list, n)
    if len(arrivals) != n:
        raise RuntimeError("workload rung: short arrival list")
    return {"workload.arrivals_us_per_flow": cal_s * 1e6 / n}


def _trivial_cell(seed: int, n_flows: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        topology=workloads._small_fabric(), lb="ecmp", workload="web-search",
        load=0.5, n_flows=n_flows, seed=seed, size_scale=0.05, time_scale=0.05,
    )


def _rung_experiments_cell(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """What a cell costs before its first flow: fabric, scheme install,
    arrival list, summary."""
    n = 10
    _, _, cal_s = watch.time(
        lambda: [run_experiment(_trivial_cell(seed)) for seed in range(1, n + 1)]
    )
    return {"experiments.cell_fixed_ms": cal_s * 1e3 / n}


def _rung_experiments_summary(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """The per-cell costs of crossing a process boundary and the cache."""
    n = 50
    config = _trivial_cell(1, n_flows=60)
    result = run_experiment(config)
    cache = ResultCache(os.path.join(workdir, "rung-cache"))

    def roundtrip() -> None:
        for _ in range(n):
            pickle.loads(pickle.dumps(ResultSummary.from_result(result),
                                      protocol=pickle.HIGHEST_PROTOCOL))

    summary = ResultSummary.from_result(result)
    _, _, pickle_s = watch.time(roundtrip)
    _, _, key_s = watch.time(lambda: [config_key(config) for _ in range(n)])
    _, _, put_s = watch.time(lambda: [cache.put(config, summary) for _ in range(n)])
    hits, _, get_s = watch.time(lambda: [cache.get(config) for _ in range(n)])
    if any(hit is None for hit in hits):
        raise RuntimeError("experiments rung: cache miss after put")
    return {
        "experiments.summary_pickle_us": pickle_s * 1e6 / n,
        "experiments.config_key_us": key_s * 1e6 / n,
        "experiments.cache_put_ms": put_s * 1e3 / n,
        "experiments.cache_get_ms": get_s * 1e3 / n,
    }


def _rung_experiments_pool(watch: Stopwatch, workdir: str) -> Dict[str, float]:
    """A process pool for two trivial cells, less the cells themselves:
    what every service job with two misses pays."""
    configs = [_trivial_cell(1), _trivial_cell(2)]
    _, _, pooled_s = watch.time(
        lambda: run_grid(configs, jobs=os.cpu_count() or 1, use_cache=False)
    )
    _, _, inline_s = watch.time(
        lambda: run_grid(configs, jobs=1, use_cache=False)
    )
    return {"experiments.pool_spawn_ms": (pooled_s - inline_s) * 1e3}


RUNGS: Tuple[Callable[[Stopwatch, str], Dict[str, float]], ...] = (
    _rung_sim_dispatch,
    _rung_sim_churn,
    _rung_net_port_chain,
    _rung_net_fabric_build,
    _rung_transport_data,
    _rung_transport_setup,
    _rung_lb_install,
    _rung_metrics_fold,
    _rung_workload_arrivals,
    _rung_experiments_cell,
    _rung_experiments_summary,
    _rung_experiments_pool,
)

#: Repeats of every rung in a traced run; each metric is their median.
RUNG_REPEATS = 3


def run_rungs(watch: Stopwatch, workdir: str, repeats: int) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {}
    for _ in range(repeats):
        for rung in RUNGS:
            for name, value in rung(watch, workdir).items():
                samples.setdefault(name, []).append(value)
    return {name: median(values) for name, values in samples.items()}


# --------------------------------------------------------------------- #
# Ledger
# --------------------------------------------------------------------- #


def _layer_of(filename: str) -> str:
    if not filename.startswith(_PACKAGE_DIR):
        return "other"
    head = filename[len(_PACKAGE_DIR):].split(os.sep, 1)[0]
    return head if head in LAYERS or head in OBSERVERS else "other"


#: Builtins in which a thread is blocked, not busy: waiting for a lock,
#: a socket or a timer is not work of any layer, and with the service's
#: handful of threads it would drown the rest of the ledger.
_BLOCKED = frozenset((
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method time.sleep>",
    "<built-in method posix.waitpid>",
))


def ledger(profiles: List[cProfile.Profile]) -> Dict[str, float]:
    """Bucket the profiles' self time and call counts by layer."""
    seconds = {layer: 0.0 for layer in LAYERS + OBSERVERS + ("other",)}
    calls = dict.fromkeys(seconds, 0)
    for profile in profiles:
        profile.create_stats()
        for (filename, _, name), (_, n_calls, own_s, _, callers) in profile.stats.items():
            if filename != "~":
                layer = _layer_of(filename)
                seconds[layer] += own_s
                calls[layer] += n_calls
                continue
            if name in _BLOCKED:
                continue
            # A builtin: its time belongs to whoever called it.
            charged = 0.0
            for (caller_file, _, _), edge in callers.items():
                seconds[_layer_of(caller_file)] += edge[2]
                charged += edge[2]
            seconds["other"] += own_s - charged
    total = sum(seconds.values())
    if total <= 0:
        raise RuntimeError("ledger: the profile is empty")
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = seconds[layer] / total
        if layer not in ("metrics", "workload", "experiments"):
            out[f"{layer}.calls"] = float(calls[layer])
    out["harness.other_share"] = (
        seconds["other"] + sum(seconds[o] for o in OBSERVERS)
    ) / total
    out["observe.calls_when_off"] = float(sum(calls[o] for o in OBSERVERS))
    return out


class ThreadProfiler:
    """``cProfile`` watches one thread.  Inside this block every thread
    that starts gets a profiler of its own; read ``profiles`` once those
    threads have ended."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []

    def _bootstrap(self, frame, event, arg) -> None:
        if threading.current_thread().name.startswith("suite-"):
            # The load generator is not the program, and a profiled
            # calibration loop would misstate the host's speed.
            sys.setprofile(None)
            return
        profile = cProfile.Profile()
        self.profiles.append(profile)
        profile.enable()  # replaces this hook for the calling thread

    def __enter__(self) -> "ThreadProfiler":
        threading.setprofile(self._bootstrap)
        return self

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)


def _unprofile_forked_child() -> None:
    """A pool worker forked from a profiled thread inherits the live
    profiler; the ledger is the parent's alone, and the children must run
    at full speed."""
    sys.setprofile(None)
    threading.setprofile(None)


# --------------------------------------------------------------------- #
# Traced cell workloads
# --------------------------------------------------------------------- #

#: Cells re-run under the profiler, by workload.
LEDGER_CELLS = {
    "bulk_ecmp": ("dctcp@0.5", "tcp@0.5"),
    "scheme_grid": ("ecmp", "conga", "drill", "hermes", "reps",
                    "ecmp.fault", "hermes.fault"),
    "mice_churn": ("hermes.exact", "hermes.streaming"),
}


def _fabric_counters(results: List[Any]) -> Dict[str, float]:
    drops = {"overflow": 0, "linkdown": 0, "injected": 0}
    for result in results:
        for port in result.fabric.topology.all_ports():
            drops["overflow"] += port.drops_overflow
            drops["linkdown"] += port.drops_linkdown
            drops["injected"] += port.drops_injected
    return {f"net.drops_{cause}": float(n) for cause, n in drops.items()}


def _timeouts(stats: Any) -> int:
    if getattr(stats, "is_streaming", False):
        return stats.total_timeouts()
    return sum(r.timeouts for r in stats.records)


def _run_counters(results: List[Any]) -> Dict[str, float]:
    return {
        "sim.events": float(sum(r.events for r in results)),
        "transport.retx": float(sum(r.stats.total_retransmissions() for r in results)),
        "transport.timeouts": float(sum(_timeouts(r.stats) for r in results)),
        "lb.reroutes": float(sum(r.total_reroutes for r in results)),
    }


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _workload_specific(
    name: str, samples: Dict[str, Any], results: Dict[str, Any]
) -> Dict[str, float]:
    """The metrics only one cell workload has; 0 on the others."""
    out = {f"lb.{scheme}.{kind}": 0.0
           for scheme in scheme_names() for kind in ("cell_ms", "fault_cell_ms")}
    out.update({
        "faults.fault_overhead_x": 0.0,
        "metrics.streaming_overhead_x": 0.0,
        "metrics.digest_p99_rel_err": 0.0,
    })
    if name == "scheme_grid":
        clean = fault = 0.0
        for scheme in scheme_names():
            out[f"lb.{scheme}.cell_ms"] = samples[scheme].cal_s * 1e3
            out[f"lb.{scheme}.fault_cell_ms"] = samples[f"{scheme}.fault"].cal_s * 1e3
            clean += samples[scheme].cal_s
            fault += samples[f"{scheme}.fault"].cal_s
        out["faults.fault_overhead_x"] = fault / clean
    if name == "mice_churn":
        exact = sum(s.cal_s for n, s in samples.items() if n.endswith(".exact"))
        streaming = sum(s.cal_s for n, s in samples.items() if n.endswith(".streaming"))
        out["metrics.streaming_overhead_x"] = streaming / exact
        p99_exact = results["hermes.exact"].stats.p99_ms()
        p99_streaming = results["hermes.streaming"].stats.p99_ms()
        out["metrics.digest_p99_rel_err"] = abs(p99_streaming - p99_exact) / p99_exact
    return out


def trace_cells(args: Any, watch: Stopwatch) -> Dict[str, Any]:
    name = args.workload
    spec = workloads.CELL_WORKLOADS[name]
    # The traced run takes the first of the seed's draws.
    cells = {c.name: c for c in spec.passes(args.seed, args.smoke)[0]}
    workloads.warm_up(list(cells.values()), watch)

    # Plain pass over the whole workload, where a metric needs it.
    samples: Dict[str, Any] = {}
    results: Dict[str, Any] = {}
    if name != "bulk_ecmp":
        for cell in cells.values():
            samples[cell.name], results[cell.name] = workloads.run_cell(cell, watch)
            if samples[cell.name].error is not None:
                raise RuntimeError(f"{cell.name}: {samples[cell.name].error}")
    metrics = _workload_specific(name, samples, results)
    results.clear()

    ledger_cells = [cells[n] for n in LEDGER_CELLS[name]]
    profile = cProfile.Profile()

    def profiled(config: ExperimentConfig) -> Any:
        return profile.runcall(run_experiment, config)

    attempted = failed = 0
    notes: List[str] = []
    plain_s = traced_s = 0.0
    plain_results = []
    gc_before = _gc_collections()
    for cell in ledger_cells:
        sample, result = workloads.run_cell(cell, watch)
        plain_results.append(result)
        plain_s += sample.cal_s
    gc_after = _gc_collections()
    for cell, plain in zip(ledger_cells, plain_results):
        sample, result = workloads.run_cell(cell, watch, run=profiled)
        traced_s += sample.cal_s
        attempted += 2 * sample.flows
        if sample.error is not None or plain is None:
            failed += 2 * sample.flows
            notes.append(f"{cell.name}: did not run")
        elif sample.digest != harness.result_digest(plain):
            failed += 2 * sample.flows
            notes.append(f"{cell.name}: the profiled run changed the statistics")
        else:
            failed += 2 * (sample.flows - sample.finished)
    metrics.update(ledger([profile]))
    metrics.update(_fabric_counters(plain_results))
    counters = _run_counters(plain_results)
    metrics.update(counters)
    metrics["sim.events_per_s"] = counters["sim.events"] / plain_s
    metrics["harness.trace_overhead_x"] = traced_s / plain_s
    metrics["harness.gc_collections"] = float(gc_after - gc_before)
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "metrics": metrics}


# --------------------------------------------------------------------- #
# Traced serve_jobs
# --------------------------------------------------------------------- #

SERVE_NAMES = (
    "serve.http_rtt_ms_p50", "serve.queue_wait_ms_p50", "serve.run_ms_p50",
    "serve.result_fetch_ms_p50", "serve.dedup_latency_ms_p50",
    "serve.half_warm_latency_ms_p50", "serve.rejected",
)


def _serve_spans(run: Any, jobs: List[Any]) -> Dict[str, float]:
    rtts = []
    for _ in range(30):
        start = time.perf_counter()
        run.client.healthz()
        rtts.append((time.perf_counter() - start) * 1e3)
    good = [j for j in jobs if j.error is None]
    fresh = [j for j in good if j.kind == "fresh"]

    def p50(values: List[float]) -> float:
        if not values:
            raise RuntimeError("serve trace: a job kind has no sample")
        return quantile(values, 0.5)

    return {
        "serve.http_rtt_ms_p50": p50(rtts),
        "serve.queue_wait_ms_p50": p50([j.queue_wait_ms for j in fresh]),
        "serve.run_ms_p50": p50([j.run_ms for j in fresh]),
        "serve.result_fetch_ms_p50": p50([j.fetch_ms for j in good]),
        "serve.dedup_latency_ms_p50": p50([j.cal_ms for j in good if j.kind == "dup"]),
        "serve.half_warm_latency_ms_p50": p50(
            [j.cal_ms for j in good if j.kind == "half_warm"]
        ),
        "serve.rejected": float(
            sum(1 for j in jobs if j.error and j.error.startswith("429"))
        ),
    }


def trace_serve(args: Any, watch: Stopwatch) -> Dict[str, Any]:
    seconds = args.seconds * 0.3
    os.register_at_fork(after_in_child=_unprofile_forked_child)

    def loaded(cache: str) -> Tuple[Any, List[Any], float]:
        """A fresh service, loaded: the service, its jobs and the loop's
        length in calibrated seconds."""
        run = workloads.ServeRun(os.path.join(args.workdir, cache))
        try:
            run.warm_up(args.seed, args.smoke)
            jobs, scale, raw_s = run.load(args.seed, seconds, args.smoke)
        except BaseException:
            run.stop()
            raise
        return run, jobs, raw_s * scale

    gc_before = _gc_collections()
    run, jobs, loop_s = loaded("plain")
    try:
        metrics = _serve_spans(run, jobs)
        report = workloads.check_jobs(run, args.seed, args.smoke, jobs)
        results = [
            r for j in jobs if j.error is None and j.kind == "fresh"
            for r in run.service.result(j.job_id)
        ]
    finally:
        run.stop()
    gc_after = _gc_collections()
    with ThreadProfiler() as profiler:
        traced_run, traced_jobs, _ = loaded("traced")
        traced_run.stop()

    def fresh_p50(samples: List[Any]) -> float:
        return quantile(
            [j.cal_ms for j in samples if j.kind == "fresh" and j.error is None], 0.5
        )

    metrics.update(ledger(profiler.profiles))
    counters = _run_counters(results)
    metrics.update(counters)
    # Cells run in pool workers; their fabrics never reach this process.
    metrics.update({f"net.drops_{c}": 0.0 for c in ("overflow", "linkdown", "injected")})
    metrics["sim.events_per_s"] = counters["sim.events"] / loop_s
    metrics["harness.trace_overhead_x"] = fresh_p50(traced_jobs) / fresh_p50(jobs)
    metrics["harness.gc_collections"] = float(gc_after - gc_before)
    metrics.update(_workload_specific("serve_jobs", {}, {}))
    report.pop("payload_mb")
    report.pop("flows")
    report["metrics"] = metrics
    return report


def trace_workload(args: Any) -> Dict[str, Any]:
    """The ``--trace 1`` child: rungs, then the workload's ledger."""
    watch = Stopwatch()
    rungs = run_rungs(watch, args.workdir, 1 if args.smoke else RUNG_REPEATS)
    if args.workload == "serve_jobs":
        report = trace_serve(args, watch)
    else:
        report = trace_cells(args, watch)
        report["metrics"].update(dict.fromkeys(SERVE_NAMES, 0.0))
    report["metrics"].update(rungs)
    report["metrics"]["harness.host_speed_x"] = median(watch.speeds)
    return report
