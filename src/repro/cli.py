"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro run --lb hermes --workload web-search --load 0.6
    python -m repro compare --schemes ecmp,conga,hermes --asymmetric
    python -m repro probe-model --leaves 100 --spines 100

Every flag a command accepts is one it reads.  The commands that build
configs — ``run``, ``compare``, ``submit`` and ``trace run`` — take the
experiment-shape flags (``--topology`` ... ``--drain-ms``) plus
``--validate``; on top of those ``compare`` takes ``--jobs``, and
``run`` and ``compare`` take ``--no-cache``.  ``serve`` takes ``--jobs``
(the width of its one cell pool) and ``--no-cache``; ``cache``,
``jobs``, ``probe-model``, ``chaos``, ``golden``, ``trace summarize``
and ``trace export`` take only their own flags.
Tracing is ``trace run``.

``run``, ``compare`` and ``submit`` print their results through one
function, :func:`print_results`, from the per-cell dicts ``GET
/result`` serves, so a grid prints the same table run locally or by a
service.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import signal
import sys
import time
from typing import List, Optional, Sequence

from repro.core.probing import probe_overhead_model
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import cell_dict
from repro.experiments.parallel import ResultCache
from repro.experiments.report import format_table
from repro.experiments.scenarios import (
    bench_topology,
    failure_bench_topology,
    simulation_topology,
    testbed_topology,
)
from repro.faults import parse_schedule
from repro.lb.factory import SPRAYING_SCHEMES, scheme_names
from repro.net.topology import TopologyConfig
from repro.sim.engine import milliseconds

#: ``--topology`` presets.  ``--asymmetric`` applies to all but
#: failure-bench, ``--hosts-per-leaf`` only to bench and failure-bench.
TOPOLOGIES = {
    "bench": bench_topology,
    "testbed": testbed_topology,
    "simulation": simulation_topology,
    "failure-bench": failure_bench_topology,
}


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_seconds(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0 < parsed < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


#: Flags more than one command takes; each command adds, by name, the
#: ones it reads (see the module docstring for which).
_SHARED_FLAGS = {
    "--validate": dict(action="store_true",
                       help="run under the repro.validate invariant "
                            "layer (conservation, FIFO, clock, ECN, "
                            "path-state checks)"),
    "--jobs": dict(type=_positive_int, default=None,
                   help="cell worker processes (default: $REPRO_JOBS, "
                        "else all cores); compare runs in-process at 1, "
                        "serve keeps its one pool this wide"),
    "--no-cache": dict(action="store_true",
                       help="skip the on-disk result cache"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-shape flags plus ``--validate``: everything a command
    that builds configs reads."""
    parser.add_argument("--topology", choices=sorted(TOPOLOGIES), default="bench")
    parser.add_argument("--asymmetric", action="store_true",
                        help="the preset's asymmetric variant (not for "
                             "failure-bench)")
    parser.add_argument("--hosts-per-leaf", type=_positive_int, default=None,
                        metavar="N",
                        help="override the rack size of the bench / "
                             "failure-bench topologies")
    parser.add_argument("--workload", default="web-search",
                        choices=["web-search", "data-mining"])
    parser.add_argument("--load", type=float, default=0.6)
    parser.add_argument("--flows", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size-scale", type=float, default=0.2)
    parser.add_argument("--time-scale", type=float, default=None,
                        help="defaults to --size-scale")
    parser.add_argument("--transport", choices=["dctcp", "tcp"], default="dctcp")
    parser.add_argument("--faults", default=None, metavar="SCHEDULE",
                        help="time-scheduled fault plane, e.g. "
                             "'link_down@5ms:leaf=0,spine=1; "
                             "link_up@20ms:leaf=0,spine=1', "
                             "'flap@2ms:leaf=0,spine=0,period=4ms,"
                             "duty=0.5,until=30ms' or, for a switch "
                             "that malfunctions from the start, "
                             "'random_drop_start@0:spine=0,rate=0.02' "
                             "(times in ns/us/ms/s)")
    parser.add_argument("--detector", default=None, metavar="SPEC",
                        help="failure-detection plane (repro.detect), "
                             "e.g. 'transport', 'bfd:tx=100us,mult=3' "
                             "or 'fastest:transport+bfd'")
    parser.add_argument("--drain-ms", type=float, default=None,
                        help="cap the post-arrival drain (default 2000); "
                             "Fig. 16-style runs cap it so flows a "
                             "failure-blind scheme strands register as "
                             "unrecovered instead of limping home")
    _add_flags(parser, "--validate")


def _topology(args) -> TopologyConfig:
    name = args.topology
    if args.asymmetric and name == "failure-bench":
        raise ValueError(f"--asymmetric is not supported for topology {name!r}")
    build = TOPOLOGIES[name]
    topology = build(asymmetric=True) if args.asymmetric else build()
    if args.hosts_per_leaf is None:
        return topology
    if name not in ("bench", "failure-bench"):
        raise ValueError(
            f"--hosts-per-leaf is not supported for topology {name!r}"
        )
    return dataclasses.replace(topology, hosts_per_leaf=args.hosts_per_leaf)


def topology_flags(topology: TopologyConfig) -> List[str]:
    """The ``--topology`` flags :func:`_topology` rebuilds ``topology``
    from, or ``[]`` when no preset does."""
    for name, asymmetric, hosts_per_leaf in itertools.product(
        TOPOLOGIES, (False, True), (None, topology.hosts_per_leaf)
    ):
        args = argparse.Namespace(
            topology=name, asymmetric=asymmetric, hosts_per_leaf=hosts_per_leaf
        )
        try:
            if _topology(args) != topology:
                continue
        except ValueError:
            continue
        flags = [f"--topology {name}"]
        if asymmetric:
            flags.append("--asymmetric")
        if hosts_per_leaf is not None:
            flags.append(f"--hosts-per-leaf {hosts_per_leaf}")
        return flags
    return []


def _config_from_args(args, lb: str) -> ExperimentConfig:
    topology = _topology(args)
    extra = {"validate": True} if args.validate else {}
    if lb in SPRAYING_SCHEMES:
        extra["reorder_mask_us"] = (
            800.0 if topology.host_link_gbps <= 2.0 else 100.0
        )
    if args.drain_ms is not None:
        extra["extra_drain_ns"] = milliseconds(args.drain_ms)
    return ExperimentConfig(
        topology=topology,
        lb=lb,
        transport=args.transport,
        workload=args.workload,
        load=args.load,
        n_flows=args.flows,
        seed=args.seed,
        size_scale=args.size_scale,
        time_scale=(
            args.time_scale if args.time_scale is not None else args.size_scale
        ),
        faults=parse_schedule(args.faults) if args.faults else None,
        detector=args.detector,
        **extra,
    )


def _grid_from_args(args) -> List[ExperimentConfig]:
    """The configs ``run`` / ``compare`` / ``submit`` name: one per
    ``--schemes`` entry, or ``run``'s one ``--lb`` — or its ``--config``
    file, which ignores the shape flags but not ``--validate``."""
    if args.command != "run":
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        if not schemes:
            raise ValueError("no schemes given")
        return [_config_from_args(args, lb) for lb in schemes]
    if args.config is None:
        return [_config_from_args(args, args.lb)]
    with open(args.config) as fh:
        loaded = ExperimentConfig.from_dict(json.load(fh))
    if args.validate:
        loaded = dataclasses.replace(loaded, validate=True)
    return [loaded]


RESULT_HEADERS = [
    "scheme", "avg FCT (ms)", "small avg", "small p99", "large avg",
    "unfinished", "reroutes",
]

FAULT_HEADERS = ["scheme", "detect (ms)", "recover (ms)", "unrecovered"]


def _fault_ms(value_ns: Optional[int]) -> str:
    return "-" if value_ns is None else f"{value_ns / 1e6:.3f}"


def print_results(schemes: Sequence[str], cells: Sequence[dict]) -> int:
    """Print one results table from :func:`~repro.experiments.export.
    cell_dict`-shaped cells — plus the fault-plane table and timeline
    when the grid carried faults — and warn on stderr about each failed
    cell.  Returns the exit status: 1 if any cell failed."""
    rows, fault_rows, timeline, failed = [], [], (), []
    for lb, cell in zip(schemes, cells):
        if "error" in cell:
            failed.append((lb, cell["error"]))
            rows.append([lb] + [None] * (len(RESULT_HEADERS) - 1))
            fault_rows.append([lb] + [None] * (len(FAULT_HEADERS) - 1))
            continue
        fct, run = cell["fct_ms"], cell["run"]
        rows.append([
            lb, fct["mean"], fct["small_mean"], fct["small_p99"],
            fct["large_mean"], cell["flows"]["unfinished"],
            run["total_reroutes"],
        ])
        fault_rows.append([
            lb, _fault_ms(run["detection_ns"]), _fault_ms(run["recovery_ns"]),
            run["unrecovered_timeouts"],
        ])
        timeline = timeline or run["fault_timeline"]
    print(format_table(RESULT_HEADERS, rows))
    if timeline:
        print("\nfault plane:")
        print(format_table(FAULT_HEADERS, fault_rows))
        print("\nfault timeline:")
        for event in timeline:
            print(
                f"  t={event['t'] / 1e6:10.3f}ms  {event['action']:<18}"
                f"{event['target']:<22}{event['phase']}"
            )
    for lb, reason in failed:
        print(f"warning: cell '{lb}' failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


def cmd_run(args) -> int:
    """``run`` and ``compare``: a grid of schemes, one table (``run`` is
    the one-scheme grid, in-process)."""
    from repro.experiments.pool import run_cells

    configs = _grid_from_args(args)
    results = run_cells(
        configs, jobs=args.jobs, use_cache=False if args.no_cache else None
    )
    return print_results(
        [config.lb for config in configs],  # --config names its own lb
        [cell_dict(result) for result in results],
    )


def _parse_units(value: str, units: dict, what: str) -> float:
    """A number with an optional one-letter unit suffix, scaled."""
    text = value.strip().lower()
    factor = 1
    if text and text[-1] in units:
        factor = units[text[-1]]
        text = text[:-1]
    try:
        return float(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not {what}") from None


def _parse_bytes(value: str) -> int:
    """'500M', '2G', '100k', '12345' -> bytes."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
    return int(_parse_units(value.strip().rstrip("bB"), units,
                            "a size (try 12345, 500M, 2G)"))


def _parse_age(value: str) -> float:
    """'30d', '12h', '15m', '90s', '3600' -> seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    return _parse_units(value, units, "an age (try 3600, 90s, 12h, 30d)")


def cmd_cache(args) -> int:
    cache = ResultCache()
    if args.action == "prune":
        if args.max_bytes is None and args.max_age is None:
            print(
                "error: prune needs --max-bytes and/or --max-age",
                file=sys.stderr,
            )
            return 2
        removed, reclaimed = cache.prune(
            max_bytes=args.max_bytes, max_age_s=args.max_age
        )
        print(
            f"pruned {removed} entries, reclaimed {reclaimed} bytes "
            f"({reclaimed / 1024**2:.1f} MiB); "
            f"{cache.size()} entries ({cache.total_bytes()} bytes) remain"
        )
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.directory}")
    else:
        print(f"cache dir:   {cache.directory}")
        print(f"entries:     {cache.size()}")
        print(f"size:        {cache.total_bytes()} bytes")
        print(f"corruptions: {cache.corruption_count()} (healed)")
    return 0


def cmd_chaos(args) -> int:
    from repro.validate.fuzz import chaos_command, run_case, run_sweep, shrink_case

    with_faults = True if args.faults else None
    if args.seed is not None:
        # Single-case replay: the command every violation fingerprint
        # points back to.
        case = run_case(
            args.seed,
            raise_error=not args.shrink,
            with_faults=with_faults,
        )
        if case.ok:
            inv = case.invariants or {}
            print(
                f"seed {args.seed}: OK — {case.config.lb}/"
                f"{case.config.transport}, {case.events} events, "
                f"{inv.get('packets_sent', 0)} packets, "
                f"{inv.get('marks_checked', 0)} marks checked"
            )
            return 0
        print(f"seed {args.seed}: VIOLATION\n{case.error}", file=sys.stderr)
        if args.shrink:
            shrunk = shrink_case(case.config)
            print(
                f"\nshrunk after {shrunk.attempts} runs to:\n"
                f"{shrunk.config!r}\n{shrunk.error}",
                file=sys.stderr,
            )
        return 1

    seeds = range(args.base_seed, args.base_seed + args.cases)
    results = run_sweep(seeds, with_faults=with_faults)
    failures = [case for case in results if not case.ok]
    rows = [
        [case.seed, case.config.lb,
         case.config.faults.events[0].action if case.config.faults else "-",
         case.events, "ok" if case.ok else "VIOLATION"]
        for case in results
    ]
    print(format_table(["seed", "scheme", "faults", "events", "verdict"], rows))
    if failures:
        for case in failures:
            print(f"\n{case.error}", file=sys.stderr)
            replay = chaos_command(case.seed, with_faults)
            print(f"replay: {replay}", file=sys.stderr)
        return 1
    print(f"\n{len(results)} cases, all invariants held")
    return 0


def cmd_golden(args) -> int:
    from repro.validate import golden

    path = args.path or golden.DEFAULT_PATH
    actual = golden.compute_reference(detector=args.detector)
    if args.refresh:
        golden.write_reference(actual, path)
        print(f"golden reference written to {path}")
        return 0
    expected = golden.load_reference(path)
    if expected is None:
        print(
            f"no golden reference at {path}; create one with "
            "python -m repro golden --refresh",
            file=sys.stderr,
        )
        return 2
    mismatches = golden.compare_reference(expected, actual)
    if mismatches:
        print("golden grid drifted:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        print(
            "if the change is intentional: python -m repro golden --refresh",
            file=sys.stderr,
        )
        return 1
    print(f"golden grid matches {path} ({len(actual['cells'])} cells)")
    return 0


def cmd_trace_run(args) -> int:
    """Run one cell with the telemetry layer on and write a trace dir."""
    from repro.experiments.runner import run_experiment
    from repro.telemetry.export import write_jsonl, write_perfetto

    config = dataclasses.replace(
        _config_from_args(args, args.lb), trace=True
    )
    result = run_experiment(config)
    telemetry = result.telemetry
    os.makedirs(args.out, exist_ok=True)
    n_events = write_jsonl(
        os.path.join(args.out, "events.jsonl"), telemetry.tracer.iter_dicts()
    )
    n_audit = write_jsonl(
        os.path.join(args.out, "audit.jsonl"), telemetry.audit.iter_dicts()
    )
    meta = {
        "lb": config.lb,
        "workload": config.workload,
        "load": config.load,
        "n_flows": config.n_flows,
        "seed": config.seed,
        "sim_time_ns": result.sim_time_ns,
        "events_fired": result.events,
    }
    n_trace = write_perfetto(
        os.path.join(args.out, "perfetto.json"),
        telemetry.tracer.iter_dicts(),
        telemetry.audit.iter_dicts(),
        meta=meta,
    )
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(
            {"run": meta, "telemetry": telemetry.summary()}, fh, indent=2
        )
        fh.write("\n")
    print_results([config.lb], [cell_dict(result)])
    print(
        f"\ntrace dir: {args.out}\n"
        f"  events.jsonl   {n_events} records\n"
        f"  audit.jsonl    {n_audit} records\n"
        f"  perfetto.json  {n_trace} trace events "
        "(load at https://ui.perfetto.dev)\n"
        f"  summary.json"
    )
    if args.flow is not None:
        print(f"\ndecision history for flow {args.flow}:")
        for line in telemetry.audit.explain_flow(args.flow):
            print(f"  {line}")
    return 0


def cmd_trace_summarize(args) -> int:
    """Aggregate a trace directory written by ``trace run``."""
    from repro.telemetry.export import (
        explain_flow,
        read_jsonl,
        summarize_audit,
        summarize_events,
    )

    events_path = os.path.join(args.dir, "events.jsonl")
    audit_path = os.path.join(args.dir, "audit.jsonl")
    if not os.path.exists(events_path):
        print(f"no events.jsonl under {args.dir}", file=sys.stderr)
        return 2
    report = {"events": summarize_events(read_jsonl(events_path))}
    if os.path.exists(audit_path):
        report["audit"] = summarize_audit(read_jsonl(audit_path))
    print(json.dumps(report, indent=2))
    if args.flow is not None:
        if not os.path.exists(audit_path):
            print(f"no audit.jsonl under {args.dir}", file=sys.stderr)
            return 2
        print(f"\ndecision history for flow {args.flow}:")
        for line in explain_flow(read_jsonl(audit_path), args.flow):
            print(f"  {line}")
    return 0


def cmd_trace_export(args) -> int:
    """Re-export a trace directory as Perfetto JSON or CSV."""
    from repro.telemetry.export import read_jsonl, write_csv, write_perfetto

    events_path = os.path.join(args.dir, "events.jsonl")
    audit_path = os.path.join(args.dir, "audit.jsonl")
    if not os.path.exists(events_path):
        print(f"no events.jsonl under {args.dir}", file=sys.stderr)
        return 2
    if args.format == "perfetto":
        out = args.out or os.path.join(args.dir, "perfetto.json")
        audit = (
            read_jsonl(audit_path) if os.path.exists(audit_path) else ()
        )
        count = write_perfetto(out, read_jsonl(events_path), audit)
        print(f"{out}: {count} trace events")
    else:
        out = args.out or os.path.join(args.dir, "events.csv")
        count = write_csv(out, read_jsonl(events_path))
        print(f"{out}: {count} rows")
    return 0


def cmd_serve(args) -> int:
    """Run the always-on experiment service until interrupted — by
    Ctrl-C or by ``SIGTERM`` (plain ``kill``, systemd, a CI step), which
    stop it the same way: worker processes shut down, port released."""
    from repro.serve import serve

    service = serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_capacity=args.queue_capacity,
        use_cache=False if args.no_cache else None,
        default_cell_timeout_s=args.cell_timeout,
    )
    host, port = service.http_address
    print(f"repro service on http://{host}:{port}")
    print(
        f"  jobs={service.pool.cells.width} "
        f"queue_capacity={args.queue_capacity}\n"
        "  POST /submit   GET /jobs /status/<id> /result/<id>\n"
        "  GET  /healthz  /metrics   /events (SSE)\n"
        "Ctrl-C or SIGTERM to stop.",
        flush=True,
    )
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping...")
        service.stop()
    return 0


def cmd_submit(args) -> int:
    """Submit the grid ``compare`` would run to a service; print the
    table ``compare`` would print."""
    from repro.serve import BackpressureError, ServiceClient, ServiceError

    configs = _grid_from_args(args)
    client = ServiceClient(args.url)
    try:
        job = client.submit(
            configs,
            priority=args.priority,
            cell_timeout_s=args.cell_timeout,
        )
    except BackpressureError as exc:
        print(f"rejected (backpressure): {exc.message}", file=sys.stderr)
        return 3
    job_id = job["job_id"]
    dedup = " (deduplicated)" if job.get("deduplicated") else ""
    print(f"submitted {job_id}{dedup}: {len(configs)} cells")
    if args.no_wait:
        return 0
    status = client.wait(job_id, timeout_s=args.timeout)
    if status["state"] != "done":
        print(
            f"{job_id}: {status['state']}"
            + (f" — {status['error']}" if status.get("error") else ""),
            file=sys.stderr,
        )
    try:  # a failed job still has the cells that finished
        cells = client.result(job_id)["cells"]
    except ServiceError:
        return 1
    return print_results([config.lb for config in configs], cells)


def cmd_jobs(args) -> int:
    """List a service's jobs (or one job's status / event stream)."""
    from repro.serve import ServiceClient

    client = ServiceClient(args.url)
    if args.watch:
        for event in client.events(job_id=args.watch, timeout_s=args.timeout):
            print(
                f"{event.get('kind', 'event'):<10} "
                f"{event.get('event', event.get('state', '')):<10} "
                + ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(event.items())
                    if k not in ("kind", "event")
                )
            )
        return 0
    if args.job:
        print(json.dumps(client.status(args.job), indent=2, sort_keys=True))
        return 0
    rows = [
        [
            j["job_id"],
            j["state"],
            j["cells"],
            j["priority"],
            j["error"] or "-",
        ]
        for j in client.jobs()
    ]
    print(format_table(["job", "state", "cells", "priority", "error"], rows))
    return 0


def cmd_probe_model(args) -> int:
    model = probe_overhead_model(
        n_leaves=args.leaves,
        n_spines=args.spines,
        hosts_per_leaf=args.hosts_per_leaf,
        link_gbps=args.link_gbps,
        probe_interval_us=args.interval_us,
    )
    rows = [
        [name, vals["visibility"], vals["overhead"]]
        for name, vals in model.items()
    ]
    print(format_table(["scheme", "visibility", "overhead (x capacity)"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hermes (SIGCOMM 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment, in-process")
    run_parser.add_argument("--lb", default="hermes", metavar="SCHEME",
                            help="load-balancing scheme (default: hermes; "
                                 "one of: " + ", ".join(scheme_names()) + ")")
    run_parser.add_argument("--config", default=None, metavar="FILE",
                            help="load the full experiment spec from a "
                                 "JSON file (ExperimentConfig.to_dict "
                                 "format); shape flags are ignored, "
                                 "--validate still applies")
    _add_run_arguments(run_parser)
    _add_flags(run_parser, "--no-cache")
    run_parser.set_defaults(fn=cmd_run, jobs=1)

    compare_parser = sub.add_parser("compare", help="race several schemes")
    compare_parser.add_argument("--schemes", default="ecmp,conga,hermes",
                                help="comma-separated schemes to race "
                                     "(default: ecmp,conga,hermes; known: "
                                     + ", ".join(scheme_names()) + ")")
    _add_run_arguments(compare_parser)
    _add_flags(compare_parser, "--jobs", "--no-cache")
    compare_parser.set_defaults(fn=cmd_run)

    probe_parser = sub.add_parser(
        "probe-model", help="Table 6 probing overhead model"
    )
    probe_parser.add_argument("--leaves", type=int, default=100)
    probe_parser.add_argument("--spines", type=int, default=100)
    probe_parser.add_argument("--hosts-per-leaf", type=int, default=100)
    probe_parser.add_argument("--link-gbps", type=float, default=10.0)
    probe_parser.add_argument("--interval-us", type=float, default=500.0)
    probe_parser.set_defaults(fn=cmd_probe_model)

    cache_parser = sub.add_parser(
        "cache", help="inspect, clear or prune the experiment result cache",
    )
    cache_parser.add_argument("action", nargs="?", choices=["prune"],
                              default=None,
                              help="'prune' garbage-collects by size/age "
                                   "(requires --max-bytes and/or --max-age)")
    cache_parser.add_argument("--clear", action="store_true",
                              help="delete all cached results")
    cache_parser.add_argument("--max-bytes", type=_parse_bytes, default=None,
                              metavar="SIZE",
                              help="prune oldest entries until the cache "
                                   "fits (e.g. 500M, 2G)")
    cache_parser.add_argument("--max-age", type=_parse_age, default=None,
                              metavar="AGE",
                              help="prune entries older than this "
                                   "(e.g. 12h, 30d, 3600)")
    cache_parser.set_defaults(fn=cmd_cache)

    serve_parser = sub.add_parser(
        "serve", help="run the always-on experiment service (HTTP + SSE)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument("--queue-capacity", type=_positive_int,
                              default=64,
                              help="queued-job bound; submissions past it "
                                   "are rejected with backpressure")
    serve_parser.add_argument("--cell-timeout", type=_positive_seconds,
                              default=None, metavar="SECONDS",
                              help="default per-cell budget for jobs that "
                                   "set none")
    _add_flags(serve_parser, "--jobs", "--no-cache")
    serve_parser.set_defaults(fn=cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a scheme grid to a running service",
    )
    submit_parser.add_argument("--url", default="http://127.0.0.1:8642",
                               help="service base URL")
    submit_parser.add_argument("--schemes", default="ecmp,conga,hermes",
                               help="comma-separated schemes (known: "
                                    + ", ".join(scheme_names()) + ")")
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="higher runs first")
    submit_parser.add_argument("--cell-timeout", type=_positive_seconds,
                               default=None, metavar="SECONDS",
                               help="per-cell budget for this job")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="return after enqueueing instead of "
                                    "waiting for the results table")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="wait budget in seconds")
    _add_run_arguments(submit_parser)
    submit_parser.set_defaults(fn=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="list a service's jobs, or watch one via SSE",
    )
    jobs_parser.add_argument("--url", default="http://127.0.0.1:8642",
                             help="service base URL")
    jobs_parser.add_argument("--job", default=None, metavar="JOB_ID",
                             help="show one job's status JSON")
    jobs_parser.add_argument("--watch", default=None, metavar="JOB_ID",
                             help="stream one job's events (SSE) until it "
                                  "finishes")
    jobs_parser.add_argument("--timeout", type=float, default=600.0,
                             help="SSE read budget in seconds")
    jobs_parser.set_defaults(fn=cmd_jobs)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run seeded chaos scenarios under full invariant checking",
    )
    chaos_parser.add_argument("--seed", type=int, default=None,
                              help="replay a single case by seed")
    chaos_parser.add_argument("--cases", type=_positive_int, default=50,
                              help="number of cases in sweep mode")
    chaos_parser.add_argument("--base-seed", type=int, default=1,
                              help="first seed of the sweep")
    chaos_parser.add_argument("--shrink", action="store_true",
                              help="on violation, shrink to a minimal "
                                   "failing config")
    chaos_parser.add_argument("--faults", action="store_true",
                              help="attach a randomized time-scheduled "
                                   "fault schedule to every case")
    chaos_parser.set_defaults(fn=cmd_chaos)

    golden_parser = sub.add_parser(
        "golden",
        help="check (or refresh) the golden reference-grid statistics",
    )
    golden_parser.add_argument("--refresh", action="store_true",
                               help="recompute and overwrite the "
                                    "committed reference")
    golden_parser.add_argument("--path", default=None,
                               help="reference JSON location (default: "
                                    "tests/golden/reference_grid.json)")
    golden_parser.add_argument("--detector", default=None, metavar="SPEC",
                               help="attach a repro.detect spec to every "
                                    "cell; the passive one (transport) "
                                    "must reproduce the committed "
                                    "reference bit-for-bit")
    golden_parser.set_defaults(fn=cmd_golden)

    trace_parser = sub.add_parser(
        "trace",
        help="run with the telemetry layer and inspect/export the trace",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run", help="run one cell with tracing on, write a trace directory",
    )
    trace_run.add_argument("--lb", default="hermes", metavar="SCHEME",
                           help="load-balancing scheme (default: hermes; "
                                "one of: " + ", ".join(scheme_names()) + ")")
    _add_run_arguments(trace_run)
    trace_run.add_argument("--out", default="trace-out",
                           help="trace directory (created if missing)")
    trace_run.add_argument("--flow", type=int, default=None,
                           help="also print this flow's decision history")
    trace_run.set_defaults(fn=cmd_trace_run)

    trace_summarize = trace_sub.add_parser(
        "summarize", help="aggregate an existing trace directory",
    )
    trace_summarize.add_argument("--dir", default="trace-out")
    trace_summarize.add_argument("--flow", type=int, default=None,
                                 help="print this flow's decision history")
    trace_summarize.set_defaults(fn=cmd_trace_summarize)

    trace_export = trace_sub.add_parser(
        "export", help="re-export a trace directory (perfetto or csv)",
    )
    trace_export.add_argument("--dir", default="trace-out")
    trace_export.add_argument("--format", choices=["perfetto", "csv"],
                              default="perfetto")
    trace_export.add_argument("--out", default=None,
                              help="output file (default: inside --dir)")
    trace_export.set_defaults(fn=cmd_trace_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # Bad knob values (e.g. a garbage REPRO_JOBS) get a clean
        # one-line error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        url = getattr(args, "url", None)
        if url is None:
            raise
        # submit / jobs with no daemon at --url: one line, no traceback.
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
