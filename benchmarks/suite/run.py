"""The repo's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/suite/run.py                       # all four, untraced
    python3 benchmarks/suite/run.py --trace               # per-layer ledger
    python3 benchmarks/suite/run.py --workload mice_churn --seed 7
    python3 benchmarks/suite/run.py --repeat 10 --out A.json   # for compare.py

Each workload runs in a child process of its own, so set-up time, CPU
time and peak RSS are per workload.  Every run checks its simulated
statistics (see README.md, "Correctness") and the command exits
non-zero when any operation failed.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

import harness
from harness import DEFAULT_SEED, quantile

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Jobs per client whose cells ``--record-expected`` pins.
SERVE_PINNED_JOBS = 10
#: A child gets this long before it is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170.0


# --------------------------------------------------------------------- #
# Child side: one workload, measured
# --------------------------------------------------------------------- #


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _setup_seconds(spawned_at: float) -> float:
    """Spawn to now, in calibrated seconds."""
    return (time.time() - spawned_at) * harness.host_speed()


def _cell_metrics(
    spec: Any, samples: Dict[str, List[Any]], cpu_per_wall: float
) -> Dict[str, Any]:
    """End-to-end numbers of a cell workload: each cell's cost per
    simulated packet transmission - median over the repeats of a draw,
    mean over the draws - applied to the reference input."""
    ref_s: Dict[str, float] = {}
    for name, reps in samples.items():
        by_draw: Dict[int, List[float]] = {}
        for sample in reps:
            if sample.error is None and sample.transmissions:
                by_draw.setdefault(sample.draw, []).append(
                    sample.cal_s / sample.transmissions
                )
        if not by_draw:
            raise RuntimeError(f"{name}: no sample to take a cost from")
        unit_cost = sum(median(costs) for costs in by_draw.values()) / len(by_draw)
        ref_s[name] = spec.ref_transmissions * unit_cost
    wall_s = sum(ref_s.values())
    n = len(ref_s)
    return {
        "wall_s": wall_s,
        "cpu_s": wall_s * cpu_per_wall,
        "sim_mb_per_s": n * spec.ref_mb / wall_s,
        "flows_per_s": n * spec.ref_flows / wall_s,
        "jobs_per_s": n / wall_s,
        "job_latency_ms_p50": quantile(list(ref_s.values()), 0.5) * 1e3,
        "job_latency_ms_p90": quantile(list(ref_s.values()), 0.9) * 1e3,
        "cells": {
            name: {"cost_s": ref_s[name], "count": len(samples[name])}
            for name in samples
        },
    }


def measure_cells(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads

    spec = workloads.CELL_WORKLOADS[args.workload]
    passes = spec.passes(args.seed, args.smoke)
    watch = harness.Stopwatch()
    warm = workloads.warm_up(passes[0], watch)
    setup_s = _setup_seconds(args.spawned_at)
    if args.child == "setup":
        return {"setup_s": setup_s}
    cpu_start, wall_start = _cpu_seconds(), time.perf_counter()
    samples = workloads.time_cells(passes, args.seconds, watch)
    cpu_per_wall = (_cpu_seconds() - cpu_start) / (
        time.perf_counter() - wall_start
    )
    report = workloads.check_cells(args.workload, args.seed, args.smoke, samples)
    report["attempted"] += warm.flows
    report["failed"] += warm.flows - warm.finished
    report["metrics"] = _cell_metrics(spec, samples, cpu_per_wall)
    report["metrics"]["setup_s"] = setup_s
    report["host_speed_x"] = median(watch.speeds)
    return report


def measure_serve(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads

    run = workloads.ServeRun(args.workdir)
    try:
        run.warm_up(args.seed, args.smoke)
        setup_s = _setup_seconds(args.spawned_at)
        if args.child == "setup":
            return {"setup_s": setup_s}
        cpu_start = _cpu_seconds()
        jobs, scale, raw_s = run.load(args.seed, args.seconds, args.smoke)
        cpu_per_wall = (_cpu_seconds() - cpu_start) / raw_s
        report = workloads.check_jobs(run, args.seed, args.smoke, jobs)
    finally:
        run.stop()
    fresh = [
        j.cal_ms for j in jobs if j.kind == "fresh" and j.error is None
    ]
    if not fresh:
        raise RuntimeError("no fresh job completed")
    done = sum(1 for j in jobs if j.error is None)
    cal_s = raw_s * scale
    jobs_per_s = done / cal_s
    wall_s = workloads.SERVE_REF_JOBS / jobs_per_s
    report["metrics"] = {
        "wall_s": wall_s,
        "cpu_s": wall_s * cpu_per_wall,
        "sim_mb_per_s": report.pop("payload_mb") / cal_s,
        "flows_per_s": report.pop("flows") / cal_s,
        "jobs_per_s": jobs_per_s,
        "job_latency_ms_p50": quantile(fresh, 0.5),
        "job_latency_ms_p90": quantile(fresh, 0.9),
        "setup_s": setup_s,
        "cells": {"fresh": {"cost_s": median(fresh) / 1e3, "count": len(fresh)}},
    }
    report["host_speed_x"] = run.host_speed
    report["peak_rss_mb"] = run.peak_rss_mb
    return report


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this process and print the report as the
    last line of standard output."""
    harness.add_src_to_path()
    if args.trace:
        import layers

        report = layers.trace_workload(args)
    elif args.workload == "serve_jobs":
        report = measure_serve(args)
    else:
        report = measure_cells(args)
    report.setdefault(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(report))
    return 0


# --------------------------------------------------------------------- #
# Parent side: spawn, collect, report
# --------------------------------------------------------------------- #


def _spawn(mode: str, args: argparse.Namespace, workload: str, seed: int,
           workdir: str) -> Dict[str, Any]:
    """Run one child to completion and parse its report.  The child
    leads its own process group, so a timeout takes its pool workers
    down with it."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        # A directory of its own: a second set-up must not find the
        # first one's result cache.
        "--workdir", tempfile.mkdtemp(dir=workdir),
        "--spawned-at", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=harness.scrubbed_env(),
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s")
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(
    args: argparse.Namespace, workload: str, seed: int, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """One run of one workload: set-up children, then the measured
    child; returns the contract's result object plus detail."""
    workdir = tempfile.mkdtemp(prefix=".work-", dir=harness.SUITE_DIR)
    try:
        setups = []
        if not args.trace:
            setups = [
                _spawn("setup", args, workload, seed, workdir)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
        report = _spawn("measure", args, workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = report["metrics"]
    if not args.trace:
        measured["setup_s"] = median(setups + [measured["setup_s"]])
        measured["peak_rss_mb"] = report["peak_rss_mb"]
    cells = measured.pop("cells", None)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(measured) != set(units):
        raise RuntimeError(
            f"{workload}: measured and declared metrics differ: "
            f"{sorted(set(measured) ^ set(units))}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": units[name]}
            for name in units
        },
        "notes": report["notes"],
        "cells": cells,
        "host_speed_x": report.get("host_speed_x"),
    }


def print_result(result: Dict[str, Any]) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"trace={result['trace']}  failed {result['failed']}/"
        f"{result['attempted']} (failed_frac "
        f"{result['failed'] / result['attempted']:.6f})"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    if result["host_speed_x"] is not None:
        print(f"  (host speed {result['host_speed_x']:.3f} x nominal while measuring)")
    for name, cell in (result["cells"] or {}).items():
        print(f"    cell {name:24s} {cell['cost_s']:.4f} s  n={cell['count']}")
    for note in result["notes"]:
        print(f"  ! {note}")


def stamp() -> Dict[str, Any]:
    from repro.experiments.parallel import code_version

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "code_version": code_version(),
        "loadavg": list(os.getloadavg()),
        "time": time.time(),
    }


def record_expected(args: argparse.Namespace) -> int:
    """Pin the default seed's digests into ``expected.json``."""
    import workloads

    watch = harness.Stopwatch()
    expected: Dict[str, Dict[str, str]] = {}
    for name, spec in workloads.CELL_WORKLOADS.items():
        expected[name] = {}
        for draw, cells in enumerate(spec.passes(DEFAULT_SEED, False)):
            for cell in cells:
                sample = workloads.run_cell(cell, watch)[0]
                if sample.error is not None or sample.finished != sample.flows:
                    raise RuntimeError(f"{name}/{cell.name}#{draw} does not run clean")
                expected[name][f"{cell.name}#{draw}"] = sample.digest
    expected["serve_jobs"] = {}
    for client in range(workloads.N_CLIENTS):
        for index in range(SERVE_PINNED_JOBS):
            for config in workloads.job_configs(DEFAULT_SEED, client, index, False)[1]:
                expected["serve_jobs"][f"{config.lb}.s{config.seed}"] = (
                    harness.result_digest(workloads.run_experiment(config))
                )
    with open(harness.EXPECTED_JSON, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.EXPECTED_JSON}")
    return 0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for test_suite.py")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", default=None,
                        help="write every run's result to this JSON file")
    parser.add_argument("--record-expected", action="store_true",
                        help="pin the default seed's digests")
    parser.add_argument("--child", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    harness.add_src_to_path()
    import workloads  # also proves ``repro`` is importable before any run

    if args.record_expected:
        return record_expected(args)
    spec = harness.load_benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOAD_NAMES)
    for name in names:
        if name not in workloads.WORKLOAD_NAMES:
            raise SystemExit(f"unknown workload {name!r}; known: {workloads.WORKLOAD_NAMES}")
    report = {"start": stamp(), "runs": []}
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            result = run_workload(args, name, seed, spec)
            print_result(result)
            report["runs"].append(result)
    report["end"] = stamp()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    runs = report["runs"]
    last = runs[-1]
    print(
        f"cpu_count={report['start']['cpu_count']} python={report['start']['python']} "
        f"code_version={report['start']['code_version']} "
        f"loadavg {report['start']['loadavg'][0]:.2f}->{report['end']['loadavg'][0]:.2f}"
    )
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": last["metrics"],
    }))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
