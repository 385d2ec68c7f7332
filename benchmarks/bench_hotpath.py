"""Layered hot-path microbenchmark: where do the cycles go?

``BENCH_core.json`` answers "how fast is the whole thing"; this bench
answers "which layer pays for it".  Three layers, measured separately so
a regression shows up where it happened:

* **engine** — pure event dispatch (self-rescheduling timer set) and
  schedule/cancel churn, per engine (``heap`` vs ``wheel``).  No
  packets, no ports.  Both call ``schedule_pooled``, which since PR 18
  is an alias of ``schedule``: this is the **handle path** (an ``Event``
  per arming) that timers take, 0.1 % of a run's events — the
  per-packet path goes through ``post`` and is measured by the next
  layer.  The phase keeps the call because it shares the shape of
  ``benchmarks/suite``'s ``sim`` rungs and goes away with this file.
* **port_chain** — pooled DATA packets injected straight into the
  fabric (no transport, no load balancer): serialization, queueing,
  propagation, delivery, recycle.  Isolates the
  ``OutputPort``/``Fabric`` fast path plus the packet pool.
* **end_to_end** — a small experiment grid under ``heap`` and
  ``wheel``, with allocation counts (``sys``/``gc`` deltas and
  the pool counters) around the default-engine run.

Results land in ``BENCH_hotpath.json`` at the repo root.  CI runs
``--smoke`` and gates the end-to-end wheel throughput against the
*committed* ``BENCH_hotpath.json`` (same grid shape, so the ratio is
meaningful; ``BENCH_core.json`` is also accepted via its
``events_per_sec_wheel`` key)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke \\
        --gate-baseline BENCH_hotpath.json --gate-ratio 0.95

How to read the numbers: ``engine.*.events_per_sec`` bounds everything
below it; ``port_chain.events_per_sec`` minus the engine rate is the
per-packet fabric cost; ``end_to_end`` adds transports/LB agents.  The
``allocation`` block should show ``blocks_per_event`` near zero —
packets come from the pool and a posted event is one tuple that dies at
dispatch, so a steady-state run retains almost nothing per event — and
``pool.reused`` far above ``pool.allocated``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(__file__))  # for direct execution

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.net.fabric import Fabric
from repro.net.packet import HEADER_BYTES, PacketKind
from repro.sim.engine import make_simulator
from repro.sim.rng import RngStreams

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_hotpath.json",
)

#: End-to-end grid.  Smoke keeps the full scheme mix (so the committed
#: baseline and the CI measurement have the same per-event cost profile)
#: and drops one load + most flows.
E2E_SCHEMES = ("ecmp", "letflow", "conga", "hermes")
E2E_LOADS = (0.5, 0.7)
SMOKE_SCHEMES = E2E_SCHEMES
SMOKE_LOADS = (0.5,)


# --------------------------------------------------------------------- #
# Layer 1: engine only
# --------------------------------------------------------------------- #


def _best_of(repeats: int, fn):
    """Run ``fn`` ``repeats`` times, keep the lowest-wall-clock report
    (least perturbed by whatever else the machine is doing)."""
    best = None
    for _ in range(repeats):
        report = fn()
        if best is None or report["wall_s"] < best["wall_s"]:
            best = report
    return best


def bench_engine_dispatch(engine: str, n_dispatch: int, timers: int = 256) -> Dict:
    """Self-rescheduling timer set: every fire schedules the next, via
    ``schedule_pooled`` — since PR 18 the plain handle path, one
    ``Event`` per arming (see the module docstring)."""
    sim = make_simulator(engine)
    budget = [n_dispatch]
    # Deterministic pseudo-random spacing, co-prime with the wheel slot
    # width so events scatter across slots instead of resonating.
    delays = [(i * 131) % 4093 + 1 for i in range(timers)]
    schedule = sim.schedule_pooled

    def tick(idx: int) -> None:
        if budget[0] > 0:
            budget[0] -= 1
            schedule(delays[idx], tick, idx)

    for i in range(timers):
        budget[0] -= 1
        schedule(delays[i], tick, i)
    start = time.perf_counter()
    fired = sim.run()
    wall = time.perf_counter() - start
    return {
        "events": fired,
        "wall_s": round(wall, 4),
        "events_per_sec": round(fired / wall, 1),
    }


def bench_engine_churn(engine: str, n_ops: int) -> Dict:
    """Schedule/cancel churn: the RTO re-arm pattern.  Half the events
    are cancelled before they fire; the wheel must purge them lazily
    rather than letting slots grow."""
    sim = make_simulator(engine)
    noop = lambda: None
    start = time.perf_counter()
    for i in range(n_ops):
        event = sim.schedule_pooled((i * 37) % 65_536 + 1, noop)
        if i & 1:
            event.cancel()
    fired = sim.run()
    wall = time.perf_counter() - start
    report = {
        "ops": n_ops,
        "fired": fired,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(n_ops / wall, 1),
    }
    if hasattr(sim, "wheel_stats"):
        report["purged"] = sim.wheel_stats()["purged"]
    return report


# --------------------------------------------------------------------- #
# Layer 2: port chain only
# --------------------------------------------------------------------- #


def bench_port_chain(n_packets: int, wave: int = 64) -> Dict:
    """Pooled DATA packets straight through the fabric: host → leaf →
    spine → leaf → host, no transport above.  Unknown flow ids are
    silently dropped at the receiving host, so the packets simply
    traverse, deliver and recycle."""
    topology = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)
    fabric = Fabric(make_simulator(), topology, RngStreams(1))
    sim = fabric.sim
    pool = fabric.packet_pool
    n_spines = topology.n_spines
    hosts = topology.n_hosts
    sent = [0]
    size = HEADER_BYTES + 1460

    def inject() -> None:
        base = sent[0]
        burst = min(wave, n_packets - base)
        for i in range(burst):
            j = base + i
            src = j % (hosts // 2)
            dst = hosts // 2 + (j % (hosts // 2))
            packet = pool.acquire(
                j, src, dst, j, size, PacketKind.DATA,
                path_id=j % n_spines,
            )
            fabric.send(packet)
        sent[0] += burst
        if sent[0] < n_packets:
            # Next wave after roughly one wave's serialization time, so
            # queues stay busy without overflowing the buffers.
            sim.schedule_pooled(wave * 1_200, inject)

    inject()
    start = time.perf_counter()
    fired = sim.run()
    wall = time.perf_counter() - start
    stats = pool.stats()
    return {
        "packets": n_packets,
        "events": fired,
        "wall_s": round(wall, 4),
        "events_per_sec": round(fired / wall, 1),
        "packets_per_sec": round(n_packets / wall, 1),
        "pool": stats,
        "pool_reuse_fraction": round(
            stats["reused"] / max(1, stats["reused"] + stats["allocated"]), 4
        ),
    }


# --------------------------------------------------------------------- #
# Layer 3: end to end
# --------------------------------------------------------------------- #


def _e2e_grid(smoke: bool, n_flows: int) -> List[ExperimentConfig]:
    topology = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)
    schemes = SMOKE_SCHEMES if smoke else E2E_SCHEMES
    loads = SMOKE_LOADS if smoke else E2E_LOADS
    return [
        ExperimentConfig(
            topology=topology,
            lb=lb,
            workload="web-search",
            load=load,
            n_flows=n_flows,
            seed=1,
            size_scale=0.05,
            time_scale=0.05,
        )
        for lb in schemes
        for load in loads
    ]


def bench_end_to_end(smoke: bool, n_flows: int, repeats: int = 3) -> Dict:
    """Best-of-``repeats`` per engine: the minimum wall clock is the
    least-perturbed measurement on a shared machine (standard
    microbenchmark practice), and every repeat's records are still
    cross-checked for bit-identity."""
    configs = _e2e_grid(smoke, n_flows)
    report: Dict = {
        "grid_cells": len(configs),
        "n_flows": n_flows,
        "repeats": repeats,
    }
    reference_records = None
    # Untimed warm-up (scheme imports, method caches) — same reasoning
    # as bench_perf_core.measure.
    run_experiment(configs[0])
    for scheduler in ("heap", "wheel"):
        best_wall = None
        total_events = 0
        pool = None
        allocation = None
        for _ in range(repeats):
            runs = []
            total_events = 0
            gc.collect()
            blocks_before = sys.getallocatedblocks()
            gc_before = sum(s["collections"] for s in gc.get_stats())
            start = time.perf_counter()
            for config in configs:
                result = run_experiment(
                    dataclasses.replace(config, scheduler=scheduler)
                )
                total_events += result.events
                runs.append(result)
            wall = time.perf_counter() - start
            blocks_after = sys.getallocatedblocks()
            gc_after = sum(s["collections"] for s in gc.get_stats())
            records = [r.stats.records for r in runs]
            if reference_records is None:
                reference_records = records
            else:
                assert records == reference_records, (
                    f"{scheduler} diverged from heap records"
                )
            if best_wall is None or wall < best_wall:
                best_wall = wall
                pool = runs[-1].fabric.packet_pool.stats()
                allocation = {
                    # Net allocated blocks per dispatched event over the
                    # whole phase (includes result objects; steady-state
                    # per-packet cost is far lower — see pool counters).
                    "net_blocks": blocks_after - blocks_before,
                    "blocks_per_event": round(
                        (blocks_after - blocks_before)
                        / max(1, total_events), 4
                    ),
                    "gc_collections": gc_after - gc_before,
                }
        report[scheduler] = {
            "total_events": total_events,
            "wall_s": round(best_wall, 3),
            "events_per_sec": round(total_events / best_wall, 1),
            "allocation": allocation,
            "pool_last_cell": pool,
        }
    report["wheel_speedup_x"] = round(
        report["wheel"]["events_per_sec"] / report["heap"]["events_per_sec"],
        3,
    )
    return report


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def measure(smoke: bool) -> Dict:
    n_dispatch = 50_000 if smoke else 400_000
    n_churn = 50_000 if smoke else 400_000
    n_packets = 10_000 if smoke else 80_000
    n_flows = 40 if smoke else 150
    repeats = 3
    engines: Dict[str, Dict] = {}
    for engine in ("heap", "wheel"):
        engines[engine] = {
            "dispatch": _best_of(
                repeats, lambda e=engine: bench_engine_dispatch(e, n_dispatch)
            ),
            "churn": _best_of(
                repeats, lambda e=engine: bench_engine_churn(e, n_churn)
            ),
        }
    return {
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "engine": engines,
        "port_chain": _best_of(
            repeats, lambda: bench_port_chain(n_packets)
        ),
        "end_to_end": bench_end_to_end(smoke, n_flows, repeats=repeats),
    }


def _baseline_wheel_eps(path: str) -> Optional[float]:
    """Pull the committed wheel events/sec out of a baseline JSON —
    either ``BENCH_core.json`` (flat key) or a previous
    ``BENCH_hotpath.json`` (nested)."""
    with open(path) as fh:
        data = json.load(fh)
    if "events_per_sec_wheel" in data:
        return data["events_per_sec_wheel"]
    try:
        return data["end_to_end"]["wheel"]["events_per_sec"]
    except (KeyError, TypeError):
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--gate-baseline", default=None,
                        help="baseline JSON (BENCH_core.json or a prior "
                             "BENCH_hotpath.json) to gate end-to-end "
                             "wheel throughput against")
    parser.add_argument("--gate-ratio", type=float, default=0.95,
                        help="fail (exit 1) if end-to-end wheel "
                             "events/sec < ratio x baseline")
    args = parser.parse_args(argv)

    report = measure(args.smoke)
    gate: Optional[Dict] = None
    if args.gate_baseline:
        baseline = _baseline_wheel_eps(args.gate_baseline)
        measured = report["end_to_end"]["wheel"]["events_per_sec"]
        gate = {
            "baseline_file": os.path.basename(args.gate_baseline),
            "baseline_events_per_sec_wheel": baseline,
            "measured_events_per_sec_wheel": measured,
            "ratio_required": args.gate_ratio,
            "passed": (
                baseline is None or measured >= args.gate_ratio * baseline
            ),
        }
        report["gate"] = gate

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwritten to {out}")
    if gate is not None and not gate["passed"]:
        print(
            f"FAIL: wheel end-to-end {gate['measured_events_per_sec_wheel']}"
            f" ev/s < {args.gate_ratio} x baseline "
            f"{gate['baseline_events_per_sec_wheel']} ev/s",
            file=sys.stderr,
        )
        return 1
    return 0


def test_hotpath_smoke(tmp_path):
    """Pytest entry point: layer sanity without the perf gate."""
    out = tmp_path / "BENCH_hotpath.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for engine in ("heap", "wheel"):
        assert report["engine"][engine]["dispatch"]["events_per_sec"] > 0
        assert report["engine"][engine]["churn"]["ops_per_sec"] > 0
    assert report["engine"]["wheel"]["churn"]["purged"] > 0
    chain = report["port_chain"]
    assert chain["events_per_sec"] > 0
    # The pool must actually recycle on the unobserved fast path.
    assert chain["pool_reuse_fraction"] > 0.9
    e2e = report["end_to_end"]
    for scheduler in ("heap", "wheel"):
        assert e2e[scheduler]["events_per_sec"] > 0


if __name__ == "__main__":
    sys.exit(main())
