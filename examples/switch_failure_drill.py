#!/usr/bin/env python3
"""Switch-failure drill: watch Hermes detect a blackhole and random drops.

Injects the two Microsoft-reported switch malfunctions the paper studies
(§2.1) into a fabric and shows Hermes' sensing machinery at work:

* a **packet blackhole** (all packets of some src-dst pairs dropped on
  one spine) — detected per pair after 3 timeouts with zero ACKs;
* **silent random packet drops** (2% on one spine) — detected by the
  10 ms retransmission-fraction sweep on non-congested paths.

Run:  python examples/switch_failure_drill.py
"""

from repro.api import (
    ExperimentConfig,
    FaultEventSpec,
    bench_topology,
    format_table,
    run_experiment,
)
from repro.faults import blackhole_on, random_drop_start, schedule


def drill(kind: str, failure: FaultEventSpec) -> None:
    """``failure`` exists from the start: a fault schedule of one event
    at t=0 (a later ``random_drop_stop`` / ``blackhole_off`` would heal
    it mid-run)."""
    print(f"--- {kind} on spine 0 ---")
    rows = []
    detections = {}
    for scheme in ("ecmp", "hermes"):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(n_leaves=4, n_spines=4, hosts_per_leaf=3),
                lb=scheme,
                workload="web-search",
                load=0.4,
                n_flows=120,
                seed=3,
                faults=schedule(failure),
                extra_drain_ns=3_000_000_000,
            )
        )
        rows.append(
            [
                scheme,
                result.mean_fct_ms_with_penalty(),
                result.stats.unfinished_count,
                result.total_reroutes,
            ]
        )
        if scheme == "hermes":
            leaf_states = result.scheme.leaf_states
            # One ledger per rack table: τ-sweep marks and the agents'
            # blackhole verdicts alike.
            detections["detections (sweep + blackhole)"] = sum(
                st.failed_detections for st in leaf_states.values()
            )
            # The blackholed (host, path) pairs live in the per-host agents.
            agents = [h.lb for h in result.fabric.hosts if h.lb is not None]
            detections["blackholed pairs found"] = sum(
                len(agent.failed_pairs) for agent in agents
            )
    print(
        format_table(
            ["scheme", "avg FCT incl. unfinished (ms)", "unfinished",
             "reroutes"],
            rows,
        )
    )
    for key, value in detections.items():
        print(f"{key}: {value}")
    print()


def main() -> None:
    drill("blackhole",
          blackhole_on(0, spine=0, src_leaf=0, dst_leaf=1, fraction=0.5))
    drill("random_drop", random_drop_start(0, spine=0, drop_rate=0.02))
    print("Hermes routes around failed switches; ECMP cannot — blackholed")
    print("flows never finish and randomly-dropped ones crawl.")


if __name__ == "__main__":
    main()
