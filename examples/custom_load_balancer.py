#!/usr/bin/env python3
"""Extending the library: write and evaluate your own load balancer.

Implements a tiny custom scheme — "least-loaded uplink at flow start"
(a static variant of DRILL) — registers it under the factory, and races
it against ECMP and Hermes with the standard harness.  This is the
pattern for prototyping new datacenter load-balancing ideas on top of
this library.

Run:  python examples/custom_load_balancer.py
"""

from repro.api import (
    LB_REGISTRY,
    ExperimentConfig,
    LoadBalancer,
    bench_topology,
    format_table,
    run_experiment,
)
from repro.lb.base import InstalledScheme


class LeastQueueAtStartLB(LoadBalancer):
    """Pick the least-backlogged local uplink once, at flow start.

    Congestion-aware at placement time only: no rerouting, no remote
    visibility.  A useful strawman between ECMP and DRILL.
    """

    name = "least-queue-start"

    def select_path(self, flow, wire_bytes: int) -> int:
        if flow.current_path >= 0:
            return flow.current_path
        uplinks = self.topology.leaf_up[self.host.leaf]
        paths = self.paths_to(flow.dst)
        return min(paths, key=lambda p: uplinks[p].backlog_bytes)


def install_least_queue(fabric, **params):
    for host in fabric.hosts:
        host.lb = LeastQueueAtStartLB(
            host, fabric, fabric.rng.spawn("least-queue", host.host_id)
        )
    return InstalledScheme()


def main() -> None:
    LB_REGISTRY["least-queue-start"] = install_least_queue

    rows = []
    for scheme in ("ecmp", "least-queue-start", "hermes"):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(),
                lb=scheme,
                workload="web-search",
                load=0.7,
                n_flows=200,
                seed=5,
                size_scale=0.2,
                time_scale=0.2,
            )
        )
        rows.append([scheme, result.mean_fct_ms, result.stats.small.p99_ms()])
    print(format_table(["scheme", "avg FCT (ms)", "small p99 (ms)"], rows))
    print("\nAny scheme implementing LoadBalancer plugs into the harness;")
    print("register an installer in LB_REGISTRY and name it in the config.")


if __name__ == "__main__":
    main()
