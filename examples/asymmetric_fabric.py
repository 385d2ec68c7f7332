#!/usr/bin/env python3
"""Asymmetric fabric: how each load balancer copes with degraded links.

The scenario the paper's introduction motivates: a datacenter evolves,
some leaf-spine links run at 2 Gbps instead of 10 Gbps (or get cut), and
the load balancer must route around the slow paths.  This script
degrades 20% of the links and compares every implemented scheme on the
steady data-mining workload — the case where flowlet-based schemes
starve (no gaps to reroute on) and congestion-oblivious spraying suffers
congestion mismatch.

Run:  python examples/asymmetric_fabric.py
"""

from repro.api import (
    SPRAYING_SCHEMES,
    ExperimentConfig,
    bench_topology,
    format_table,
    run_experiment,
    scheme_names,
)

SCHEMES = scheme_names()  # the whole factory registry, new schemes included


def main() -> None:
    topology = bench_topology(asymmetric=True)
    degraded = [
        f"leaf{l}->spine{s}@{rate:g}G"
        for (l, s), rate in topology.link_overrides.items()
    ]
    print(f"degraded links: {', '.join(degraded)}\n")

    rows = []
    for scheme in SCHEMES:
        extra = {}
        if scheme in SPRAYING_SCHEMES:
            # Paper methodology: mask reordering for the spraying schemes.
            extra["reorder_mask_us"] = 100.0
        result = run_experiment(
            ExperimentConfig(
                topology=topology,
                lb=scheme,
                workload="data-mining",
                load=0.6,
                n_flows=150,
                seed=2,
                size_scale=0.2,
                time_scale=0.2,
                **extra,
            )
        )
        rows.append(
            [
                scheme,
                result.mean_fct_ms,
                result.stats.large.mean_ms(),
                result.total_reroutes,
            ]
        )
    print(
        format_table(
            ["scheme", "avg FCT (ms)", "large avg (ms)", "reroutes"], rows
        )
    )
    print("\nExpected shape (paper Fig. 14): Hermes leads; CONGA close;")
    print("flowlet schemes (LetFlow/CLOVE) trail on steady traffic;")
    print("spraying (Presto/DRB) suffers congestion mismatch.")


if __name__ == "__main__":
    main()
