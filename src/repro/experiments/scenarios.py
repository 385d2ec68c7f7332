"""Canonical topologies of the paper's evaluation.

* :func:`testbed_topology` — the 12-server / 4-switch / 1 Gbps testbed
  (Fig. 8), with the asymmetric variant cutting half of one leaf–spine
  trunk (bisection drops to 75%, as in the paper);
* :func:`simulation_topology` — the 8×8 leaf–spine, 128-host, 10 Gbps
  ns-3 setup (§5.3), with 20% of leaf–spine links reduced to 2 Gbps in
  the asymmetric variant (§5.3.2);
* :func:`bench_topology` — a shape-preserving scaled-down fabric the
  benches default to so CPython runs finish in seconds.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.net.topology import TopologyConfig


def testbed_topology(asymmetric: bool = False) -> TopologyConfig:
    """The paper's hardware testbed (Fig. 8).

    Two leaves, six 1 Gbps hosts per leaf, four 1 Gbps uplinks per leaf
    (3:2 leaf oversubscription).  The four uplinks are modelled as four
    logical spines so ECMP hashes over four distinct 1 Gbps paths, as the
    real switches do.  The asymmetric variant cuts one uplink entirely:
    the bisection drops to 75% of the symmetric case, exactly as in the
    paper.
    """
    overrides: Dict[Tuple[int, int], float] = {}
    if asymmetric:
        overrides[(0, 3)] = 0.0
    return TopologyConfig(
        n_leaves=2,
        n_spines=4,
        hosts_per_leaf=6,
        host_link_gbps=1.0,
        spine_link_gbps=1.0,
        link_overrides=overrides,
        prop_delay_ns=1_000,  # base RTT ≈ 100 µs, as measured on the testbed
        buffer_bytes=400_000,
        ecn_threshold_bytes=300_000,  # scales to 30 KB at 1 Gbps (paper)
    )


def asymmetric_overrides(
    n_leaves: int,
    n_spines: int,
    fraction: float,
    reduced_gbps: float,
    seed: int,
) -> Dict[Tuple[int, int], float]:
    """Randomly pick ``fraction`` of leaf–spine links and reduce them.

    Mirrors §5.3.2: "reduce the capacity from 10 Gbps to 2 Gbps for 20%
    of randomly selected leaf-to-spine links".
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = random.Random(seed)
    links = [(l, s) for l in range(n_leaves) for s in range(n_spines)]
    count = int(round(fraction * len(links)))
    return {link: reduced_gbps for link in rng.sample(links, count)}


def simulation_topology(asymmetric: bool = False, seed: int = 7) -> TopologyConfig:
    """The paper's large-scale ns-3 setup: 8×8 leaf–spine, 128 hosts,
    10 Gbps links, 2:1 leaf oversubscription."""
    overrides: Dict[Tuple[int, int], float] = {}
    if asymmetric:
        overrides = asymmetric_overrides(8, 8, 0.20, 2.0, seed)
    return TopologyConfig(
        n_leaves=8,
        n_spines=8,
        hosts_per_leaf=16,
        host_link_gbps=10.0,
        spine_link_gbps=10.0,
        link_overrides=overrides,
        prop_delay_ns=1_000,
        buffer_bytes=750_000,
        ecn_threshold_bytes=97_500,
    )


def bench_topology(
    asymmetric: bool = False,
    seed: int = 7,
    n_leaves: int = 4,
    n_spines: int = 4,
    hosts_per_leaf: int = 8,
) -> TopologyConfig:
    """Shape-preserving scale-down of :func:`simulation_topology` used by
    the benches: same 2:1 oversubscription, same link speeds, fewer
    switches and hosts so a CPython run finishes in seconds."""
    overrides: Dict[Tuple[int, int], float] = {}
    if asymmetric:
        overrides = asymmetric_overrides(n_leaves, n_spines, 0.20, 2.0, seed)
    return TopologyConfig(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        host_link_gbps=10.0,
        spine_link_gbps=10.0,
        link_overrides=overrides,
        prop_delay_ns=1_000,
        buffer_bytes=750_000,
        ecn_threshold_bytes=97_500,
    )


def failure_bench_topology(
    n_leaves: int = 4,
    n_spines: int = 4,
    hosts_per_leaf: int = 6,
) -> TopologyConfig:
    """Scaled fabric for the failure benches (Figs. 16–17), at 1 Gbps.

    Failure detection runs on wall-clock timers (10 ms RTO, 10 ms τ
    sweep), so the run must span enough *simulated time* for detection to
    matter.  Slower links stretch simulated time at the same event cost
    and restore the paper's RTO-to-FCT ratio.
    """
    return TopologyConfig(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        host_link_gbps=1.0,
        spine_link_gbps=1.0,
        link_overrides={},
        prop_delay_ns=2_000,
        buffer_bytes=400_000,
        ecn_threshold_bytes=300_000,  # 30 KB at 1 Gbps
    )
